/// \file grid_faulty.cpp
/// \brief Workload `grid-faulty`: the §5 campaign in-process through
/// sim::simulate_grid over the built-in RENATER network with exponential
/// cluster failures and reschedule recovery — the arguments `oagrid_cli grid
/// --network --failures` passes. It exercises charged Algorithm 1, the
/// fair-share transfers and the failure-injected per-cluster DES (which
/// bypasses the eval cache), and bypasses the middleware.

#include <cmath>
#include <optional>

#include "common/parallel.hpp"
#include "fault/checkpoint.hpp"
#include "grid_common.hpp"
#include "net/fairshare.hpp"
#include "net/network.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/grid_sim.hpp"

namespace e2e {
namespace {

using namespace oagrid;

constexpr int kClusters = 5;
constexpr int kSetupReps = 101;
constexpr sched::Heuristic kHeuristic = sched::Heuristic::kKnapsack;
constexpr double kMtbf = 2'000'000.0;
constexpr double kMttr = 7'200.0;
/// simulate_grid's `threads`, as the CLI passes it. With 1 its per-cluster
/// loops run inline inside a parallel region, so every pool region below
/// them (each vector's DES fan-out) runs inline too: the campaign is serial.
constexpr std::size_t kThreads = 1;

struct Inputs {
  platform::Grid grid;
  appmodel::Ensemble ensemble;
  sim::GridNetworkOptions net;
  sim::GridFaultOptions fault;
  std::string description;
};

Inputs make_inputs(const Options& options) {
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 2);
  Inputs in;
  in.ensemble = options.smoke ? appmodel::Ensemble{6, 24}
                              : appmodel::Ensemble{60, 1800};
  in.description = "grid-faulty NS " + std::to_string(in.ensemble.scenarios) +
                   " NM " + std::to_string(in.ensemble.months) +
                   " heuristic knapsack network renater home 0 mtbf " +
                   exact(kMtbf) + " mttr " + exact(kMttr) +
                   " recovery reschedule checkpoint 1\n";
  const ProcCount lo = options.smoke ? 24 : 97;
  in.grid = jittered_grid(kClusters, lo, lo + 4, rng, in.description);
  const auto fault_seed =
      static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  in.description += "fault seed " + std::to_string(fault_seed) + "\n";
  in.net = sim::campaign_network_options(net::renater_network(kClusters),
                                         in.ensemble, {}, 0);
  in.fault.model = fault::FailureModel::uniform_exponential(kClusters, kMtbf,
                                                            kMttr, fault_seed);
  in.fault.recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  in.fault.checkpoint_months = 1;
  return in;
}

sim::GridSimResult run_campaign(const Inputs& in) {
  return sim::simulate_grid(in.grid, in.ensemble, kHeuristic, kThreads,
                            in.net, in.fault);
}

bool same_result(const sim::GridSimResult& a, const sim::GridSimResult& b) {
  return a.repartition.assignment == b.repartition.assignment &&
         a.cluster_makespans == b.cluster_makespans &&
         a.makespan == b.makespan && a.transfer_mb == b.transfer_mb &&
         a.fault.outages == b.fault.outages && a.fault.kills == b.fault.kills;
}

/// Output checks: placements sum to NS, the makespan is finite and is the
/// maximum of the per-cluster makespans, kills never exceed outages, and the
/// run reproduces the first campaign of this process bit for bit.
void check_campaign(Report& report, const sim::GridSimResult& r,
                    const sim::GridSimResult& first, const Inputs& in) {
  Seconds max_cluster = 0.0;
  for (const Seconds m : r.cluster_makespans)
    max_cluster = std::max(max_cluster, m);
  report.check(r.repartition.total_dags() == in.ensemble.scenarios,
               "placements do not sum to NS");
  report.check(std::isfinite(r.makespan) &&
                   r.makespan < fault::kUnavailableTime &&
                   r.makespan == max_cluster,
               "makespan is not the finite maximum of cluster_makespans");
  report.check(r.fault.kills <= r.fault.outages, "more kills than outages");
  report.check(same_result(r, first), "campaign is not deterministic");
}

/// Same fair-shared batch time simulate_grid charges: k transfers of
/// `size_mb` over one directed link drain together.
Seconds batch_transfer_time(const net::NetworkModel& network, ClusterId src,
                            ClusterId dst, Count k, double size_mb) {
  if (k <= 0 || size_mb <= 0.0) return 0.0;
  return network.transfer_time(src, dst, static_cast<double>(k) * size_mb);
}

void traced_run(const Options& options, const Inputs& in, Report& report) {
  const std::size_t n = static_cast<std::size_t>(in.grid.cluster_count());

  sim::eval_cache().clear();
  const double wall0 = wall_s();
  const sim::GridSimResult untraced = run_campaign(in);
  const double untraced_s = wall_s() - wall0;
  check_campaign(report, untraced, untraced, in);

  // Traced pass: simulate_grid's flow made layer by layer from here, its
  // per-cluster loops run through the same parallel_for (kThreads = 1 keeps
  // them inline on this thread, which the tracer requires).
  Tracer tracer;
  DesLedger ledger;
  sim::eval_cache().clear();
  obs::set_enabled(true);
  const std::uint64_t events0 = des_events();
  const sim::EvalCacheStats stats0 = sim::eval_cache().stats();
  std::vector<sched::PerformanceVector> performance;
  sched::Repartition repartition;
  std::vector<Seconds> compute(n, 0.0);
  fault::FaultStats stats;
  std::vector<net::TransferRequest> staging;
  std::vector<net::TransferRequest> collection;
  std::optional<net::TransferPlan> staged_plan;
  std::optional<net::TransferPlan> collected_plan;
  {
    const auto campaign = tracer.scope("campaign");
    performance.resize(n);
    parallel_for(
        0, n,
        [&](std::size_t c) {
          performance[c] = traced_perf_vector(
              tracer, ledger, in.grid.cluster(static_cast<ClusterId>(c)),
              in.ensemble.scenarios, in.ensemble.months, kHeuristic);
        },
        kThreads);

    sched::PlacementCharge failure_charge;
    {
      const auto span = tracer.scope("fault.charge");
      failure_charge = fault::make_failure_charge(
          in.fault.model, performance, in.ensemble.months,
          in.fault.checkpoint_months);
    }
    const auto charge = [&](std::size_t c, Count k) -> Seconds {
      Seconds net_part = 0.0;
      {
        const auto span = tracer.scope("net.charge");
        const auto dst = static_cast<ClusterId>(c);
        net_part = batch_transfer_time(in.net.network, in.net.home, dst, k,
                                       in.net.stage_mb_per_scenario) +
                   batch_transfer_time(in.net.network, dst, in.net.home, k,
                                       in.net.collect_mb_per_scenario);
      }
      const auto span = tracer.scope("fault.charge");
      return net_part + failure_charge(c, k);
    };
    {
      const auto span = tracer.scope("sched.repartition");
      repartition = sched::greedy_repartition_charged(
          performance, in.ensemble.scenarios, charge);
    }

    for (std::size_t c = 0; c < n; ++c) {
      const Count k = repartition.dags_per_cluster[c];
      if (k > 0) compute[c] = performance[c][static_cast<std::size_t>(k) - 1];
    }
    parallel_for(
        0, n,
        [&](std::size_t c) {
          const Count k = repartition.dags_per_cluster[c];
          const auto cid = static_cast<ClusterId>(c);
          if (k <= 0 || !in.fault.model.cluster_active(cid)) return;
          const auto span = tracer.scope("fault.des");
          const appmodel::Ensemble sub{k, in.ensemble.months};
          sim::SimOptions opts;
          opts.fault.model = &in.fault.model;
          opts.fault.cluster = cid;
          opts.fault.recovery = in.fault.recovery;
          opts.fault.checkpoint_months = in.fault.checkpoint_months;
          opts.fault.migrate_staging = in.net.network.transfer_time(
              in.net.home, cid, in.net.stage_mb_per_scenario);
          const platform::Cluster& cluster = in.grid.cluster(cid);
          const sim::SimResult r = sim::simulate_ensemble(
              cluster, sched::make_schedule(kHeuristic, cluster, sub), sub,
              opts);
          compute[c] = r.makespan;
          stats.merge(r.fault);
        },
        kThreads);

    const auto span = tracer.scope("net.transfers");
    for (std::size_t c = 0; c < n; ++c) {
      const Count k = repartition.dags_per_cluster[c];
      const auto dst = static_cast<ClusterId>(c);
      const Seconds staged =
          batch_transfer_time(in.net.network, in.net.home, dst, k,
                              in.net.stage_mb_per_scenario);
      for (Count s = 0; s < k; ++s) {
        staging.push_back(
            {in.net.home, dst, in.net.stage_mb_per_scenario, 0.0});
        collection.push_back({dst, in.net.home,
                              in.net.collect_mb_per_scenario,
                              staged + compute[c]});
      }
    }
    staged_plan = net::simulate_transfers(in.net.network, staging);
    collected_plan = net::simulate_transfers(in.net.network, collection);
  }
  const sim::EvalCacheStats stats1 = sim::eval_cache().stats();
  const std::uint64_t events = des_events() - events0;
  obs::set_enabled(false);

  if (performance != untraced.performance ||
      repartition.assignment != untraced.repartition.assignment ||
      stats.outages != untraced.fault.outages ||
      stats.kills != untraced.fault.kills ||
      staged_plan->total_mb + collected_plan->total_mb !=
          untraced.transfer_mb)
    report.notes.push_back(
        "trace: the layer-by-layer decomposition diverged from "
        "sim::simulate_grid; per-layer figures describe the decomposition");

  const double perf_s = tracer.total("sim.perf_vector");
  const double des_s = tracer.total("fault.des");
  report.metric("sim.perf_vector_s", perf_s, "s");
  report.metric("sim.perf_vector_cpu_util",
                ledger.cpu_s / (ledger.wall_s * nproc()), "ratio");
  report.metric("sim.des_runs",
                static_cast<double>(stats1.misses - stats0.misses), "count");
  report.metric("sim.des_events", static_cast<double>(events), "count");
  report.metric("sim.events_per_s",
                static_cast<double>(events) / (perf_s + des_s), "1/s");
  report.metric("fault.des_s", des_s, "s");
  report.metric("fault.charge_s", tracer.self("fault.charge"), "s");
  report.metric("fault.outages", static_cast<double>(stats.outages), "count");
  report.metric("fault.kills", static_cast<double>(stats.kills), "count");
  report.metric("net.transfers_s",
                tracer.total("net.transfers") + tracer.total("net.charge"),
                "s");
  report.metric("net.transfers",
                static_cast<double>(staging.size() + collection.size()),
                "count");
  report.metric("net.mb", staged_plan->total_mb + collected_plan->total_mb,
                "MB");
  report.metric("knapsack.family_s", tracer.total("knapsack.family"), "s");
  report.metric("knapsack.family_calls",
                static_cast<double>(tracer.count("knapsack.family")), "count");
  report.metric("sched.repartition_s", tracer.self("sched.repartition"), "s");
  report.metric("evalcache.hit_ratio", hit_ratio(stats0, stats1), "ratio");
  report.metric("trace.overhead_s", tracer.total("campaign") - untraced_s,
                "s");
  tracer.write_json(options.scratch_dir + "/trace-grid-faulty-" +
                    std::to_string(options.seed) + ".json");
}

}  // namespace

Report run_grid_faulty(const Options& options) {
  const Inputs in = make_inputs(options);
  Report report;
  report.input_digest = hex64(fnv1a(in.description));
  warm_pool();

  if (options.trace) {
    traced_run(options, in, report);
    return report;
  }

  Samples campaign;
  Samples cpu;
  std::optional<sim::GridSimResult> first;
  const double loop_start = wall_s();
  while (campaign.size() == 0 || wall_s() - loop_start < options.seconds) {
    sim::eval_cache().clear();
    const double cpu0 = cpu_s();
    const double wall0 = wall_s();
    sim::GridSimResult result = run_campaign(in);
    campaign.add(wall_s() - wall0);
    cpu.add(cpu_s() - cpu0);
    if (!first) first = result;
    check_campaign(report, result, *first, in);
  }

  // Set-up: build the grid, the network and the failure model (this
  // workload deploys no SeDs; the pool was spun up once, see warm_pool).
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = wall_s();
    (void)make_inputs(options);
    setup.add(wall_s() - t0);
  }

  std::string text;
  for (const Seconds m : first->cluster_makespans) text += exact(m) + " ";
  report.result_digest = hex64(fnv1a(text + exact(first->makespan)));
  report.notes.push_back("setup_s: " + setup.describe());
  report.notes.push_back("campaign_s: " + campaign.describe());
  report.notes.push_back("cpu_s: " + cpu.describe());
  report.notes.push_back(
      "campaign makespan: " + exact(first->makespan) + " s simulated, " +
      std::to_string(first->fault.outages) + " outages, " +
      std::to_string(first->fault.kills) + " kills, " +
      exact(first->transfer_mb) + " MB moved");
  report.metric("setup_s", setup.median(), "s");
  report.metric("campaign_s", campaign.median(), "s");
  report.metric("campaigns_per_s",
                static_cast<double>(campaign.size()) / campaign.sum(), "1/s");
  // A grid campaign keeps no durable state: recovering its result after a
  // restart means running it again from its inputs.
  report.metric("recover_s", campaign.median(), "s");
  report.metric("cpu_s", cpu.median(), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace e2e
