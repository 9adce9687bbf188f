/// \file grid_cold.cpp
/// \brief Workload `grid-cold`: the paper's §5 campaign as users run it —
/// a flat MasterAgent deployment driven by middleware::Client::submit, with
/// the process-wide eval cache emptied before every timed campaign, so every
/// performance-vector DES answer is a miss.

#include <optional>

#include "grid_common.hpp"
#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/grid_sim.hpp"

namespace e2e {
namespace {

using namespace oagrid;

constexpr int kClusters = 5;
constexpr int kSetupReps = 101;
constexpr sched::Heuristic kHeuristic = sched::Heuristic::kKnapsack;

struct Inputs {
  platform::Grid grid;
  appmodel::Ensemble ensemble;
  std::string description;
};

Inputs make_inputs(const Options& options) {
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 1);
  Inputs in;
  in.ensemble = options.smoke ? appmodel::Ensemble{8, 24}
                              : appmodel::Ensemble{120, 1800};
  in.description = "grid-cold NS " + std::to_string(in.ensemble.scenarios) +
                   " NM " + std::to_string(in.ensemble.months) +
                   " heuristic knapsack\n";
  const ProcCount lo = options.smoke ? 24 : 97;
  in.grid = jittered_grid(kClusters, lo, lo + 4, rng, in.description);
  return in;
}

/// Per-cluster compute makespans as the step-6 reports give them (0 for
/// clusters that received no scenario).
std::vector<Seconds> executed_makespans(const middleware::CampaignResult& r,
                                        int clusters) {
  std::vector<Seconds> out(static_cast<std::size_t>(clusters), 0.0);
  for (const middleware::ExecuteResponse& e : r.executions)
    out[static_cast<std::size_t>(e.cluster)] = e.makespan;
  return out;
}

bool same_campaign(const middleware::CampaignResult& a,
                   const middleware::CampaignResult& b, int clusters) {
  return a.performance == b.performance &&
         a.repartition.dags_per_cluster == b.repartition.dags_per_cluster &&
         a.repartition.assignment == b.repartition.assignment &&
         executed_makespans(a, clusters) == executed_makespans(b, clusters) &&
         a.makespan == b.makespan;
}

/// The output checks of one campaign: placements sum to NS, and the result
/// equals the in-process §5 flow (sim::simulate_grid) bit for bit.
void check_campaign(Report& report, const middleware::CampaignResult& r,
                    const sim::GridSimResult& reference, const Inputs& in) {
  const int clusters = in.grid.cluster_count();
  const bool placed =
      r.repartition.total_dags() == in.ensemble.scenarios &&
      r.repartition.assignment.size() ==
          static_cast<std::size_t>(in.ensemble.scenarios);
  const bool equal =
      r.performance == reference.performance &&
      r.repartition.dags_per_cluster ==
          reference.repartition.dags_per_cluster &&
      r.repartition.assignment == reference.repartition.assignment &&
      executed_makespans(r, clusters) == reference.cluster_makespans &&
      r.makespan == reference.makespan;
  report.check(placed && equal,
               placed ? "middleware result differs from sim::simulate_grid"
                      : "placements do not sum to NS");
}

std::string result_digest(const middleware::CampaignResult& r, int clusters) {
  std::string text;
  for (const Count d : r.repartition.dags_per_cluster)
    text += std::to_string(d) + " ";
  for (const Seconds m : executed_makespans(r, clusters))
    text += exact(m) + " ";
  return hex64(fnv1a(text + exact(r.makespan)));
}

/// sim::simulate_grid on the inputs of a campaign that just ran: its
/// performance vectors come from the eval cache that campaign filled, so
/// the reference costs lookups, not a second cold campaign.
sim::GridSimResult warm_reference(const Inputs& in) {
  return sim::simulate_grid(in.grid, in.ensemble, kHeuristic);
}

void traced_run(const Options& options, const Inputs& in,
                middleware::Client& client, Report& report) {
  const int clusters = in.grid.cluster_count();

  // Untraced reference pass: the end-to-end path the timed runs measure.
  sim::eval_cache().clear();
  const double wall0 = wall_s();
  const middleware::CampaignResult untraced =
      client.submit(in.ensemble, kHeuristic);
  const double untraced_s = wall_s() - wall0;
  check_campaign(report, untraced, warm_reference(in), in);

  // Traced pass: the same campaign made layer by layer from here — steps
  // 2-3 (performance vectors), step 4 (Algorithm 1), step 5 (each share's
  // DES) — with a span around every call.
  Tracer tracer;
  DesLedger ledger;
  sim::eval_cache().clear();
  obs::set_enabled(true);
  const std::uint64_t events0 = des_events();
  const sim::EvalCacheStats stats0 = sim::eval_cache().stats();
  std::vector<sched::PerformanceVector> performance;
  sched::Repartition repartition;
  std::vector<Seconds> executed(static_cast<std::size_t>(clusters), 0.0);
  {
    const auto campaign = tracer.scope("campaign");
    for (ClusterId c = 0; c < clusters; ++c)
      performance.push_back(traced_perf_vector(
          tracer, ledger, in.grid.cluster(c), in.ensemble.scenarios,
          in.ensemble.months, kHeuristic));
    {
      const auto span = tracer.scope("sched.repartition");
      repartition =
          sched::greedy_repartition(performance, in.ensemble.scenarios);
    }
    for (ClusterId c = 0; c < clusters; ++c) {
      const Count share =
          repartition.dags_per_cluster[static_cast<std::size_t>(c)];
      if (share == 0) continue;
      const auto span = tracer.scope("sim.execute");
      executed[static_cast<std::size_t>(c)] =
          sim::simulate_with_heuristic(in.grid.cluster(c), kHeuristic,
                                       {share, in.ensemble.months})
              .makespan;
    }
  }
  const sim::EvalCacheStats stats1 = sim::eval_cache().stats();
  const std::uint64_t events = des_events() - events0;
  obs::set_enabled(false);

  if (performance != untraced.performance ||
      repartition.assignment != untraced.repartition.assignment ||
      executed != executed_makespans(untraced, clusters))
    report.notes.push_back(
        "trace: the layer-by-layer decomposition diverged from "
        "Client::submit; per-layer figures describe the decomposition");

  // Protocol cost plus execution, with every DES answer already cached.
  middleware::CampaignResult warm;
  {
    const auto span = tracer.scope("middleware.submit_warm");
    warm = client.submit(in.ensemble, kHeuristic);
  }
  report.check(same_campaign(warm, untraced, clusters),
               "warm resubmission differs from the cold campaign");

  const double perf_s = tracer.total("sim.perf_vector");
  const double execute_s = tracer.total("sim.execute");
  report.metric("sim.perf_vector_s", perf_s, "s");
  report.metric("sim.perf_vector_cpu_util",
                ledger.cpu_s / (ledger.wall_s * nproc()), "ratio");
  report.metric("sim.des_runs",
                static_cast<double>(stats1.misses - stats0.misses), "count");
  report.metric("sim.des_events", static_cast<double>(events), "count");
  report.metric("sim.events_per_s",
                static_cast<double>(events) / (perf_s + execute_s), "1/s");
  report.metric("sim.execute_s", execute_s, "s");
  report.metric("middleware.submit_warm_s",
                tracer.total("middleware.submit_warm"), "s");
  report.metric("knapsack.family_s", tracer.total("knapsack.family"), "s");
  report.metric("knapsack.family_calls",
                static_cast<double>(tracer.count("knapsack.family")), "count");
  report.metric("sched.repartition_s", tracer.self("sched.repartition"), "s");
  report.metric("evalcache.hit_ratio", hit_ratio(stats0, stats1), "ratio");
  report.metric("trace.overhead_s", tracer.total("campaign") - untraced_s,
                "s");
  tracer.write_json(options.scratch_dir + "/trace-grid-cold-" +
                    std::to_string(options.seed) + ".json");
}

}  // namespace

Report run_grid_cold(const Options& options) {
  const Inputs in = make_inputs(options);
  Report report;
  report.input_digest = hex64(fnv1a(in.description));

  warm_pool();
  middleware::MasterAgent agent(in.grid);
  middleware::Client client(agent);

  if (options.trace) {
    traced_run(options, in, client, report);
    return report;
  }

  Samples campaign;
  Samples cpu;
  std::optional<middleware::CampaignResult> first;
  std::optional<sim::GridSimResult> reference;
  const double loop_start = wall_s();
  while (campaign.size() == 0 || wall_s() - loop_start < options.seconds) {
    sim::eval_cache().clear();
    const double cpu0 = cpu_s();
    const double wall0 = wall_s();
    middleware::CampaignResult result = client.submit(in.ensemble, kHeuristic);
    campaign.add(wall_s() - wall0);
    cpu.add(cpu_s() - cpu0);
    if (!reference) reference = warm_reference(in);
    check_campaign(report, result, *reference, in);
    if (!first) first = result;
    report.check(same_campaign(result, *first, in.grid.cluster_count()),
                 "campaign is not deterministic");
  }

  // Set-up: build the grid and deploy the SeD threads. Tearing a deployment
  // down (joining its SeDs) is not part of it. The pool was spun up once,
  // before the campaigns (see warm_pool).
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = wall_s();
    const platform::Grid grid = make_inputs(options).grid;
    const middleware::MasterAgent fresh(grid);
    setup.add(wall_s() - t0);
  }

  report.result_digest = result_digest(*first, in.grid.cluster_count());
  report.notes.push_back("setup_s: " + setup.describe());
  report.notes.push_back("campaign_s: " + campaign.describe());
  report.notes.push_back("cpu_s: " + cpu.describe());
  report.notes.push_back("campaign makespan: " + exact(first->makespan) +
                         " s simulated");
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
