#include "sim/grid_sim.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "fault/checkpoint.hpp"
#include "net/fairshare.hpp"
#include "obs/obs.hpp"
#include "sim/ensemble_sim.hpp"
#include "sim/perf_vector.hpp"

namespace oagrid::sim {
namespace {

/// Fair-shared finish of `k` simultaneous `size_mb` transfers src -> dst
/// starting at t = 0: under equal sharing of one directed link they all
/// drain together at latency + k * size / bw. Exactly 0.0 over a free link.
Seconds batch_transfer_time(const net::NetworkModel& network, ClusterId src,
                            ClusterId dst, Count k, double size_mb) {
  if (k <= 0 || size_mb <= 0.0) return 0.0;
  return network.transfer_time(src, dst, static_cast<double>(k) * size_mb);
}

/// The network part of placement_charge: the serialized cost of staging k
/// scenarios' inputs and collecting their results over the home links.
sched::PlacementCharge network_placement_charge(
    const GridNetworkOptions& options) {
  if (!options.active()) return nullptr;
  return [&options](std::size_t c, Count k) -> Seconds {
    const auto dst = static_cast<ClusterId>(c);
    return batch_transfer_time(options.network, options.home, dst, k,
                               options.stage_mb_per_scenario) +
           batch_transfer_time(options.network, dst, options.home, k,
                               options.collect_mb_per_scenario);
  };
}

}  // namespace

void GridNetworkOptions::validate(int clusters) const {
  if (!active()) return;
  OAGRID_REQUIRE(network.cluster_count() == clusters,
                 "network model does not cover the campaign's clusters");
  OAGRID_REQUIRE(home >= 0 && home < clusters,
                 "home cluster outside the campaign's clusters");
  OAGRID_REQUIRE(stage_mb_per_scenario >= 0.0 && collect_mb_per_scenario >= 0.0,
                 "transfer volumes must be >= 0");
}

sched::PlacementCharge placement_charge(
    const GridNetworkOptions& net, const GridFaultOptions& faults,
    std::span<const sched::PerformanceVector> performance, Count months) {
  sched::PlacementCharge net_charge = network_placement_charge(net);
  sched::PlacementCharge failure_charge;
  if (faults.active() && faults.charge_placement)
    failure_charge = fault::make_failure_charge(faults.model, performance,
                                                months,
                                                faults.checkpoint_months);
  if (!net_charge && !failure_charge) return nullptr;
  return [net_charge = std::move(net_charge),
          failure_charge = std::move(failure_charge)](std::size_t c, Count k) {
    Seconds total = 0.0;
    if (net_charge) total += net_charge(c, k);
    if (failure_charge) total += failure_charge(c, k);
    return total;
  };
}

CampaignTransfers simulate_campaign_transfers(
    const GridNetworkOptions& net, std::span<const Count> shares,
    std::span<const Seconds> compute, Seconds transfer_deadline) {
  OAGRID_REQUIRE(compute.size() == shares.size(),
                 "one compute time per cluster share");
  const std::size_t n = shares.size();
  CampaignTransfers out;
  out.staging_seconds.assign(n, 0.0);
  out.collection_seconds.assign(n, 0.0);
  if (!net.active()) return out;

  // One fair-shared batch per direction, k requests per cluster; a
  // cluster's delay is its longest transfer. Collection reads the staging
  // delays, so staging runs first.
  const auto move = [&](bool collect, std::vector<Seconds>& seconds) {
    const double size_mb =
        collect ? net.collect_mb_per_scenario : net.stage_mb_per_scenario;
    if (size_mb <= 0.0) return;
    std::vector<net::TransferRequest> requests;
    for (std::size_t c = 0; c < n; ++c) {
      const auto cid = static_cast<ClusterId>(c);
      const net::TransferRequest request =
          collect ? net::TransferRequest{cid, net.home, size_mb,
                                         out.staging_seconds[c] + compute[c]}
                  : net::TransferRequest{net.home, cid, size_mb, 0.0};
      requests.insert(requests.end(), static_cast<std::size_t>(shares[c]),
                      request);
    }
    const net::TransferPlan plan = net::simulate_transfers(net.network, requests);
    out.transfer_mb += plan.total_mb;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Seconds took = plan.results[i].finish - requests[i].start;
      Seconds& longest = seconds[static_cast<std::size_t>(
          collect ? requests[i].src : requests[i].dst)];
      longest = std::max(longest, took);
      if (took > transfer_deadline) ++out.deadline_misses;
    }
  };
  move(false, out.staging_seconds);
  move(true, out.collection_seconds);
  return out;
}

GridNetworkOptions campaign_network_options(
    net::NetworkModel network, const appmodel::Ensemble& ensemble,
    const appmodel::VolumeParams& volumes, ClusterId home) {
  ensemble.validate();
  GridNetworkOptions options;
  options.network = std::move(network);
  options.home = home;
  options.stage_mb_per_scenario = volumes.restart_mb;
  options.collect_mb_per_scenario =
      static_cast<double>(ensemble.months) * volumes.raw_diag_mb /
          volumes.compression_ratio +
      volumes.restart_mb;
  return options;
}

GridSimResult simulate_grid(const platform::Grid& grid,
                            const appmodel::Ensemble& ensemble,
                            sched::Heuristic heuristic, std::size_t threads,
                            const GridNetworkOptions& net_options,
                            const GridFaultOptions& fault_options) {
  ensemble.validate();
  OAGRID_REQUIRE(grid.cluster_count() >= 1, "grid needs at least one cluster");
  net_options.validate(grid.cluster_count());
  if (fault_options.active()) {
    OAGRID_REQUIRE(
        fault_options.model.cluster_count() == grid.cluster_count(),
        "failure model does not cover the grid's clusters");
    OAGRID_REQUIRE(fault_options.checkpoint_months >= 1,
                   "checkpoint cadence must be >= 1 month");
  }

  const bool observed = obs::enabled();
  obs::Histogram* const perf_us =
      observed ? &obs::metrics().histogram("sim.perf_vector_us") : nullptr;
  const std::size_t n = static_cast<std::size_t>(grid.cluster_count());

  // Step 2 on demand: Algorithm 1 pulls the entries it reads, and each pull
  // evaluates every new (cluster, k) entry as one longest-first pool region.
  std::vector<VectorSource> sources;
  sources.reserve(n);
  for (std::size_t c = 0; c < n; ++c)
    sources.emplace_back(grid.cluster(static_cast<ClusterId>(c)),
                         ensemble.scenarios, ensemble.months, heuristic);
  const sched::PrefixExtender extend =
      [&](std::vector<sched::PerformanceVector>& performance,
          std::span<const std::size_t> want) {
        obs::ScopedTimer timer(perf_us);
        obs::Span span(observed ? &obs::trace_buffer() : nullptr,
                       "perf vector entries", "sim");
        std::vector<EntryRange> ranges;
        for (std::size_t c = 0; c < n; ++c)
          if (performance[c].size() < want[c])
            ranges.push_back({c, static_cast<Count>(performance[c].size()) + 1,
                              static_cast<Count>(want[c])});
        const std::vector<sched::PerformanceVector> entries =
            evaluate_entries(sources, ranges, threads);
        for (std::size_t r = 0; r < ranges.size(); ++r) {
          sched::PerformanceVector& prefix = performance[ranges[r].source];
          prefix.insert(prefix.end(), entries[r].begin(), entries[r].end());
        }
      };
  if (observed)
    obs::metrics().counter("sim.grid_campaigns").add();

  // Algorithm 1 over the growing prefixes, each candidate charged its data
  // movement and expected failure inflation where those apply.
  GridSimResult result;
  result.performance.resize(n);
  result.repartition = sched::demand_repartition(
      result.performance, ensemble.scenarios, extend,
      placement_charge(net_options, fault_options, result.performance,
                       ensemble.months));

  // Per-cluster compute times: the clean performance-vector entry, replaced
  // by a failure-injected DES run wherever the cluster can actually fail
  // (elsewhere the substitution is the very same double, so an inactive
  // model stays bit-identical).
  std::vector<Seconds> compute(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const Count k = result.repartition.dags_per_cluster[c];
    if (k > 0)
      compute[c] = result.performance[c][static_cast<std::size_t>(k) - 1];
  }
  if (fault_options.active()) {
    std::vector<fault::FaultStats> stats(n);
    shared_pool().parallel_for(
        0, n,
        [&](std::size_t c) {
          const Count k = result.repartition.dags_per_cluster[c];
          const auto cid = static_cast<ClusterId>(c);
          if (k <= 0 || !fault_options.model.cluster_active(cid)) return;
          const appmodel::Ensemble sub{k, ensemble.months};
          const sched::GroupSchedule schedule =
              sched::make_schedule(heuristic, grid.cluster(cid), sub);
          SimOptions opts;
          opts.fault.model = &fault_options.model;
          opts.fault.cluster = cid;
          opts.fault.recovery = fault_options.recovery;
          opts.fault.checkpoint_months = fault_options.checkpoint_months;
          // Migration re-staging ships the scenario's restart state from
          // home again; free (0.0) when no network is attached.
          if (net_options.active() && net_options.stage_mb_per_scenario > 0.0)
            opts.fault.migrate_staging = net_options.network.transfer_time(
                net_options.home, cid, net_options.stage_mb_per_scenario);
          const SimResult r =
              simulate_ensemble(grid.cluster(cid), schedule, sub, opts);
          compute[c] = r.makespan;
          stats[c] = r.fault;
        },
        threads);
    for (const fault::FaultStats& s : stats) result.fault.merge(s);
  }

  // Execute the movement the decision priced.
  CampaignTransfers moved = simulate_campaign_transfers(
      net_options, result.repartition.dags_per_cluster, compute);
  result.staging_seconds = std::move(moved.staging_seconds);
  result.collection_seconds = std::move(moved.collection_seconds);
  result.transfer_mb = moved.transfer_mb;

  result.cluster_makespans.assign(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const Count k = result.repartition.dags_per_cluster[c];
    if (k > 0)
      result.cluster_makespans[c] = result.staging_seconds[c] + compute[c] +
                                    result.collection_seconds[c];
  }
  result.makespan = 0.0;
  for (const Seconds m : result.cluster_makespans)
    result.makespan = std::max(result.makespan, m);
  return result;
}

}  // namespace oagrid::sim
