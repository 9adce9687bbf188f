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

}  // namespace

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
  if (net_options.active()) {
    OAGRID_REQUIRE(net_options.network.cluster_count() == grid.cluster_count(),
                   "network model does not cover the grid's clusters");
    OAGRID_REQUIRE(
        net_options.home >= 0 && net_options.home < grid.cluster_count(),
        "home cluster outside the grid");
    OAGRID_REQUIRE(net_options.stage_mb_per_scenario >= 0.0 &&
                       net_options.collect_mb_per_scenario >= 0.0,
                   "transfer volumes must be >= 0");
  }
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

  GridSimResult result;
  result.performance.resize(n);
  result.staging_seconds.assign(n, 0.0);
  result.collection_seconds.assign(n, 0.0);

  // Algorithm 1, with each candidate cluster charged the serialized cost of
  // moving its k scenarios' files over the home link (when a network is
  // attached) plus its expected failure inflation (when a failure model is),
  // read off the same growing prefixes. Both charges absent -> the paper's
  // uncharged greedy, bit for bit (0.0 + x == x keeps a lone charge exact).
  const sched::PlacementCharge net_charge =
      network_placement_charge(net_options);
  sched::PlacementCharge failure_charge;
  if (fault_options.active() && fault_options.charge_placement)
    failure_charge = fault::make_failure_charge(
        fault_options.model, result.performance, ensemble.months,
        fault_options.checkpoint_months);
  sched::PlacementCharge charge;
  if (net_charge || failure_charge)
    charge = [&net_charge, &failure_charge](std::size_t c, Count k) {
      Seconds total = 0.0;
      if (net_charge) total += net_charge(c, k);
      if (failure_charge) total += failure_charge(c, k);
      return total;
    };
  result.repartition = sched::demand_repartition(
      result.performance, ensemble.scenarios, extend, charge);

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

  if (net_options.active()) {
    // Execute the movement the decision priced: all staging transfers enter
    // the network at t = 0 (fair-shared per home link), and each cluster's
    // results ship home the moment its compute drains.
    std::vector<net::TransferRequest> staging;
    std::vector<net::TransferRequest> collection;
    for (std::size_t c = 0; c < n; ++c) {
      const Count k = result.repartition.dags_per_cluster[c];
      if (k <= 0) continue;
      const auto dst = static_cast<ClusterId>(c);
      const Seconds staged = batch_transfer_time(
          net_options.network, net_options.home, dst, k,
          net_options.stage_mb_per_scenario);
      for (Count s = 0; s < k; ++s) {
        if (net_options.stage_mb_per_scenario > 0.0)
          staging.push_back({net_options.home, dst,
                             net_options.stage_mb_per_scenario, 0.0});
        if (net_options.collect_mb_per_scenario > 0.0)
          collection.push_back({dst, net_options.home,
                                net_options.collect_mb_per_scenario,
                                staged + compute[c]});
      }
    }
    const net::TransferPlan staged_plan =
        net::simulate_transfers(net_options.network, staging);
    const net::TransferPlan collected_plan =
        net::simulate_transfers(net_options.network, collection);
    result.transfer_mb = staged_plan.total_mb + collected_plan.total_mb;
    // Per-cluster staging delay / collection tail off the simulated plans.
    std::size_t si = 0, ci = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const Count k = result.repartition.dags_per_cluster[c];
      if (k <= 0) continue;
      for (Count s = 0; s < k; ++s) {
        if (net_options.stage_mb_per_scenario > 0.0)
          result.staging_seconds[c] = std::max(
              result.staging_seconds[c], staged_plan.results[si++].finish);
        if (net_options.collect_mb_per_scenario > 0.0)
          result.collection_seconds[c] =
              std::max(result.collection_seconds[c],
                       collected_plan.results[ci++].finish -
                           (result.staging_seconds[c] + compute[c]));
      }
      result.collection_seconds[c] = std::max(result.collection_seconds[c], 0.0);
    }
  }

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
