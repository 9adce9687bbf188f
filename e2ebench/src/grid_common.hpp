#pragma once
/// \file grid_common.hpp
/// \brief Pieces both grid workloads share: the seed-jittered built-in grid,
/// the traced performance-vector call and the DES counters read around it.

#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "platform/profiles.hpp"
#include "sched/heuristics.hpp"
#include "sim/eval_cache.hpp"
#include "sim/perf_vector.hpp"

namespace e2e {

/// The first `clusters` built-in clusters, each with a processor count drawn
/// from [lo, hi] and every time scaled by a factor drawn from [0.98, 1.02].
/// Appends a canonical description of what was drawn to `description`.
inline oagrid::platform::Grid jittered_grid(int clusters, oagrid::ProcCount lo,
                                            oagrid::ProcCount hi,
                                            oagrid::Rng& rng,
                                            std::string& description) {
  std::vector<oagrid::platform::Cluster> list;
  for (int c = 0; c < clusters; ++c) {
    const auto procs =
        static_cast<oagrid::ProcCount>(rng.uniform_int(lo, hi));
    const double factor = rng.uniform(0.98, 1.02);
    list.push_back(
        oagrid::platform::make_builtin_cluster(c, procs).scaled(factor));
    description += "cluster " + std::to_string(c) + " procs " +
                   std::to_string(procs) + " scale " + exact(factor) + "\n";
  }
  return oagrid::platform::Grid(std::move(list));
}

/// Spins up the process-wide worker pool. Called once per process: the pool
/// is created on first use and lives until exit, so repeating the call in a
/// set-up would time only the wake-up of idle workers, which on a virtual
/// machine follows host contention (it moved the set-up median by 79%
/// between two sets of runs) rather than anything the program does.
inline void warm_pool() {
  oagrid::shared_pool().parallel_for(0, nproc(), [](std::size_t) {});
}

/// CPU and wall seconds spent inside performance-vector calls.
struct DesLedger {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Figure 9 step 2 for one cluster, traced: the knapsack family the vector's
/// groupings come from (probed on the same inputs, span knapsack.family),
/// then the vector itself (span sim.perf_vector). The probe repeats work the
/// vector does inside, so it counts toward the traced run's overhead.
inline oagrid::sched::PerformanceVector traced_perf_vector(
    Tracer& tracer, DesLedger& ledger, const oagrid::platform::Cluster& cluster,
    oagrid::Count scenarios, oagrid::Count months,
    oagrid::sched::Heuristic heuristic) {
  if (heuristic == oagrid::sched::Heuristic::kKnapsack) {
    const auto probe = tracer.scope("knapsack.family");
    (void)oagrid::sched::knapsack_grouping_family(cluster,
                                                  {scenarios, months});
  }
  const auto span = tracer.scope("sim.perf_vector");
  const double cpu0 = cpu_s();
  const double wall0 = wall_s();
  oagrid::sched::PerformanceVector vector =
      oagrid::sim::performance_vector(cluster, scenarios, months, heuristic);
  ledger.wall_s += wall_s() - wall0;
  ledger.cpu_s += cpu_s() - cpu0;
  return vector;
}

/// DES events the library has counted so far (obs must be enabled).
inline std::uint64_t des_events() {
  return oagrid::obs::metrics().counter("sim.events").value();
}

/// Hit ratio of the eval-cache traffic between two stats snapshots.
inline double hit_ratio(const oagrid::sim::EvalCacheStats& before,
                        const oagrid::sim::EvalCacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace e2e
