#pragma once
/// \file perf_vector.hpp
/// \brief Step 2 of the Figure 9 protocol: each cluster computes "a vector
/// containing the time needed to execute from 1 to NS simulations" — in
/// full, or entry by entry as Algorithm 1 pulls them.

#include <span>
#include <vector>

#include "appmodel/ensemble.hpp"
#include "platform/cluster.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"

namespace oagrid::sim {

/// performance[k-1] = simulated makespan of k scenarios x `months` months on
/// `cluster` under `heuristic`, for k = 1..max_scenarios: evaluate_entries
/// over the single range 1..max_scenarios of one VectorSource.
[[nodiscard]] sched::PerformanceVector performance_vector(
    const platform::Cluster& cluster, Count max_scenarios, Count months,
    sched::Heuristic heuristic);

/// One cluster's performance vector as a source of single entries.
/// Construction makes the groupings (under knapsack, the whole family for
/// k = 1..scenarios from one DP sweep); each entry is then one cached DES
/// run, bit-identical to performance_vector's. Keeps a reference to
/// `cluster`, which must outlive the source.
class VectorSource {
 public:
  VectorSource(const platform::Cluster& cluster, Count scenarios, Count months,
               sched::Heuristic heuristic);

  [[nodiscard]] Count scenarios() const noexcept { return scenarios_; }

  /// performance_vector(cluster, scenarios, months, heuristic)[k-1], for
  /// 1 <= k <= scenarios().
  [[nodiscard]] Seconds entry(Count k) const;

 private:
  const platform::Cluster* cluster_;
  Count scenarios_;
  Count months_;
  sched::Heuristic heuristic_;
  std::vector<sched::GroupSchedule> family_;  ///< knapsack only
};

/// Entries first..last (1-based, inclusive) of sources[source]'s vector.
struct EntryRange {
  std::size_t source = 0;
  Count first = 1;
  Count last = 0;
};

/// Evaluates every range as one shared_pool() region, dispatching the
/// largest k (the longest DES run) first; out[i] holds ranges[i]'s entries
/// in order. `max_threads` as in ThreadPool::parallel_for (0 = all). Counts
/// the entries in `sim.perf_vector.entries`.
[[nodiscard]] std::vector<sched::PerformanceVector> evaluate_entries(
    std::span<const VectorSource> sources, std::span<const EntryRange> ranges,
    std::size_t max_threads = 0);

}  // namespace oagrid::sim
