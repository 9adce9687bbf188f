#include "sim/perf_vector.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/eval_cache.hpp"

namespace oagrid::sim {

sched::PerformanceVector performance_vector(const platform::Cluster& cluster,
                                            Count max_scenarios, Count months,
                                            sched::Heuristic heuristic) {
  // The whole vector is one entry range: entries 1..NS, evaluated (cached,
  // in parallel) through the same routine as demand-driven prefixes.
  const VectorSource source(cluster, max_scenarios, months, heuristic);
  const EntryRange all{0, 1, max_scenarios};
  return std::move(evaluate_entries({&source, 1}, {&all, 1}).front());
}

VectorSource::VectorSource(const platform::Cluster& cluster, Count scenarios,
                           Count months, sched::Heuristic heuristic)
    : cluster_(&cluster),
      scenarios_(scenarios),
      months_(months),
      heuristic_(heuristic) {
  OAGRID_REQUIRE(scenarios >= 1, "need at least one scenario");
  // All NS knapsack groupings come out of one shared DP sweep instead of NS
  // independent solves (bit-identical schedules, see
  // sched::knapsack_grouping_family); only the DES evaluation stays per-k.
  if (heuristic == sched::Heuristic::kKnapsack)
    family_ = sched::knapsack_grouping_family(
        cluster, appmodel::Ensemble{scenarios, months});
}

Seconds VectorSource::entry(Count k) const {
  OAGRID_REQUIRE(k >= 1 && k <= scenarios_, "entry outside the vector");
  const appmodel::Ensemble ensemble{k, months_};
  // Cached: the service's DES estimator asks for the same entries per
  // request, so a warm cache turns repeated estimates into pure lookups.
  if (!family_.empty())
    return cached_makespan(*cluster_,
                           family_[static_cast<std::size_t>(k) - 1], ensemble);
  return cached_makespan(
      *cluster_, sched::make_schedule(heuristic_, *cluster_, ensemble),
      ensemble);
}

std::vector<sched::PerformanceVector> evaluate_entries(
    std::span<const VectorSource> sources, std::span<const EntryRange> ranges,
    std::size_t max_threads) {
  struct Item {
    std::size_t range;
    Count k;
  };
  std::vector<sched::PerformanceVector> out(ranges.size());
  std::vector<Item> items;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    const EntryRange& range = ranges[r];
    OAGRID_REQUIRE(range.source < sources.size(), "entry range has no source");
    OAGRID_REQUIRE(range.first >= 1 &&
                       range.last <= sources[range.source].scenarios(),
                   "entry range outside the vector");
    if (range.last < range.first) continue;
    out[r].resize(static_cast<std::size_t>(range.last - range.first + 1));
    for (Count k = range.first; k <= range.last; ++k) items.push_back({r, k});
  }
  // A DES run's cost grows with k: dispatching the largest k first keeps the
  // longest runs off the region's tail. The entries are independent, so the
  // order changes no value.
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.k > b.k; });
  shared_pool().parallel_for(
      0, items.size(),
      [&](std::size_t i) {
        const Item& item = items[i];
        const EntryRange& range = ranges[item.range];
        out[item.range][static_cast<std::size_t>(item.k - range.first)] =
            sources[range.source].entry(item.k);
      },
      max_threads);
  if (obs::enabled())
    obs::metrics().counter("sim.perf_vector.entries").add(items.size());
  return out;
}

}  // namespace oagrid::sim
