#include "sched/repartition.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>

#include "obs/obs.hpp"

namespace oagrid::sched {
namespace {

void validate_inputs(std::span<const PerformanceVector> performance,
                     Count scenarios) {
  OAGRID_REQUIRE(!performance.empty(), "need at least one cluster");
  OAGRID_REQUIRE(scenarios >= 1, "need at least one scenario");
  for (const auto& vec : performance)
    OAGRID_REQUIRE(static_cast<Count>(vec.size()) >= scenarios,
                   "performance vector shorter than the scenario count");
}

/// Makespan of a distribution with an optional per-cluster placement charge
/// folded in: max over clusters of performance[c][k-1] (+ charge(c, k)).
/// The single source of truth for both repartition_makespan and the charged
/// greedy's finalization tail.
Seconds charged_makespan(std::span<const PerformanceVector> performance,
                         std::span<const Count> dags_per_cluster,
                         const PlacementCharge* charge) {
  OAGRID_REQUIRE(performance.size() == dags_per_cluster.size(),
                 "cluster count mismatch");
  Seconds worst = 0.0;
  for (std::size_t c = 0; c < performance.size(); ++c) {
    const Count k = dags_per_cluster[c];
    if (k <= 0) continue;
    OAGRID_REQUIRE(static_cast<std::size_t>(k) <= performance[c].size(),
                   "distribution exceeds performance vector length");
    Seconds load = performance[c][static_cast<std::size_t>(k) - 1];
    if (charge != nullptr) load += (*charge)(c, k);
    worst = std::max(worst, load);
  }
  return worst;
}

/// One candidate placement: cluster `cluster` receiving its
/// (count_at_push + 1)-th scenario would drive its makespan to `value`.
struct HeapEntry {
  Seconds value;
  std::size_t cluster;
  Count count_at_push;
};

/// Min-heap order on (value, cluster id): the pop is the lowest candidate
/// makespan, ties to the lowest cluster id — exactly the first-argmin a
/// strict '<' scan in cluster order produces, so assignments match the
/// paper's pseudocode byte for byte.
struct HeapAfter {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
    if (a.value != b.value) return a.value > b.value;
    return a.cluster > b.cluster;
  }
};

using CandidateHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapAfter>;

/// Algorithm 1 driven by a lazy-deletion min-heap instead of a per-scenario
/// full-cluster scan: O(NS log C) pops instead of O(NS * C) comparisons.
/// `candidate(c, k)` is cluster c's makespan once it holds k scenarios. Only
/// the cluster that receives a scenario sees its candidate change, so each
/// placement invalidates exactly one entry — which is immediately replaced.
/// Entries carry the cluster's dag count at push time and any entry whose
/// count went stale is recomputed on pop (a charge may capture state, so
/// stale values are never trusted). Leaves the makespan to the caller;
/// `pops` receives the pop count.
template <typename Candidate>
Repartition run_heap(std::size_t clusters, Count scenarios,
                     Candidate&& candidate, std::uint64_t& pops) {
  Repartition result;
  result.dags_per_cluster.assign(clusters, 0);
  result.assignment.reserve(static_cast<std::size_t>(scenarios));

  const auto entry_for = [&](std::size_t c) {
    const Count held = result.dags_per_cluster[c];
    return HeapEntry{candidate(c, held + 1), c, held};
  };

  CandidateHeap heap;
  for (std::size_t c = 0; c < clusters; ++c) heap.push(entry_for(c));

  pops = 0;
  for (Count dag = 0; dag < scenarios; ++dag) {
    HeapEntry top = heap.top();
    heap.pop();
    ++pops;
    while (top.count_at_push != result.dags_per_cluster[top.cluster]) {
      heap.push(entry_for(top.cluster));  // lazy deletion: refresh + retry
      top = heap.top();
      heap.pop();
      ++pops;
    }
    ++result.dags_per_cluster[top.cluster];
    result.assignment.push_back(static_cast<ClusterId>(top.cluster));
    // The assigned cluster's candidate is the only one that moved; its next
    // entry stays in bounds because counts never exceed the vector length
    // while scenarios remain.
    if (dag + 1 < scenarios) heap.push(entry_for(top.cluster));
  }
  return result;
}

void record_pops(std::uint64_t pops) {
  if (obs::enabled())
    obs::metrics().counter("sched.repartition.heap_pops").add(pops);
}

/// Candidate value of entry k (1-based) of a vector that holds it: the
/// entry plus the optional placement charge.
Seconds known_candidate(std::span<const PerformanceVector> performance,
                        const PlacementCharge* charge, std::size_t c,
                        Count k) {
  Seconds value = performance[c][static_cast<std::size_t>(k) - 1];
  if (charge != nullptr) value += (*charge)(c, k);
  return value;
}

Repartition heap_repartition(std::span<const PerformanceVector> performance,
                             Count scenarios, const PlacementCharge* charge) {
  validate_inputs(performance, scenarios);
  std::uint64_t pops = 0;
  Repartition result = run_heap(
      performance.size(), scenarios,
      [&](std::size_t c, Count k) {
        return known_candidate(performance, charge, c, k);
      },
      pops);
  record_pops(pops);
  result.makespan =
      charged_makespan(performance, result.dags_per_cluster, charge);
  return result;
}

/// Prefix lengths Algorithm 1 is expected to need, min(share + 1, NS) per
/// cluster: the heap replayed over the known entries, each missing entry
/// extrapolated from the cluster's last known candidate in proportion to k
/// (once a cluster is saturated its makespan grows about linearly in the
/// scenario count). A batching guess only — it never takes part in a
/// decision. Before every cluster has an entry it asks for entry 1 of each.
std::vector<std::size_t> forecast_prefixes(
    std::span<const PerformanceVector> performance, Count scenarios,
    const PlacementCharge* charge) {
  const std::size_t n = performance.size();
  std::vector<std::size_t> want(n, 1);
  for (const PerformanceVector& prefix : performance)
    if (prefix.empty()) return want;
  std::vector<Seconds> last(n);
  for (std::size_t c = 0; c < n; ++c)
    last[c] = known_candidate(performance, charge, c,
                              static_cast<Count>(performance[c].size()));
  std::uint64_t pops = 0;
  const Repartition guess = run_heap(
      n, scenarios,
      [&](std::size_t c, Count k) {
        const auto known = static_cast<Count>(performance[c].size());
        if (k <= known) return known_candidate(performance, charge, c, k);
        return last[c] * (static_cast<double>(k) / static_cast<double>(known));
      },
      pops);
  for (std::size_t c = 0; c < n; ++c)
    want[c] = static_cast<std::size_t>(
        std::min(guess.dags_per_cluster[c] + 1, scenarios));
  return want;
}

/// Calls `extend` for `want` (never shrinking a prefix) and checks it
/// delivered.
void grow(std::vector<PerformanceVector>& performance,
          std::vector<std::size_t> want, const PrefixExtender& extend) {
  bool short_prefix = false;
  for (std::size_t c = 0; c < performance.size(); ++c) {
    want[c] = std::max(want[c], performance[c].size());
    short_prefix = short_prefix || performance[c].size() < want[c];
  }
  if (!short_prefix) return;
  extend(performance, want);
  for (std::size_t c = 0; c < performance.size(); ++c)
    OAGRID_REQUIRE(performance[c].size() >= want[c],
                   "prefix extender did not deliver the requested entries");
}

}  // namespace

Seconds repartition_makespan(std::span<const PerformanceVector> performance,
                             std::span<const Count> dags_per_cluster) {
  return charged_makespan(performance, dags_per_cluster, nullptr);
}

Repartition greedy_repartition(std::span<const PerformanceVector> performance,
                               Count scenarios) {
  return heap_repartition(performance, scenarios, nullptr);
}

Repartition greedy_repartition_charged(
    std::span<const PerformanceVector> performance, Count scenarios,
    const PlacementCharge& charge) {
  if (!charge) return greedy_repartition(performance, scenarios);
  return heap_repartition(performance, scenarios, &charge);
}

Repartition demand_repartition(std::vector<PerformanceVector>& performance,
                               Count scenarios, const PrefixExtender& extend,
                               const PlacementCharge& charge) {
  OAGRID_REQUIRE(!performance.empty(), "need at least one cluster");
  OAGRID_REQUIRE(scenarios >= 1, "need at least one scenario");
  OAGRID_REQUIRE(static_cast<bool>(extend), "need a prefix extender");
  const PlacementCharge* const charged = charge ? &charge : nullptr;
  const std::size_t n = performance.size();

  std::uint64_t pops = 0;
  Repartition result = run_heap(
      n, scenarios,
      [&](std::size_t c, Count k) {
        if (performance[c].size() < static_cast<std::size_t>(k)) {
          std::vector<std::size_t> want =
              forecast_prefixes(performance, scenarios, charged);
          want[c] = std::max(want[c], static_cast<std::size_t>(k));
          grow(performance, std::move(want), extend);
        }
        return known_candidate(performance, charged, c, k);
      },
      pops);
  record_pops(pops);

  // The result contract: entries 1..min(share + 1, NS), whatever the forecast
  // batched. The cluster that took the last scenario may still lack its
  // lookahead entry; entries forecast past the need are dropped.
  std::vector<std::size_t> want(n);
  for (std::size_t c = 0; c < n; ++c)
    want[c] = static_cast<std::size_t>(
        std::min(result.dags_per_cluster[c] + 1, scenarios));
  grow(performance, want, extend);
  for (std::size_t c = 0; c < n; ++c) performance[c].resize(want[c]);

  result.makespan =
      charged_makespan(performance, result.dags_per_cluster, charged);
  return result;
}

namespace {

void enumerate(std::span<const PerformanceVector> performance,
               std::size_t cluster, Count remaining, std::vector<Count>& counts,
               Repartition& best) {
  if (cluster + 1 == performance.size()) {
    counts[cluster] = remaining;
    const Seconds ms = repartition_makespan(performance, counts);
    if (ms < best.makespan) {
      best.makespan = ms;
      best.dags_per_cluster = counts;
    }
    counts[cluster] = 0;
    return;
  }
  for (Count take = 0; take <= remaining; ++take) {
    counts[cluster] = take;
    enumerate(performance, cluster + 1, remaining - take, counts, best);
  }
  counts[cluster] = 0;
}

}  // namespace

Repartition brute_force_repartition(
    std::span<const PerformanceVector> performance, Count scenarios) {
  validate_inputs(performance, scenarios);
  Repartition best;
  best.makespan = std::numeric_limits<Seconds>::infinity();
  std::vector<Count> counts(performance.size(), 0);
  enumerate(performance, 0, scenarios, counts, best);
  // Synthesize an assignment consistent with the counts (cluster by cluster).
  best.assignment.clear();
  for (std::size_t c = 0; c < best.dags_per_cluster.size(); ++c)
    for (Count k = 0; k < best.dags_per_cluster[c]; ++k)
      best.assignment.push_back(static_cast<ClusterId>(c));
  return best;
}

bool is_locally_optimal(std::span<const PerformanceVector> performance,
                        const Repartition& repartition) {
  OAGRID_REQUIRE(performance.size() == repartition.dags_per_cluster.size(),
                 "cluster count mismatch");
  const Count total = repartition.total_dags();
  for (std::size_t c = 0; c < performance.size(); ++c)
    OAGRID_REQUIRE(
        static_cast<Count>(performance[c].size()) >=
            std::min(repartition.dags_per_cluster[c] + 1, total),
        "performance vector too short to check every single-scenario move");
  const Seconds base = repartition_makespan(performance,
                                            repartition.dags_per_cluster);
  std::vector<Count> counts = repartition.dags_per_cluster;
  for (std::size_t from = 0; from < counts.size(); ++from) {
    if (counts[from] == 0) continue;
    for (std::size_t to = 0; to < counts.size(); ++to) {
      if (to == from) continue;
      --counts[from];
      ++counts[to];
      const Seconds moved = repartition_makespan(performance, counts);
      ++counts[from];
      --counts[to];
      if (moved < base - 1e-9) return false;
    }
  }
  return true;
}

}  // namespace oagrid::sched
