#pragma once
/// \file repartition.hpp
/// \brief Scenario repartition across heterogeneous clusters — the paper's
/// Algorithm 1 (§5) plus the oracle used to test its optimality claim.
///
/// Inputs are per-cluster *performance vectors*: performance[c][k-1] is the
/// makespan of running k scenarios on cluster c (computed by whichever
/// grouping heuristic is in force — step 2 of the Figure 9 protocol). The
/// algorithm itself is pure; computing the vectors lives in sim::.

#include <functional>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace oagrid::sched {

/// performance[k-1] = makespan of k scenarios on one cluster (k = 1..NS).
using PerformanceVector = std::vector<Seconds>;

/// A scenario-to-cluster distribution.
struct Repartition {
  std::vector<Count> dags_per_cluster;     ///< nbDags[c]
  std::vector<ClusterId> assignment;       ///< scenario s -> cluster
  Seconds makespan = 0.0;                  ///< max over clusters

  [[nodiscard]] Count total_dags() const noexcept {
    Count total = 0;
    for (const Count d : dags_per_cluster) total += d;
    return total;
  }
};

/// Overall makespan of a distribution: the slowest cluster's makespan.
[[nodiscard]] Seconds repartition_makespan(
    std::span<const PerformanceVector> performance,
    std::span<const Count> dags_per_cluster);

/// Algorithm 1: each scenario in turn goes to the cluster whose makespan
/// after receiving it is smallest (ties to the lowest cluster id, as the
/// paper's pseudocode does with its strict '<'). Requires every vector to
/// have at least `scenarios` entries.
[[nodiscard]] Repartition greedy_repartition(
    std::span<const PerformanceVector> performance, Count scenarios);

/// Extra completion time charged to a cluster for hosting k scenarios —
/// typically the cost of shipping k restart/input files to it and k result
/// archives back (priced by net::NetworkModel at the call site; this module
/// stays network-agnostic). Must be monotone in k for the greedy argument
/// to keep its local-optimality flavor.
using PlacementCharge = std::function<Seconds(std::size_t cluster, Count k)>;

/// Algorithm 1 with data movement folded into each candidate: scenario after
/// scenario goes to the cluster minimizing performance[c][k] + charge(c, k+1).
/// A null charge — or one that returns exactly 0.0 everywhere — reproduces
/// greedy_repartition bit for bit, ties included (0.0 + x == x in IEEE
/// arithmetic). The returned makespan includes the charges.
[[nodiscard]] Repartition greedy_repartition_charged(
    std::span<const PerformanceVector> performance, Count scenarios,
    const PlacementCharge& charge);

/// Grows performance-vector prefixes on demand: for every cluster c with
/// performance[c].size() < want[c], appends entries performance[c].size()+1
/// .. want[c] (want[c] never exceeds the scenario count). Appending more —
/// say, whole chunks — is allowed; entries past the need are dropped again.
/// The appended entries must be the full vector's, bit for bit: Algorithm 1
/// reads them as such. Short prefixes are requested together, so an
/// implementation can evaluate every new (cluster, k) entry as one parallel
/// batch.
using PrefixExtender = std::function<void(
    std::vector<PerformanceVector>& performance,
    std::span<const std::size_t> want)>;

/// Algorithm 1 pulling its performance vectors instead of consuming finished
/// ones (Figure 9 steps 2-4 as a pull). performance[c] starts as a prefix
/// (possibly empty) of cluster c's vector; whenever a candidate lies past it,
/// `extend` is asked for the missing entries, batched across clusters by a
/// forecast of the final shares. The assignment, tie-breaks and makespan are
/// bit for bit those of greedy_repartition_charged over the full vectors
/// (greedy_repartition with a null charge). `charge` may read `performance`
/// (fault::make_failure_charge does): it is only called on entries already
/// in the prefix. On return performance[c] holds exactly entries
/// 1..min(share_c + 1, scenarios) — what the heap read plus the one-move
/// lookahead is_locally_optimal needs — whatever the batching was.
[[nodiscard]] Repartition demand_repartition(
    std::vector<PerformanceVector>& performance, Count scenarios,
    const PrefixExtender& extend, const PlacementCharge& charge = nullptr);

/// Exhaustive optimum over all compositions of `scenarios` into
/// performance.size() parts. Exponential in cluster count — test/bench
/// oracle only (the paper argues n and NS are small, §5).
[[nodiscard]] Repartition brute_force_repartition(
    std::span<const PerformanceVector> performance, Count scenarios);

/// The paper's local-optimality claim: "if we map a scenario onto another
/// cluster, the total makespan cannot decrease". True when moving any single
/// scenario between clusters does not reduce the makespan. Requires every
/// performance[c] to hold at least min(share_c + 1, total shares) entries
/// (demand_repartition's prefixes do), so that no move is skipped for want
/// of an entry.
[[nodiscard]] bool is_locally_optimal(
    std::span<const PerformanceVector> performance,
    const Repartition& repartition);

}  // namespace oagrid::sched
