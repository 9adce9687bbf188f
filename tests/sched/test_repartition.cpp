#include "sched/repartition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace oagrid::sched {
namespace {

/// Linear performance vectors: cluster c runs k scenarios in k * unit[c]
/// (what a cluster with perfect scaling and fixed per-scenario cost gives).
std::vector<PerformanceVector> linear_perf(std::vector<Seconds> units,
                                           Count ns) {
  std::vector<PerformanceVector> perf;
  for (const Seconds u : units) {
    PerformanceVector v;
    for (Count k = 1; k <= ns; ++k) v.push_back(u * static_cast<double>(k));
    perf.push_back(std::move(v));
  }
  return perf;
}

TEST(Repartition, ValidationErrors) {
  EXPECT_THROW((void)greedy_repartition({}, 3), std::invalid_argument);
  const auto perf = linear_perf({1.0}, 2);
  EXPECT_THROW((void)greedy_repartition(perf, 0), std::invalid_argument);
  EXPECT_THROW((void)greedy_repartition(perf, 5), std::invalid_argument);
}

TEST(Repartition, SingleClusterTakesEverything) {
  const auto perf = linear_perf({10.0}, 4);
  const Repartition r = greedy_repartition(perf, 4);
  EXPECT_EQ(r.dags_per_cluster, std::vector<Count>{4});
  EXPECT_DOUBLE_EQ(r.makespan, 40.0);
  EXPECT_EQ(r.assignment.size(), 4u);
}

TEST(Repartition, EqualClustersSplitEvenly) {
  const auto perf = linear_perf({10.0, 10.0}, 6);
  const Repartition r = greedy_repartition(perf, 6);
  EXPECT_EQ(r.dags_per_cluster, (std::vector<Count>{3, 3}));
  EXPECT_DOUBLE_EQ(r.makespan, 30.0);
}

TEST(Repartition, FasterClusterGetsMoreDags) {
  // Paper §7: "The faster, the more DAGs it has to execute."
  const auto perf = linear_perf({10.0, 20.0}, 6);
  const Repartition r = greedy_repartition(perf, 6);
  EXPECT_GT(r.dags_per_cluster[0], r.dags_per_cluster[1]);
  EXPECT_EQ(r.total_dags(), 6);
}

TEST(Repartition, TiesGoToLowestClusterId) {
  const auto perf = linear_perf({10.0, 10.0}, 1);
  const Repartition r = greedy_repartition(perf, 1);
  EXPECT_EQ(r.dags_per_cluster, (std::vector<Count>{1, 0}));
  EXPECT_EQ(r.assignment, std::vector<ClusterId>{0});
}

TEST(Repartition, MakespanHelperIgnoresEmptyClusters) {
  const auto perf = linear_perf({10.0, 99.0}, 3);
  const std::vector<Count> dist{3, 0};
  EXPECT_DOUBLE_EQ(repartition_makespan(perf, dist), 30.0);
}

TEST(Repartition, MakespanHelperValidates) {
  const auto perf = linear_perf({10.0}, 2);
  const std::vector<Count> too_many{5};
  EXPECT_THROW((void)repartition_makespan(perf, too_many),
               std::invalid_argument);
  const std::vector<Count> wrong_width{1, 1};
  EXPECT_THROW((void)repartition_makespan(perf, wrong_width),
               std::invalid_argument);
}

TEST(Repartition, GreedyOptimalOnLinearVectors) {
  // With monotone "linear" vectors the greedy matches the brute force.
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Seconds> units;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int c = 0; c < n; ++c) units.push_back(rng.uniform(1.0, 30.0));
    const Count ns = rng.uniform_int(1, 8);
    const auto perf = linear_perf(units, ns);
    const Repartition greedy = greedy_repartition(perf, ns);
    const Repartition best = brute_force_repartition(perf, ns);
    EXPECT_NEAR(greedy.makespan, best.makespan, 1e-9) << "trial " << trial;
  }
}

TEST(Repartition, GreedyLocallyOptimalOnMonotoneVectors) {
  // The paper's claim: once placed, moving one scenario cannot help. Verify
  // on random *monotone* vectors (the shape real simulations produce).
  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    const Count ns = rng.uniform_int(2, 8);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(1.0, 20.0);  // strictly increasing
      }
    }
    const Repartition greedy = greedy_repartition(perf, ns);
    EXPECT_TRUE(is_locally_optimal(perf, greedy)) << "trial " << trial;
  }
}

TEST(Repartition, GreedyGloballyOptimalOnRandomMonotoneVectors) {
  // Stronger than the paper's local-optimality claim: with non-decreasing
  // performance vectors (the shape real simulations produce) the greedy is
  // globally optimal — a threshold/exchange argument shows any distribution
  // below the greedy's makespan would need more capacity than exists.
  Rng rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    const Count ns = rng.uniform_int(2, 7);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(0.0, 20.0);  // non-decreasing
      }
    }
    const Repartition greedy = greedy_repartition(perf, ns);
    const Repartition best = brute_force_repartition(perf, ns);
    EXPECT_NEAR(greedy.makespan, best.makespan, 1e-9) << "trial " << trial;
  }
}

TEST(Repartition, GreedyCanMissOptimumOnNonMonotoneVectors) {
  // The optimality argument needs monotone vectors. A (pathological)
  // decreasing vector defeats the greedy: cluster 0 runs two scenarios
  // faster than one (imagine a grouping that only clicks at k = 2).
  std::vector<PerformanceVector> perf{
      {10.0, 5.0},  // cluster 0 — non-monotone
      {6.0, 100.0}, // cluster 1
  };
  const Repartition greedy = greedy_repartition(perf, 2);
  const Repartition best = brute_force_repartition(perf, 2);
  EXPECT_DOUBLE_EQ(greedy.makespan, 10.0);  // d1 -> c1 (6), d2 -> c0 (10)
  EXPECT_DOUBLE_EQ(best.makespan, 5.0);     // both on c0
  EXPECT_LT(best.makespan, greedy.makespan);
}

TEST(ChargedRepartition, NullChargeIsBitIdentical) {
  const auto perf = linear_perf({10.0, 13.0, 17.0}, 7);
  const Repartition plain = greedy_repartition(perf, 7);
  const Repartition charged = greedy_repartition_charged(perf, 7, nullptr);
  EXPECT_EQ(charged.dags_per_cluster, plain.dags_per_cluster);
  EXPECT_EQ(charged.assignment, plain.assignment);
  EXPECT_EQ(charged.makespan, plain.makespan);  // exact, not NEAR
}

TEST(ChargedRepartition, ZeroChargeIsBitIdentical) {
  // 0.0 + x == x in IEEE arithmetic, so even tie-breaks are preserved.
  const auto perf = linear_perf({10.0, 10.0, 25.0}, 6);
  const Repartition plain = greedy_repartition(perf, 6);
  const Repartition charged = greedy_repartition_charged(
      perf, 6, [](std::size_t, Count) { return 0.0; });
  EXPECT_EQ(charged.dags_per_cluster, plain.dags_per_cluster);
  EXPECT_EQ(charged.assignment, plain.assignment);
  EXPECT_EQ(charged.makespan, plain.makespan);
}

TEST(ChargedRepartition, ChargeSteersPlacementAwayFromExpensiveCluster) {
  // Two equal clusters; without charges the scenarios split evenly. Make
  // placing anything on cluster 1 cost more than the whole campaign and the
  // greedy keeps everything at cluster 0.
  const auto perf = linear_perf({10.0, 10.0}, 4);
  const Repartition plain = greedy_repartition(perf, 4);
  EXPECT_EQ(plain.dags_per_cluster, (std::vector<Count>{2, 2}));

  const Repartition charged = greedy_repartition_charged(
      perf, 4, [](std::size_t cluster, Count k) {
        return cluster == 1 ? 1000.0 * static_cast<double>(k) : 0.0;
      });
  EXPECT_EQ(charged.dags_per_cluster, (std::vector<Count>{4, 0}));
  EXPECT_DOUBLE_EQ(charged.makespan, 40.0);
}

TEST(ChargedRepartition, MakespanIncludesTheCharge) {
  const auto perf = linear_perf({10.0}, 3);
  const Repartition charged = greedy_repartition_charged(
      perf, 3, [](std::size_t, Count k) { return 5.0 * static_cast<double>(k); });
  EXPECT_EQ(charged.dags_per_cluster, std::vector<Count>{3});
  EXPECT_DOUBLE_EQ(charged.makespan, 30.0 + 15.0);
}

TEST(ChargedRepartition, ModerateChargeShiftsTheSplit) {
  // A per-file shipping cost on the remote cluster shifts load toward the
  // home cluster without emptying the remote one — the break-even behavior
  // the network-aware scheduler relies on.
  const auto perf = linear_perf({10.0, 10.0}, 8);
  const Repartition charged = greedy_repartition_charged(
      perf, 8, [](std::size_t cluster, Count k) {
        return cluster == 1 ? 8.0 * static_cast<double>(k) : 0.0;
      });
  EXPECT_EQ(charged.total_dags(), 8);
  EXPECT_GT(charged.dags_per_cluster[0], charged.dags_per_cluster[1]);
  EXPECT_GT(charged.dags_per_cluster[1], 0);
}

/// The pre-heap Algorithm 1: a full-cluster strict-'<' scan per scenario.
/// Kept as the reference oracle for the heap implementation's byte-for-byte
/// equivalence claim.
Repartition reference_scan_repartition(
    std::span<const PerformanceVector> performance, Count scenarios,
    const PlacementCharge& charge) {
  Repartition result;
  result.dags_per_cluster.assign(performance.size(), 0);
  for (Count dag = 0; dag < scenarios; ++dag) {
    Seconds best = std::numeric_limits<Seconds>::infinity();
    std::size_t best_cluster = 0;
    for (std::size_t c = 0; c < performance.size(); ++c) {
      const auto next = static_cast<std::size_t>(result.dags_per_cluster[c]);
      Seconds candidate = performance[c][next];
      if (charge) candidate += charge(c, static_cast<Count>(next) + 1);
      if (candidate < best) {
        best = candidate;
        best_cluster = c;
      }
    }
    ++result.dags_per_cluster[best_cluster];
    result.assignment.push_back(static_cast<ClusterId>(best_cluster));
  }
  for (std::size_t c = 0; c < performance.size(); ++c) {
    const Count k = result.dags_per_cluster[c];
    if (k > 0) {
      Seconds load = performance[c][static_cast<std::size_t>(k) - 1];
      if (charge) load += charge(c, k);
      result.makespan = std::max(result.makespan, load);
    }
  }
  return result;
}

TEST(Repartition, HeapMatchesReferenceScanOnRandomVectors) {
  // The heap rewrite must reproduce the scan's assignments byte for byte on
  // arbitrary monotone vectors — same dag order, same cluster ids, same
  // makespan (EXPECT_EQ, not NEAR).
  Rng rng(0x48454150);  // "HEAP"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const Count ns = rng.uniform_int(1, 20);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(0.0, 20.0);  // non-decreasing
      }
    }
    const Repartition heap = greedy_repartition(perf, ns);
    const Repartition ref = reference_scan_repartition(perf, ns, nullptr);
    EXPECT_EQ(heap.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(heap.dags_per_cluster, ref.dags_per_cluster) << "trial " << trial;
    EXPECT_EQ(heap.makespan, ref.makespan) << "trial " << trial;
  }
}

TEST(Repartition, HeapMatchesReferenceScanUnderExactTies) {
  // Values drawn from a tiny discrete set force frequent exact double ties;
  // the heap's (value, cluster id) order must still pick the same first
  // argmin the scan does.
  Rng rng(0x54494553);  // "TIES"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const Count ns = rng.uniform_int(2, 16);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = static_cast<double>(rng.uniform_int(1, 3));
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += static_cast<double>(rng.uniform_int(0, 2));  // many plateaus
      }
    }
    const Repartition heap = greedy_repartition(perf, ns);
    const Repartition ref = reference_scan_repartition(perf, ns, nullptr);
    EXPECT_EQ(heap.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(heap.makespan, ref.makespan) << "trial " << trial;
  }
}

TEST(ChargedRepartition, HeapMatchesReferenceScanWithCharges) {
  Rng rng(0x43484752);  // "CHGR"
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const Count ns = rng.uniform_int(2, 16);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = rng.uniform(5.0, 50.0);
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += rng.uniform(0.0, 20.0);
      }
    }
    const double rate = rng.uniform(0.0, 10.0);
    const PlacementCharge charge = [rate](std::size_t cluster, Count k) {
      return rate * static_cast<double>(cluster) * static_cast<double>(k);
    };
    const Repartition heap = greedy_repartition_charged(perf, ns, charge);
    const Repartition ref = reference_scan_repartition(perf, ns, charge);
    EXPECT_EQ(heap.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(heap.dags_per_cluster, ref.dags_per_cluster) << "trial " << trial;
    EXPECT_EQ(heap.makespan, ref.makespan) << "trial " << trial;
  }
}

TEST(Repartition, BruteForceAssignmentConsistent) {
  const auto perf = linear_perf({10.0, 15.0}, 5);
  const Repartition best = brute_force_repartition(perf, 5);
  EXPECT_EQ(best.assignment.size(), 5u);
  std::vector<Count> counted(2, 0);
  for (const ClusterId c : best.assignment)
    ++counted[static_cast<std::size_t>(c)];
  EXPECT_EQ(counted, best.dags_per_cluster);
}

// --- demand-driven Algorithm 1 ---------------------------------------------

/// An extender serving prefixes out of full vectors, rounded up to whole
/// chunks of `chunk` entries (clipped to the vector); adds the number of
/// entries it served to *served.
PrefixExtender serve_from(const std::vector<PerformanceVector>& full,
                          std::size_t chunk, std::size_t* served = nullptr) {
  return [&full, chunk, served](std::vector<PerformanceVector>& performance,
                                std::span<const std::size_t> want) {
    for (std::size_t c = 0; c < performance.size(); ++c) {
      const std::size_t have = performance[c].size();
      if (have >= want[c]) continue;
      const std::size_t chunks = (want[c] - have + chunk - 1) / chunk;
      const std::size_t target =
          std::min(have + chunks * chunk, full[c].size());
      performance[c].insert(performance[c].end(),
                            full[c].begin() + static_cast<long>(have),
                            full[c].begin() + static_cast<long>(target));
      if (served != nullptr) *served += target - have;
    }
  };
}

/// demand_repartition from empty prefixes must reproduce the charged greedy
/// over the full vectors bit for bit and leave exactly entries
/// 1..min(share + 1, NS) of each vector behind.
void expect_demand_matches_full(const std::vector<PerformanceVector>& full,
                                Count ns, const PlacementCharge& charge,
                                std::size_t chunk, const std::string& label) {
  std::vector<PerformanceVector> prefixes(full.size());
  const Repartition lazy =
      demand_repartition(prefixes, ns, serve_from(full, chunk), charge);
  const Repartition ref = greedy_repartition_charged(full, ns, charge);
  EXPECT_EQ(lazy.assignment, ref.assignment) << label;
  EXPECT_EQ(lazy.dags_per_cluster, ref.dags_per_cluster) << label;
  EXPECT_EQ(lazy.makespan, ref.makespan) << label;
  for (std::size_t c = 0; c < full.size(); ++c) {
    const auto length =
        static_cast<std::size_t>(std::min(ref.dags_per_cluster[c] + 1, ns));
    const PerformanceVector expected(
        full[c].begin(), full[c].begin() + static_cast<long>(length));
    EXPECT_EQ(prefixes[c], expected) << label << " cluster " << c;
  }
  EXPECT_EQ(is_locally_optimal(prefixes, lazy), is_locally_optimal(full, ref))
      << label;
}

/// Random vectors: non-decreasing steps drawn from [lo, hi) (negative lo
/// allows non-monotone vectors), starting in [5, 50).
std::vector<PerformanceVector> random_vectors(Rng& rng, int clusters, Count ns,
                                              double lo, double hi) {
  std::vector<PerformanceVector> perf(static_cast<std::size_t>(clusters));
  for (auto& v : perf) {
    Seconds t = rng.uniform(5.0, 50.0);
    for (Count k = 0; k < ns; ++k) {
      v.push_back(t);
      t = std::max(1.0, t + rng.uniform(lo, hi));
    }
  }
  return perf;
}

TEST(DemandRepartition, MatchesFullVectorsOnRandomMonotoneVectors) {
  Rng rng(0x44454d44);  // "DEMD"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    const Count ns = rng.uniform_int(1, 40);
    const auto perf = random_vectors(rng, n, ns, 0.0, 20.0);
    for (const std::size_t chunk : {1u, 3u, 7u})
      expect_demand_matches_full(perf, ns, nullptr, chunk,
                                 "trial " + std::to_string(trial) + " chunk " +
                                     std::to_string(chunk));
  }
}

TEST(DemandRepartition, MatchesFullVectorsUnderExactTies) {
  // Plateaus of exactly equal doubles, within and across clusters: the lazy
  // heap must break every tie exactly as the full-vector heap does.
  Rng rng(0x54494532);  // "TIE2"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const Count ns = rng.uniform_int(2, 24);
    std::vector<PerformanceVector> perf(static_cast<std::size_t>(n));
    for (auto& v : perf) {
      Seconds t = static_cast<double>(rng.uniform_int(1, 3));
      for (Count k = 0; k < ns; ++k) {
        v.push_back(t);
        t += static_cast<double>(rng.uniform_int(0, 2));
      }
    }
    expect_demand_matches_full(perf, ns, nullptr, 1,
                               "trial " + std::to_string(trial));
  }
}

TEST(DemandRepartition, MatchesFullVectorsOnNonMonotoneVectors) {
  // The forecast assumes growth; vectors that dip must still come out
  // exact. The brute-force optimum is the oracle the greedy may miss here.
  Rng rng(0x4e4d4f4e);  // "NMON"
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 3));
    const Count ns = rng.uniform_int(1, 7);
    const auto perf = random_vectors(rng, n, ns, -30.0, 20.0);
    const std::string label = "trial " + std::to_string(trial);
    expect_demand_matches_full(perf, ns, nullptr, 1, label);
    std::vector<PerformanceVector> prefixes(perf.size());
    const Repartition lazy =
        demand_repartition(prefixes, ns, serve_from(perf, 2));
    EXPECT_LE(brute_force_repartition(perf, ns).makespan, lazy.makespan)
        << label;
  }
}

TEST(DemandRepartition, PrefixLengthDoesNotDependOnChunkSize) {
  // Extensions that land exactly on, one short of and one past a chunk
  // boundary: whatever the extender over-delivers is dropped again.
  const auto perf = linear_perf({10.0, 12.0, 15.0}, 24);
  std::vector<PerformanceVector> reference(perf.size());
  const Repartition ref =
      demand_repartition(reference, 24, serve_from(perf, 1));
  for (const std::size_t chunk : {2u, 4u, 5u, 6u, 8u, 9u, 24u, 100u}) {
    std::vector<PerformanceVector> prefixes(perf.size());
    const Repartition r =
        demand_repartition(prefixes, 24, serve_from(perf, chunk));
    EXPECT_EQ(r.assignment, ref.assignment) << "chunk " << chunk;
    EXPECT_EQ(prefixes, reference) << "chunk " << chunk;
  }
}

TEST(DemandRepartition, ClusterWithNoShareKeepsOneEntry) {
  const auto perf = linear_perf({10.0, 10.0, 1000.0}, 6);
  std::vector<PerformanceVector> prefixes(perf.size());
  const Repartition r = demand_repartition(prefixes, 6, serve_from(perf, 1));
  EXPECT_EQ(r.dags_per_cluster, (std::vector<Count>{3, 3, 0}));
  EXPECT_EQ(prefixes[2], PerformanceVector{1000.0});
  EXPECT_EQ(prefixes[0].size(), 4u);
  EXPECT_EQ(prefixes[1].size(), 4u);
}

TEST(DemandRepartition, SingleScenario) {
  const auto perf = linear_perf({10.0, 8.0, 9.0}, 1);
  std::vector<PerformanceVector> prefixes(perf.size());
  const Repartition r = demand_repartition(prefixes, 1, serve_from(perf, 1));
  EXPECT_EQ(r.assignment, std::vector<ClusterId>{1});
  EXPECT_EQ(r.makespan, 8.0);
  EXPECT_EQ(prefixes, perf);  // min(share + 1, 1) = 1 entry each
}

TEST(DemandRepartition, OneClusterTakesEveryScenario) {
  const auto perf = linear_perf({1.0, 500.0}, 9);
  std::vector<PerformanceVector> prefixes(perf.size());
  const Repartition r = demand_repartition(prefixes, 9, serve_from(perf, 1));
  EXPECT_EQ(r.dags_per_cluster, (std::vector<Count>{9, 0}));
  EXPECT_EQ(prefixes[0], perf[0]);  // all NS entries, never NS + 1
  EXPECT_EQ(prefixes[1], PerformanceVector{500.0});
  EXPECT_TRUE(is_locally_optimal(prefixes, r));
}

TEST(DemandRepartition, ChargedMatchesFullVectors) {
  // A charge that reads the growing prefix — as fault::make_failure_charge
  // does — plus a network-like one; the charge is never asked about an entry
  // the prefix does not hold yet.
  Rng rng(0x43484733);  // "CHG3"
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 6));
    const Count ns = rng.uniform_int(1, 30);
    const auto perf = random_vectors(rng, n, ns, 0.0, 20.0);
    const double rate = rng.uniform(0.0, 10.0);
    std::vector<PerformanceVector> prefixes(perf.size());
    const std::vector<PerformanceVector>* read = &perf;
    const PlacementCharge charge = [&read, rate](std::size_t c, Count k) {
      const PerformanceVector& v = (*read)[c];
      EXPECT_LE(static_cast<std::size_t>(k), v.size());
      return 0.1 * v[static_cast<std::size_t>(k) - 1] +
             rate * static_cast<double>(c) * static_cast<double>(k);
    };
    const Repartition ref = greedy_repartition_charged(perf, ns, charge);
    read = &prefixes;
    const Repartition lazy =
        demand_repartition(prefixes, ns, serve_from(perf, 1), charge);
    EXPECT_EQ(lazy.assignment, ref.assignment) << "trial " << trial;
    EXPECT_EQ(lazy.dags_per_cluster, ref.dags_per_cluster) << "trial " << trial;
    EXPECT_EQ(lazy.makespan, ref.makespan) << "trial " << trial;
    read = &perf;
    expect_demand_matches_full(perf, ns, charge, 3,
                               "chunked trial " + std::to_string(trial));
  }
}

TEST(DemandRepartition, StartsFromAnyPrefix) {
  // A prefix already longer than the need (even the full vector) is cut back
  // to the contract length; a partial one is extended.
  const auto perf = linear_perf({10.0, 11.0}, 10);
  std::vector<PerformanceVector> fresh(perf.size());
  const Repartition ref = demand_repartition(fresh, 10, serve_from(perf, 1));
  std::vector<PerformanceVector> whole = perf;
  std::vector<PerformanceVector> partial{{perf[0][0], perf[0][1]}, {}};
  EXPECT_EQ(demand_repartition(whole, 10, serve_from(perf, 1)).assignment,
            ref.assignment);
  EXPECT_EQ(demand_repartition(partial, 10, serve_from(perf, 1)).assignment,
            ref.assignment);
  EXPECT_EQ(whole, fresh);
  EXPECT_EQ(partial, fresh);
}

TEST(DemandRepartition, ServesFarFewerEntriesThanFullVectors) {
  // Five near-linear clusters (a saturated cluster's makespan grows about
  // linearly in k): the forecast keeps over-delivery to a few entries.
  const Count ns = 120;
  const auto perf = linear_perf({10.0, 10.5, 11.0, 12.0, 13.0}, ns);
  std::size_t served = 0;
  std::vector<PerformanceVector> prefixes(perf.size());
  const Repartition r =
      demand_repartition(prefixes, ns, serve_from(perf, 1, &served));
  std::size_t needed = 0;
  for (const PerformanceVector& v : prefixes) needed += v.size();
  EXPECT_EQ(needed, static_cast<std::size_t>(ns) + perf.size());
  EXPECT_LE(served, needed + perf.size());
  EXPECT_EQ(r.assignment, greedy_repartition(perf, ns).assignment);
}

TEST(DemandRepartition, ValidationErrors) {
  const auto perf = linear_perf({1.0, 2.0}, 3);
  std::vector<PerformanceVector> none;
  std::vector<PerformanceVector> prefixes(perf.size());
  EXPECT_THROW((void)demand_repartition(none, 3, serve_from(perf, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)demand_repartition(prefixes, 0, serve_from(perf, 1)),
               std::invalid_argument);
  EXPECT_THROW((void)demand_repartition(prefixes, 3, nullptr),
               std::invalid_argument);
  const PrefixExtender lazy_extender =
      [](std::vector<PerformanceVector>&, std::span<const std::size_t>) {};
  EXPECT_THROW((void)demand_repartition(prefixes, 3, lazy_extender),
               std::invalid_argument);
}

TEST(Repartition, LocalOptimalityRejectsTooShortVectors) {
  // A truncated vector would make every move into that cluster "impossible"
  // and the check vacuous: it must refuse instead.
  const auto perf = linear_perf({10.0, 10.0}, 6);
  const Repartition r = greedy_repartition(perf, 6);  // 3 + 3
  std::vector<PerformanceVector> cut = perf;
  cut[1].resize(3);  // holds the share but not the share + 1 lookahead
  EXPECT_THROW((void)is_locally_optimal(cut, r), std::invalid_argument);
  cut[1] = std::vector<Seconds>(perf[1].begin(), perf[1].begin() + 4);
  EXPECT_TRUE(is_locally_optimal(cut, r));
}

}  // namespace
}  // namespace oagrid::sched
