#pragma once
/// \file grid_sim.hpp
/// \brief Whole-grid execution: performance vectors, Algorithm-1
/// repartition, per-cluster simulation (§5-6 of the paper), optionally
/// priced over a network model (deployment staging in, result shipping out).

#include <span>
#include <vector>

#include "appmodel/ensemble.hpp"
#include "appmodel/volumes.hpp"
#include "fault/failure.hpp"
#include "net/network.hpp"
#include "platform/grid.hpp"
#include "sched/heuristics.hpp"
#include "sched/repartition.hpp"

namespace oagrid::sim {

/// Data-movement model for a grid campaign. The default (no network, zero
/// volumes) is the paper's §5 world where transfers are free: every result
/// is then bit-identical to the network-unaware path.
struct GridNetworkOptions {
  /// Link table covering the grid's clusters (cluster_count must match the
  /// grid when non-zero). Default-constructed (0 clusters) = no network.
  net::NetworkModel network;
  /// Cluster holding the campaign inputs and archive (the paper's "home"
  /// site that owns the restart files and collects diagnostics).
  ClusterId home = 0;
  /// MB staged home -> cluster per scenario before it can start (initial
  /// restart + forcing files).
  double stage_mb_per_scenario = 0.0;
  /// MB shipped cluster -> home per scenario after it finishes (compressed
  /// diagnostics + final restart).
  double collect_mb_per_scenario = 0.0;

  /// True when a network model is attached (even a free one: transfers are
  /// then simulated — and metered — but cost exactly 0.0 s).
  [[nodiscard]] bool active() const noexcept {
    return network.cluster_count() > 0;
  }

  /// When active: throws std::invalid_argument unless the network covers
  /// exactly `clusters` clusters, `home` is one of them and both volumes
  /// are >= 0. An inactive model always passes.
  void validate(int clusters) const;
};

/// Campaign-realistic volumes from the appmodel accounting: one restart
/// file staged in per scenario; NM months of compressed diagnostics plus
/// the final restart collected out.
[[nodiscard]] GridNetworkOptions campaign_network_options(
    net::NetworkModel network, const appmodel::Ensemble& ensemble,
    const appmodel::VolumeParams& volumes = {}, ClusterId home = 0);

/// Failure injection for a grid campaign. The default (0-cluster model) is
/// the paper's failure-free world: the repartition and every makespan are
/// then bit-identical to the fault-unaware path.
struct GridFaultOptions {
  /// Per-cluster availability description (cluster_count must match the
  /// grid when active). Default-constructed = no failures.
  fault::FailureModel model;
  fault::RecoveryPolicy recovery = fault::RecoveryPolicy::kRescheduleInCluster;
  /// Restart-file cadence used both by the rewind semantics and by the
  /// expected-makespan placement charge.
  MonthIndex checkpoint_months = 1;
  /// Also fold the expected failure inflation into Algorithm 1's candidate
  /// comparison (expected-makespan-under-failures placement charge), so
  /// unreliable clusters receive proportionally less work and dead ones
  /// receive none.
  bool charge_placement = true;

  [[nodiscard]] bool active() const noexcept { return model.active(); }
};

/// Algorithm 1's placement charge for a campaign, the one place where its
/// parts are summed: the serialized cost of staging k scenarios' inputs
/// from home and collecting their results back, each batch fair-shared over
/// one directed home link (latency + k * size / bw), when `net` is active;
/// plus the expected failure inflation (fault::make_failure_charge over
/// `performance`) when `faults` is active and charges placement. Null when
/// neither applies, so Algorithm 1 stays the paper's uncharged greedy; a
/// lone part is exact (0.0 + x == x). Keeps references to `net`, `faults`
/// and `performance`, which must outlive the charge; `performance` may grow
/// while the charge is in use, as demand_repartition's prefixes do.
[[nodiscard]] sched::PlacementCharge placement_charge(
    const GridNetworkOptions& net, const GridFaultOptions& faults,
    std::span<const sched::PerformanceVector> performance, Count months);

/// The data movement of one executed campaign.
struct CampaignTransfers {
  std::vector<Seconds> staging_seconds;     ///< per cluster, fair-shared
  std::vector<Seconds> collection_seconds;  ///< per cluster, fair-shared
  double transfer_mb = 0.0;                 ///< total bytes moved
  int deadline_misses = 0;  ///< transfers longer than the deadline
};

/// Executes the movement Algorithm 1 priced, under net::simulate_transfers'
/// per-link fair sharing: every scenario's inputs leave home at t = 0, and
/// cluster c's results ship home at its simulated staging finish plus
/// compute[c] (its last input landed, then its share ran). Clusters with a
/// share of 0 move nothing. Without a network every duration is 0 and
/// nothing is simulated; over a free one every duration is exactly 0.0.
/// `shares` and `compute` are per cluster and of equal length.
[[nodiscard]] CampaignTransfers simulate_campaign_transfers(
    const GridNetworkOptions& net, std::span<const Count> shares,
    std::span<const Seconds> compute,
    Seconds transfer_deadline = kInfiniteTime);

struct GridSimResult {
  /// One prefix per cluster: exactly entries 1..min(share + 1, NS) of its
  /// performance vector — what Algorithm 1 read plus the lookahead
  /// sched::is_locally_optimal needs.
  std::vector<sched::PerformanceVector> performance;
  sched::Repartition repartition;
  std::vector<Seconds> cluster_makespans;  ///< 0 for clusters given no work
  Seconds makespan = 0.0;

  /// Data movement (all 0 without a network — and over a free network the
  /// durations are exactly 0.0, so `makespan` matches the netless run bit
  /// for bit).
  std::vector<Seconds> staging_seconds;     ///< per cluster, fair-shared
  std::vector<Seconds> collection_seconds;  ///< per cluster, fair-shared
  double transfer_mb = 0.0;                 ///< total bytes moved

  /// Aggregated lost-work accounting over the per-cluster failure-injected
  /// DES runs; all zeros when GridFaultOptions is inactive.
  fault::FaultStats fault;
};

/// Full §5 flow in-process: (2) each cluster computes the performance-vector
/// entries under `heuristic` that (4) Algorithm 1 pulls while it distributes
/// the scenarios (sched::demand_repartition: the decisions of the full
/// vectors, bit for bit) — charging each candidate cluster the serialized
/// cost of staging/collecting its files when a network is attached, (6) each
/// cluster's makespan is its staging delay + vector entry + collection time;
/// the grid makespan is the max. Every batch of new entries, and the set of
/// failure-injected runs, is one shared_pool() region of at most `threads`
/// threads (0 = all cores, 1 = inline on the caller).
///
/// With active `fault_options`, Algorithm 1 additionally charges each
/// candidate its expected failure inflation, and every cluster with a live
/// failure process replaces its performance-vector entry by a full
/// failure-injected DES run (outages, kills, k-month rewinds, the chosen
/// recovery policy; migration staging priced over the network when one is
/// attached). Deterministic in the model seed at any thread count.
[[nodiscard]] GridSimResult simulate_grid(
    const platform::Grid& grid, const appmodel::Ensemble& ensemble,
    sched::Heuristic heuristic, std::size_t threads = 1,
    const GridNetworkOptions& net_options = {},
    const GridFaultOptions& fault_options = {});

}  // namespace oagrid::sim
