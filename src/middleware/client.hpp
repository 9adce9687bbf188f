#pragma once
/// \file client.hpp
/// \brief The campaign client: drives the full six-step protocol of the
/// paper's Figure 9 against a MasterAgent.

#include <chrono>

#include "appmodel/ensemble.hpp"
#include "middleware/deployment.hpp"
#include "sched/repartition.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::middleware {

/// Outcome of one campaign submission.
struct CampaignResult {
  std::vector<sched::PerformanceVector> performance;  ///< per cluster (step 3)
  sched::Repartition repartition;                     ///< step 4
  std::vector<ExecuteResponse> executions;            ///< step 6 reports
  Seconds makespan = 0.0;  ///< max over executed clusters
};

class Client {
 public:
  /// Works against any deployment shape — flat MasterAgent or a
  /// HierarchicalAgent tree; the protocol is identical.
  explicit Client(Deployment& agent) : agent_(agent) {}

  /// Runs steps 1-6 synchronously and returns the aggregated result:
  /// submit_staged with no network attached. Throws if a daemon fails to
  /// answer (closed mailbox).
  [[nodiscard]] CampaignResult submit(const appmodel::Ensemble& ensemble,
                                      sched::Heuristic heuristic);

  /// Fault-tolerant variant for real grids: daemons that do not answer a
  /// protocol step within `step_timeout` are dropped from the campaign (the
  /// repartition runs over the responsive clusters only — a crashed SeD
  /// must not strand the whole experiment). Throws only when *no* cluster
  /// answers step 3.
  struct FaultTolerantResult {
    CampaignResult campaign;               ///< over responsive clusters
    std::vector<ClusterId> responsive;     ///< campaign index -> real id
    std::vector<ClusterId> unresponsive;   ///< dropped daemons
  };
  [[nodiscard]] FaultTolerantResult submit_with_deadline(
      const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
      std::chrono::milliseconds step_timeout);

  /// Data-staging campaign parameters: a network model plus per-transfer
  /// deadline budget (simulated seconds; kInfiniteTime = no budget).
  struct StagingOptions {
    sim::GridNetworkOptions data;
    Seconds transfer_deadline = kInfiniteTime;
  };

  /// Network-aware outcome: the protocol result plus the simulated data
  /// movement around it.
  struct StagedCampaignResult {
    CampaignResult campaign;  ///< compute-only makespans, as reported by SeDs
    std::vector<Seconds> staging_seconds;     ///< per cluster, before step 5
    std::vector<Seconds> collection_seconds;  ///< per cluster, after step 6
    Seconds makespan = 0.0;  ///< staging + compute + collection, max
    double transfer_mb = 0.0;
    int deadline_misses = 0;  ///< transfers over options.transfer_deadline
  };

  /// Steps 1-6 with data movement made explicit: step 4 runs the charged
  /// Algorithm 1 (sim::placement_charge: each candidate cluster pays its
  /// staging/collection over `options.data.network`), and the movement
  /// around steps 5-6 is sim::simulate_campaign_transfers over the executed
  /// shares — the same routines sim::simulate_grid runs, so both agree bit
  /// for bit on every field they share. With no network attached (or a free
  /// one) transfers cost exactly 0.0 and `makespan` equals
  /// `campaign.makespan`.
  [[nodiscard]] StagedCampaignResult submit_staged(
      const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
      const StagingOptions& options);

 private:
  Deployment& agent_;
  int next_request_id_ = 1;
};

}  // namespace oagrid::middleware
