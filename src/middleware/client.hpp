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
  /// submit_staged with no network attached. Every receive blocks; throws if
  /// a daemon reports an error, naming its cluster.
  [[nodiscard]] CampaignResult submit(const appmodel::Ensemble& ensemble,
                                      sched::Heuristic heuristic);

  /// Fault-tolerant variant for real grids: the same pull-then-execute
  /// driver as submit, with a deadline on each protocol step.
  ///  - Steps 1-3: all pull rounds share one deadline, `step_timeout` from
  ///    the first request. A daemon whose pull is still unanswered when it
  ///    passes is dropped, and Algorithm 1 re-runs over the survivors from
  ///    the prefixes already pulled, under a fresh deadline — so a healthy
  ///    run finishes steps 1-3 within `step_timeout`, and each drop adds at
  ///    most one more. The result is bit for bit greedy_repartition over
  ///    the survivors' full vectors (submit's result when none is dropped);
  ///    campaign.performance holds their pulled prefixes 1..min(share+1,
  ///    NS). Late replies of dropped daemons are ignored.
  ///  - Steps 5-6: one more deadline. An executor still silent when it
  ///    passes is not waited for: its share stays in
  ///    campaign.repartition.dags_per_cluster, campaign.executions has no
  ///    ExecuteResponse for it, and campaign.makespan is over the reports
  ///    received. It is not listed in `unresponsive`.
  /// Throws when *no* cluster answers step 3, or when a daemon reports an
  /// error.
  struct FaultTolerantResult {
    CampaignResult campaign;               ///< indexed by campaign index
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
