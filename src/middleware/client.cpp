#include "middleware/client.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>

#include "common/log.hpp"
#include "middleware/mailbox.hpp"
#include "obs/obs.hpp"

namespace oagrid::middleware {

namespace {

/// Attaches the client-side reply mailbox to the fleet-wide metrics (the
/// "downstream" direction of the Figure 9 protocol). No-op when
/// observability is off.
void instrument_reply(Mailbox<SedResponse>& reply) {
  if (!obs::enabled()) return;
  QueueProbe probe;
  probe.depth_on_send = &obs::metrics().histogram("middleware.reply.depth");
  probe.wait_us = &obs::metrics().histogram("middleware.reply.wait_us");
  probe.sends = &obs::metrics().counter("middleware.reply.sends");
  reply.instrument(probe);
}

/// Steps (1)-(4) as a pull: Algorithm 1 runs on the client and asks the
/// daemons for exactly the performance-vector entries it reads — ranged
/// requests, batched across clusters by sched::demand_repartition — so
/// result.performance ends up holding entries 1..min(share + 1, NS) per
/// cluster and result.repartition is the full vectors' decision, bit for
/// bit. The time spent waiting on pulls is recorded as step1_3, the rest as
/// step4.
void pull_repartition(Deployment& agent, const appmodel::Ensemble& ensemble,
                      sched::Heuristic heuristic, int request_id,
                      Mailbox<SedResponse>& reply,
                      const sched::PlacementCharge& charge,
                      CampaignResult& result) {
  const bool observed = obs::enabled();
  const obs::Clock& clock = obs::WallClock::instance();
  obs::Span span(observed ? &obs::trace_buffer() : nullptr,
                 "steps 1-4: pulled perf vectors + Algorithm 1", "middleware");
  const double start_us = observed ? clock.now_us() : 0.0;
  double pull_us = 0.0;
  int pulls = 0;
  const sched::PrefixExtender pull =
      [&](std::vector<sched::PerformanceVector>& performance,
          std::span<const std::size_t> want) {
        const double pull_start_us = observed ? clock.now_us() : 0.0;
        int outstanding = 0;
        for (std::size_t c = 0; c < performance.size(); ++c) {
          if (performance[c].size() >= want[c]) continue;
          agent.send_perf_request(
              static_cast<ClusterId>(c), request_id, ensemble.scenarios,
              ensemble.months, static_cast<Count>(performance[c].size()) + 1,
              static_cast<Count>(want[c]), heuristic, reply);
          ++outstanding;
        }
        for (int received = 0; received < outstanding; ++received) {
          std::optional<SedResponse> response = reply.receive();
          if (!response)
            throw std::runtime_error(
                "oagrid: SeD channel closed during step 3");
          const auto* perf = std::get_if<PerfResponse>(&*response);
          if (perf == nullptr || perf->request_id != request_id ||
              perf->cluster < 0 ||
              static_cast<std::size_t>(perf->cluster) >= performance.size())
            throw std::runtime_error(
                "oagrid: unexpected response during step 3");
          sched::PerformanceVector& prefix =
              performance[static_cast<std::size_t>(perf->cluster)];
          if (perf->first != static_cast<Count>(prefix.size()) + 1)
            throw std::runtime_error(
                "oagrid: performance entries out of order during step 3");
          prefix.insert(prefix.end(), perf->performance.begin(),
                        perf->performance.end());
        }
        pulls += outstanding;
        if (observed) pull_us += clock.now_us() - pull_start_us;
      };
  result.performance.assign(static_cast<std::size_t>(agent.daemon_count()),
                            {});
  result.repartition = sched::demand_repartition(
      result.performance, ensemble.scenarios, pull, charge);
  if (observed) {
    obs::metrics().counter("middleware.perf_pulls").add(
        static_cast<std::uint64_t>(pulls));
    obs::metrics().histogram("middleware.step1_3_us").record(pull_us);
    obs::metrics()
        .histogram("middleware.step4_us")
        .record(clock.now_us() - start_us - pull_us);
  }
  OAGRID_INFO << "client: steps 1-4 complete, " << pulls
              << " performance request(s) pulled";
}

/// Steps (5)-(6): dispatch each cluster's share (clusters with zero
/// scenarios are not contacted, as in the paper's flow), then collect the
/// execution reports, sorted by cluster.
void execute_shares(Deployment& agent, const appmodel::Ensemble& ensemble,
                    sched::Heuristic heuristic, int request_id,
                    Mailbox<SedResponse>& reply, CampaignResult& result) {
  obs::ScopedTimer step_timer(
      obs::enabled() ? &obs::metrics().histogram("middleware.step5_6_us")
                     : nullptr);
  obs::Span step_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                      "steps 5-6: execution", "middleware");
  int outstanding = 0;
  for (ClusterId c = 0; c < agent.daemon_count(); ++c) {
    const Count share =
        result.repartition.dags_per_cluster[static_cast<std::size_t>(c)];
    if (share == 0) continue;
    agent.send_execute(c, request_id, share, ensemble.months, heuristic,
                       reply);
    ++outstanding;
  }
  for (int received = 0; received < outstanding; ++received) {
    std::optional<SedResponse> response = reply.receive();
    if (!response)
      throw std::runtime_error("oagrid: SeD channel closed during step 6");
    const auto* exec = std::get_if<ExecuteResponse>(&*response);
    if (exec == nullptr || exec->request_id != request_id)
      throw std::runtime_error("oagrid: unexpected response during step 6");
    result.executions.push_back(*exec);
    result.makespan = std::max(result.makespan, exec->makespan);
  }
  std::sort(result.executions.begin(), result.executions.end(),
            [](const ExecuteResponse& a, const ExecuteResponse& b) {
              return a.cluster < b.cluster;
            });
}

}  // namespace

CampaignResult Client::submit(const appmodel::Ensemble& ensemble,
                              sched::Heuristic heuristic) {
  return submit_staged(ensemble, heuristic, {}).campaign;
}

Client::StagedCampaignResult Client::submit_staged(
    const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
    const StagingOptions& options) {
  ensemble.validate();
  OAGRID_REQUIRE(agent_.daemon_count() >= 1, "no server daemon deployed");
  const sim::GridNetworkOptions& data = options.data;
  data.validate(agent_.daemon_count());
  OAGRID_REQUIRE(options.transfer_deadline > 0.0,
                 "transfer deadline must be positive");
  const int request_id = next_request_id_++;
  if (obs::enabled()) obs::metrics().counter("middleware.campaigns").add();
  obs::Span campaign_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                          "campaign #" + std::to_string(request_id),
                          "middleware");

  // Steps (1)-(6): the pulled, charged Algorithm 1, then the execution of
  // each cluster's share.
  StagedCampaignResult result;
  CampaignResult& campaign = result.campaign;
  Mailbox<SedResponse> reply;
  instrument_reply(reply);
  const sim::GridFaultOptions failure_free;
  pull_repartition(agent_, ensemble, heuristic, request_id, reply,
                   sim::placement_charge(data, failure_free,
                                         campaign.performance, ensemble.months),
                   campaign);
  execute_shares(agent_, ensemble, heuristic, request_id, reply, campaign);

  // The data movement around steps 5-6: inputs staged before each cluster
  // starts, results shipped home once its compute drains.
  std::vector<Seconds> compute(campaign.repartition.dags_per_cluster.size(),
                               0.0);
  for (const ExecuteResponse& exec : campaign.executions)
    compute[static_cast<std::size_t>(exec.cluster)] = exec.makespan;
  sim::CampaignTransfers moved = sim::simulate_campaign_transfers(
      data, campaign.repartition.dags_per_cluster, compute,
      options.transfer_deadline);
  result.staging_seconds = std::move(moved.staging_seconds);
  result.collection_seconds = std::move(moved.collection_seconds);
  result.transfer_mb = moved.transfer_mb;
  result.deadline_misses = moved.deadline_misses;
  for (const ExecuteResponse& exec : campaign.executions) {
    const auto c = static_cast<std::size_t>(exec.cluster);
    result.makespan = std::max(result.makespan,
                               result.staging_seconds[c] + exec.makespan +
                                   result.collection_seconds[c]);
  }
  if (result.deadline_misses > 0)
    OAGRID_WARN << "client: " << result.deadline_misses
                << " transfer(s) exceeded the " << options.transfer_deadline
                << " s deadline";
  OAGRID_INFO << "client: campaign finished, makespan " << result.makespan
              << " s (" << result.transfer_mb << " MB moved)";
  return result;
}

Client::FaultTolerantResult Client::submit_with_deadline(
    const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
    std::chrono::milliseconds step_timeout) {
  ensemble.validate();
  OAGRID_REQUIRE(agent_.daemon_count() >= 1, "no server daemon deployed");
  OAGRID_REQUIRE(step_timeout.count() > 0, "timeout must be positive");
  const int request_id = next_request_id_++;
  FaultTolerantResult result;

  // Steps (1)-(3) with a step deadline: collect whatever arrives in time.
  Mailbox<SedResponse> reply;
  instrument_reply(reply);
  const int expected = agent_.broadcast_perf_request(
      request_id, ensemble.scenarios, ensemble.months, heuristic, reply);
  const auto deadline = std::chrono::steady_clock::now() + step_timeout;
  std::vector<sched::PerformanceVector> vectors(
      static_cast<std::size_t>(expected));
  std::vector<bool> answered(static_cast<std::size_t>(expected), false);
  int received = 0;
  while (received < expected) {
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (budget.count() <= 0) break;
    std::optional<SedResponse> response = reply.receive_for(budget);
    if (!response) break;
    const auto* perf = std::get_if<PerfResponse>(&*response);
    if (perf == nullptr || perf->request_id != request_id) continue;  // stale
    vectors[static_cast<std::size_t>(perf->cluster)] = perf->performance;
    answered[static_cast<std::size_t>(perf->cluster)] = true;
    ++received;
  }
  for (ClusterId c = 0; c < expected; ++c) {
    if (answered[static_cast<std::size_t>(c)]) {
      result.responsive.push_back(c);
      result.campaign.performance.push_back(
          std::move(vectors[static_cast<std::size_t>(c)]));
    } else {
      result.unresponsive.push_back(c);
    }
  }
  if (result.responsive.empty())
    throw std::runtime_error("oagrid: no cluster answered step 3 in time");
  OAGRID_WARN << "client: " << result.unresponsive.size()
              << " daemon(s) dropped after the step-3 deadline";

  // Step (4) over the responsive subset.
  result.campaign.repartition =
      sched::greedy_repartition(result.campaign.performance, ensemble.scenarios);

  // Steps (5)-(6), again under a deadline; silent executors are reported
  // unresponsive (their share would be resubmitted by a real operator).
  int outstanding = 0;
  for (std::size_t i = 0; i < result.responsive.size(); ++i) {
    const Count share = result.campaign.repartition.dags_per_cluster[i];
    if (share == 0) continue;
    agent_.send_execute(result.responsive[i], request_id, share,
                        ensemble.months, heuristic, reply);
    ++outstanding;
  }
  const auto exec_deadline = std::chrono::steady_clock::now() + step_timeout;
  for (int got = 0; got < outstanding;) {
    const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
        exec_deadline - std::chrono::steady_clock::now());
    if (budget.count() <= 0) break;
    std::optional<SedResponse> response = reply.receive_for(budget);
    if (!response) break;
    const auto* exec = std::get_if<ExecuteResponse>(&*response);
    if (exec == nullptr || exec->request_id != request_id) continue;
    result.campaign.executions.push_back(*exec);
    result.campaign.makespan =
        std::max(result.campaign.makespan, exec->makespan);
    ++got;
  }
  std::sort(result.campaign.executions.begin(),
            result.campaign.executions.end(),
            [](const ExecuteResponse& a, const ExecuteResponse& b) {
              return a.cluster < b.cluster;
            });
  return result;
}

}  // namespace oagrid::middleware
