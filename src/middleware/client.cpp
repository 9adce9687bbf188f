#include "middleware/client.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>

#include "common/log.hpp"
#include "middleware/mailbox.hpp"
#include "net/fairshare.hpp"
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
  ensemble.validate();
  OAGRID_REQUIRE(agent_.daemon_count() >= 1, "no server daemon deployed");
  const int request_id = next_request_id_++;
  if (obs::enabled()) obs::metrics().counter("middleware.campaigns").add();
  obs::Span campaign_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                          "campaign #" + std::to_string(request_id),
                          "middleware");
  CampaignResult result;
  Mailbox<SedResponse> reply;
  instrument_reply(reply);
  pull_repartition(agent_, ensemble, heuristic, request_id, reply, nullptr,
                   result);
  execute_shares(agent_, ensemble, heuristic, request_id, reply, result);
  OAGRID_INFO << "client: campaign finished, makespan " << result.makespan
              << " s";
  return result;
}

Client::StagedCampaignResult Client::submit_staged(
    const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
    const StagingOptions& options) {
  ensemble.validate();
  OAGRID_REQUIRE(agent_.daemon_count() >= 1, "no server daemon deployed");
  const auto n = static_cast<std::size_t>(agent_.daemon_count());
  const sim::GridNetworkOptions& data = options.data;
  if (data.active()) {
    OAGRID_REQUIRE(data.network.cluster_count() == agent_.daemon_count(),
                   "network model does not cover the deployed clusters");
    OAGRID_REQUIRE(data.home >= 0 && data.home < agent_.daemon_count(),
                   "home cluster outside the deployment");
    OAGRID_REQUIRE(data.stage_mb_per_scenario >= 0.0 &&
                       data.collect_mb_per_scenario >= 0.0,
                   "transfer volumes must be >= 0");
  }
  OAGRID_REQUIRE(options.transfer_deadline > 0.0,
                 "transfer deadline must be positive");
  const int request_id = next_request_id_++;
  if (obs::enabled()) obs::metrics().counter("middleware.campaigns").add();
  obs::Span campaign_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                          "staged campaign #" + std::to_string(request_id),
                          "middleware");

  StagedCampaignResult result;
  result.staging_seconds.assign(n, 0.0);
  result.collection_seconds.assign(n, 0.0);
  CampaignResult& campaign = result.campaign;

  // Steps (1)-(4): the pull of submit(), each candidate cluster charged the
  // serialized cost of moving its files over the home links.
  Mailbox<SedResponse> reply;
  instrument_reply(reply);
  pull_repartition(agent_, ensemble, heuristic, request_id, reply,
                   sim::network_placement_charge(data), campaign);

  // Input staging: every scenario's restart/forcing files leave home at
  // t = 0, fair-shared per link; a cluster may start only once its last
  // input landed.
  const auto count_misses = [&](const std::vector<net::TransferRequest>& reqs,
                                const net::TransferPlan& plan) {
    if (options.transfer_deadline == kInfiniteTime) return;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (plan.results[i].finish - reqs[i].start > options.transfer_deadline)
        ++result.deadline_misses;
  };
  if (data.active() && data.stage_mb_per_scenario > 0.0) {
    std::vector<net::TransferRequest> staging;
    for (std::size_t c = 0; c < n; ++c)
      for (Count s = 0; s < campaign.repartition.dags_per_cluster[c]; ++s)
        staging.push_back({data.home, static_cast<ClusterId>(c),
                           data.stage_mb_per_scenario, 0.0});
    const net::TransferPlan plan =
        net::simulate_transfers(data.network, staging);
    result.transfer_mb += plan.total_mb;
    for (std::size_t i = 0; i < staging.size(); ++i) {
      const auto c = static_cast<std::size_t>(staging[i].dst);
      result.staging_seconds[c] =
          std::max(result.staging_seconds[c], plan.results[i].finish);
    }
    count_misses(staging, plan);
  }

  // Steps (5)-(6): identical to submit(), over the charged repartition.
  execute_shares(agent_, ensemble, heuristic, request_id, reply, campaign);

  // Result collection: each cluster ships its archives home the moment its
  // (staging-delayed) compute drains.
  if (data.active() && data.collect_mb_per_scenario > 0.0) {
    std::vector<net::TransferRequest> collection;
    for (const ExecuteResponse& exec : campaign.executions) {
      const auto c = static_cast<std::size_t>(exec.cluster);
      const Seconds done = result.staging_seconds[c] + exec.makespan;
      for (Count s = 0; s < campaign.repartition.dags_per_cluster[c]; ++s)
        collection.push_back({exec.cluster, data.home,
                              data.collect_mb_per_scenario, done});
    }
    const net::TransferPlan plan =
        net::simulate_transfers(data.network, collection);
    result.transfer_mb += plan.total_mb;
    for (std::size_t i = 0; i < collection.size(); ++i) {
      const auto c = static_cast<std::size_t>(collection[i].src);
      result.collection_seconds[c] =
          std::max(result.collection_seconds[c],
                   plan.results[i].finish - collection[i].start);
    }
    count_misses(collection, plan);
  }

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
  OAGRID_INFO << "client: staged campaign finished, makespan "
              << result.makespan << " s (" << result.transfer_mb
              << " MB moved)";
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
