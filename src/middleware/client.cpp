#include "middleware/client.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "middleware/mailbox.hpp"
#include "obs/obs.hpp"

namespace oagrid::middleware {

namespace {

/// Thrown by the pull extender when a round's replies miss the step
/// deadline.
struct PullRoundMissed {};

/// The client's reply mailbox for one campaign and the step deadline its
/// receives wait for. Every request of the campaign shares the mailbox, so
/// a daemon that answers after the campaign returned or failed (a missed
/// deadline, an error elsewhere) sends into live memory; the mailbox is
/// closed on the way out, and such late answers are dropped.
class Replies {
 public:
  explicit Replies(std::optional<std::chrono::milliseconds> step_timeout)
      : step_timeout_(step_timeout) {
    if (!obs::enabled()) return;
    // The "downstream" direction of the Figure 9 protocol, fleet-wide.
    QueueProbe probe;
    probe.depth_on_send = &obs::metrics().histogram("middleware.reply.depth");
    probe.wait_us = &obs::metrics().histogram("middleware.reply.wait_us");
    probe.sends = &obs::metrics().counter("middleware.reply.sends");
    mailbox_->instrument(probe);
  }
  ~Replies() { mailbox_->close(); }
  Replies(const Replies&) = delete;
  Replies& operator=(const Replies&) = delete;

  /// The mailbox a request's reply goes to.
  [[nodiscard]] const ReplyBox& box() const noexcept { return mailbox_; }

  /// Starts a protocol step's deadline.
  void arm() {
    if (step_timeout_)
      deadline_ = std::chrono::steady_clock::now() + *step_timeout_;
  }

  /// The next message; std::nullopt once the step deadline passed. Never
  /// std::nullopt without a deadline: the mailbox closes only with us.
  std::optional<SedResponse> receive() {
    if (!step_timeout_) return mailbox_->receive();
    const auto budget = std::chrono::ceil<std::chrono::milliseconds>(
        deadline_ - std::chrono::steady_clock::now());
    if (budget.count() <= 0) return std::nullopt;
    return mailbox_->receive_for(budget);
  }

 private:
  std::optional<std::chrono::milliseconds> step_timeout_;
  std::chrono::steady_clock::time_point deadline_{};
  ReplyBox mailbox_ = std::make_shared<Mailbox<SedResponse>>();
};

/// Steps (1)-(6) of one campaign: the one driver behind submit,
/// submit_staged and submit_with_deadline. Returns the cluster ids of the
/// daemons kept in the campaign; `result` is indexed the same way.
///
/// Steps (1)-(4) are a pull: Algorithm 1 runs on the client and asks the
/// daemons for exactly the performance-vector entries it reads — ranged
/// requests, batched across clusters by sched::demand_repartition — so
/// result.performance ends up holding entries 1..min(share + 1, NS) per
/// cluster and result.repartition is the full vectors' decision, bit for
/// bit. The time spent waiting on pulls is recorded as step1_3, the rest as
/// step4. Steps (5)-(6) dispatch each cluster's share (clusters with zero
/// scenarios are not contacted, as in the paper's flow), then collect the
/// execution reports, sorted by cluster. With a step timeout, daemons are
/// dropped as Client::submit_with_deadline describes. Only such a run drops
/// daemons, and it runs uncharged, so `charge` always indexes the whole
/// fleet.
std::vector<ClusterId> run_campaign(
    Deployment& agent, const appmodel::Ensemble& ensemble,
    sched::Heuristic heuristic, int request_id,
    const sched::PlacementCharge& charge,
    std::optional<std::chrono::milliseconds> step_timeout,
    CampaignResult& result) {
  const bool observed = obs::enabled();
  if (observed) obs::metrics().counter("middleware.campaigns").add();
  obs::Span campaign_span(observed ? &obs::trace_buffer() : nullptr,
                          "campaign #" + std::to_string(request_id),
                          "middleware");
  Replies replies(step_timeout);
  std::vector<ClusterId> kept(static_cast<std::size_t>(agent.daemon_count()));
  std::iota(kept.begin(), kept.end(), 0);
  // Campaign index of a kept daemon; kept.size() once it is dropped.
  const auto index_of = [&](ClusterId cluster) {
    return static_cast<std::size_t>(
        std::find(kept.begin(), kept.end(), cluster) - kept.begin());
  };
  // The next reply of this campaign; std::nullopt once the step deadline
  // passed. Late replies of dropped daemons are skipped; an ErrorResponse
  // fails the campaign, naming the cluster.
  const auto next = [&](const char* step) -> std::optional<SedResponse> {
    for (;;) {
      std::optional<SedResponse> response = replies.receive();
      if (!response) return response;
      const auto [id, cluster] = std::visit(
          [](const auto& r) { return std::pair{r.request_id, r.cluster}; },
          *response);
      if (id != request_id || cluster < 0 || cluster >= agent.daemon_count())
        throw std::runtime_error(
            std::string("oagrid: unexpected response during ") + step);
      if (index_of(cluster) == kept.size()) continue;
      if (const auto* error = std::get_if<ErrorResponse>(&*response))
        throw std::runtime_error("oagrid: SeD for cluster " +
                                 std::to_string(cluster) + " failed during " +
                                 step + ": " + error->message);
      return response;
    }
  };

  {
    const obs::Clock& clock = obs::WallClock::instance();
    obs::Span span(observed ? &obs::trace_buffer() : nullptr,
                   "steps 1-4: pulled perf vectors + Algorithm 1",
                   "middleware");
    const double start_us = observed ? clock.now_us() : 0.0;
    double pull_us = 0.0;
    int pulls = 0;
    std::vector<bool> awaited;  // campaign index -> a pull is in flight
    const sched::PrefixExtender pull =
        [&](std::vector<sched::PerformanceVector>& performance,
            std::span<const std::size_t> want) {
          const double pull_start_us = observed ? clock.now_us() : 0.0;
          awaited.assign(performance.size(), false);
          int outstanding = 0;
          for (std::size_t c = 0; c < performance.size(); ++c) {
            if (performance[c].size() >= want[c]) continue;
            agent.send_perf_request(
                kept[c], request_id, ensemble.scenarios, ensemble.months,
                static_cast<Count>(performance[c].size()) + 1,
                static_cast<Count>(want[c]), heuristic, replies.box());
            awaited[c] = true;
            ++outstanding;
          }
          pulls += outstanding;
          for (; outstanding > 0; --outstanding) {
            std::optional<SedResponse> response = next("step 3");
            if (!response) break;
            const auto* perf = std::get_if<PerfResponse>(&*response);
            const std::size_t c =
                perf != nullptr ? index_of(perf->cluster) : kept.size();
            if (c == kept.size() || !awaited[c])
              throw std::runtime_error(
                  "oagrid: unexpected response during step 3");
            sched::PerformanceVector& prefix = performance[c];
            if (perf->first != static_cast<Count>(prefix.size()) + 1)
              throw std::runtime_error(
                  "oagrid: performance entries out of order during step 3");
            prefix.insert(prefix.end(), perf->performance.begin(),
                          perf->performance.end());
            awaited[c] = false;
          }
          if (observed) pull_us += clock.now_us() - pull_start_us;
          if (outstanding > 0) throw PullRoundMissed{};
        };
    result.performance.assign(kept.size(), {});
    replies.arm();
    for (;;) {
      try {
        result.repartition = sched::demand_repartition(
            result.performance, ensemble.scenarios, pull, charge);
        break;
      } catch (const PullRoundMissed&) {
        std::size_t survivors = 0;
        for (std::size_t c = 0; c < kept.size(); ++c) {
          if (awaited[c]) continue;
          kept[survivors] = kept[c];
          result.performance[survivors++] = std::move(result.performance[c]);
        }
        OAGRID_WARN << "client: " << kept.size() - survivors
                    << " daemon(s) dropped after the step-3 deadline";
        kept.resize(survivors);
        result.performance.resize(survivors);
        if (kept.empty())
          throw std::runtime_error(
              "oagrid: no cluster answered step 3 in time");
        replies.arm();
      }
    }
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

  obs::ScopedTimer step_timer(
      observed ? &obs::metrics().histogram("middleware.step5_6_us")
               : nullptr);
  obs::Span step_span(observed ? &obs::trace_buffer() : nullptr,
                      "steps 5-6: execution", "middleware");
  int outstanding = 0;
  for (std::size_t c = 0; c < kept.size(); ++c) {
    const Count share = result.repartition.dags_per_cluster[c];
    if (share == 0) continue;
    agent.send_execute(kept[c], request_id, share, ensemble.months, heuristic,
                       replies.box());
    ++outstanding;
  }
  replies.arm();
  for (; outstanding > 0; --outstanding) {
    std::optional<SedResponse> response = next("step 6");
    if (!response) break;
    const auto* exec = std::get_if<ExecuteResponse>(&*response);
    if (exec == nullptr)
      throw std::runtime_error("oagrid: unexpected response during step 6");
    result.executions.push_back(*exec);
    result.makespan = std::max(result.makespan, exec->makespan);
  }
  std::sort(result.executions.begin(), result.executions.end(),
            [](const ExecuteResponse& a, const ExecuteResponse& b) {
              return a.cluster < b.cluster;
            });
  return kept;
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

  // Steps (1)-(6): the pulled, charged Algorithm 1, then the execution of
  // each cluster's share.
  StagedCampaignResult result;
  CampaignResult& campaign = result.campaign;
  const sim::GridFaultOptions failure_free;
  (void)run_campaign(agent_, ensemble, heuristic, next_request_id_++,
                     sim::placement_charge(data, failure_free,
                                           campaign.performance,
                                           ensemble.months),
                     std::nullopt, campaign);

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
  FaultTolerantResult result;
  result.responsive = run_campaign(agent_, ensemble, heuristic,
                                   next_request_id_++, nullptr, step_timeout,
                                   result.campaign);
  for (ClusterId c = 0; c < agent_.daemon_count(); ++c)
    if (std::find(result.responsive.begin(), result.responsive.end(), c) ==
        result.responsive.end())
      result.unresponsive.push_back(c);
  return result;
}

}  // namespace oagrid::middleware
