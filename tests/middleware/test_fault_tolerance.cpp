#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "middleware/client.hpp"
#include "middleware/local_agent.hpp"
#include "middleware/master_agent.hpp"
#include "platform/profiles.hpp"
#include "sim/perf_vector.hpp"

namespace oagrid::middleware {
namespace {

using namespace std::chrono_literals;
using appmodel::Ensemble;

TEST(MailboxTimeout, TimesOutWhenEmpty) {
  Mailbox<int> box;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(box.receive_for(30ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
  EXPECT_FALSE(box.closed());  // timeout, not closure
}

TEST(MailboxTimeout, DeliversPromptly) {
  Mailbox<int> box;
  std::thread producer([&] {
    std::this_thread::sleep_for(5ms);
    box.send(99);
  });
  EXPECT_EQ(box.receive_for(2000ms), 99);
  producer.join();
}

TEST(MailboxTimeout, ClosedAndDrainedReturnsNullopt) {
  Mailbox<int> box;
  box.send(1);
  box.close();
  EXPECT_EQ(box.receive_for(10ms), 1);
  EXPECT_EQ(box.receive_for(10ms), std::nullopt);
  EXPECT_TRUE(box.closed());
}

/// Algorithm 1 over the full performance vectors of `survivors` — what a
/// campaign that drops every other daemon must decide, bit for bit.
sched::Repartition survivors_oracle(const platform::Grid& grid,
                                    const std::vector<ClusterId>& survivors,
                                    const Ensemble& ensemble,
                                    sched::Heuristic heuristic) {
  std::vector<sched::PerformanceVector> full;
  for (const ClusterId c : survivors)
    full.push_back(sim::performance_vector(grid.cluster(c), ensemble.scenarios,
                                           ensemble.months, heuristic));
  return sched::greedy_repartition(full, ensemble.scenarios);
}

/// Asserts `result` equals the survivors' oracle: assignment, shares and
/// makespan, and each prefix is entries 1..min(share + 1, NS) of the full
/// vector.
void expect_survivors_oracle(const Client::FaultTolerantResult& result,
                             const platform::Grid& grid,
                             const Ensemble& ensemble,
                             sched::Heuristic heuristic) {
  const sched::Repartition oracle =
      survivors_oracle(grid, result.responsive, ensemble, heuristic);
  const sched::Repartition& got = result.campaign.repartition;
  EXPECT_EQ(got.assignment, oracle.assignment);
  EXPECT_EQ(got.dags_per_cluster, oracle.dags_per_cluster);
  EXPECT_EQ(got.makespan, oracle.makespan);
  ASSERT_EQ(result.campaign.performance.size(), result.responsive.size());
  for (std::size_t i = 0; i < result.responsive.size(); ++i) {
    const sched::PerformanceVector full = sim::performance_vector(
        grid.cluster(result.responsive[i]), ensemble.scenarios,
        ensemble.months, heuristic);
    const Count entries =
        std::min(got.dags_per_cluster[i] + 1, ensemble.scenarios);
    EXPECT_EQ(result.campaign.performance[i],
              sched::PerformanceVector(full.begin(), full.begin() + entries))
        << "cluster " << result.responsive[i];
  }
}

/// A Deployment in front of a real fleet whose links lose messages, as a
/// daemon that hangs mid-campaign looks to the client:
///  - the daemon of `silent_after_first_pull` answers entry 1 and nothing
///    after; its lost pull is answered late, at the first step-5 request;
///  - the daemon of `silent_execute` never reports step 6;
///  - the daemon of `bad_request` receives its perf pulls with NS = 0.
class LossyLink final : public Deployment {
 public:
  explicit LossyLink(Deployment& fleet) : fleet_(fleet) {}

  ClusterId silent_after_first_pull = -1;
  ClusterId silent_execute = -1;
  ClusterId bad_request = -1;

  [[nodiscard]] int daemon_count() const override {
    return fleet_.daemon_count();
  }

  /// True while a lost pull's late answer is still to be delivered.
  [[nodiscard]] bool late_reply_pending() const { return late_.has_value(); }

 private:
  void deliver(ClusterId id, SedRequest request) override {
    if (auto* perf = std::get_if<PerfRequest>(&request)) {
      if (id == silent_after_first_pull && perf->first > 1) {
        late_ = PerfResponse{
            perf->request_id, id, perf->first,
            sched::PerformanceVector(
                static_cast<std::size_t>(perf->last - perf->first + 1), 0.0)};
        return;
      }
      if (id == bad_request) perf->scenarios = 0;
      fleet_.send_perf_request(id, perf->request_id, perf->scenarios,
                               perf->months, perf->first, perf->last,
                               perf->heuristic, perf->reply);
      return;
    }
    const auto& exec = std::get<ExecuteRequest>(request);
    if (late_)
      exec.reply->send(SedResponse{*std::exchange(late_, std::nullopt)});
    if (id == silent_execute) return;
    fleet_.send_execute(id, exec.request_id, exec.scenarios, exec.months,
                        exec.heuristic, exec.reply);
  }

  Deployment& fleet_;
  std::optional<PerfResponse> late_;
};

/// A Deployment in front of a real fleet that holds back the first perf
/// pull addressed to `held` and answers it only when the test says so,
/// after the client has given up on that daemon.
class HeldReply final : public Deployment {
 public:
  HeldReply(Deployment& fleet, ClusterId held) : fleet_(fleet), held_(held) {}

  [[nodiscard]] int daemon_count() const override {
    return fleet_.daemon_count();
  }

  [[nodiscard]] bool holding() const { return request_.has_value(); }

  /// The held request's reply mailbox, without keeping it alive.
  [[nodiscard]] std::weak_ptr<Mailbox<SedResponse>> mailbox() const {
    return request_->reply;
  }

  /// Answers the held request now; returns whether the mailbox took it.
  bool answer() {
    const PerfRequest& r = *request_;
    return r.reply->send(SedResponse{PerfResponse{
        r.request_id, held_, r.first,
        sched::PerformanceVector(static_cast<std::size_t>(r.last - r.first + 1),
                                 0.0)}});
  }

  /// Drops the held request, as a daemon does once it has answered.
  void release() { request_.reset(); }

 private:
  void deliver(ClusterId id, SedRequest request) override {
    if (auto* perf = std::get_if<PerfRequest>(&request)) {
      if (id == held_ && !request_) {
        request_ = std::move(*perf);
        return;
      }
      fleet_.send_perf_request(id, perf->request_id, perf->scenarios,
                               perf->months, perf->first, perf->last,
                               perf->heuristic, perf->reply);
      return;
    }
    const auto& exec = std::get<ExecuteRequest>(request);
    fleet_.send_execute(id, exec.request_id, exec.scenarios, exec.months,
                        exec.heuristic, exec.reply);
  }

  Deployment& fleet_;
  ClusterId held_;
  std::optional<PerfRequest> request_;
};

TEST(FaultTolerance, ReplyAfterTheCampaignReturnedLandsInALiveMailbox) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{6, 8};
  const auto heuristic = sched::Heuristic::kKnapsack;
  MasterAgent agent(grid);
  HeldReply link(agent, 2);
  Client client(link);
  const auto result = client.submit_with_deadline(ensemble, heuristic, 1000ms);
  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{2});
  expect_survivors_oracle(result, grid, ensemble, heuristic);

  // The campaign has returned and its client-side state is gone; the
  // request still owns the mailbox, which the client closed on its way
  // out, so the late answer is dropped rather than written into freed
  // memory (the ASan job runs this test).
  ASSERT_TRUE(link.holding());
  const std::weak_ptr<Mailbox<SedResponse>> mailbox = link.mailbox();
  EXPECT_FALSE(mailbox.expired());
  EXPECT_FALSE(link.answer());
  link.release();
  EXPECT_TRUE(mailbox.expired());  // the last owner let it go
  agent.shutdown();
}

TEST(FaultTolerance, AllHealthyMatchesPlainSubmit) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};
  MasterAgent agent(grid);
  Client client(agent);
  const CampaignResult plain =
      client.submit(ensemble, sched::Heuristic::kKnapsack);
  const auto guarded = client.submit_with_deadline(
      ensemble, sched::Heuristic::kKnapsack, 30000ms);
  agent.shutdown();

  EXPECT_TRUE(guarded.unresponsive.empty());
  EXPECT_EQ(guarded.responsive, (std::vector<ClusterId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(guarded.campaign.performance, plain.performance);
  EXPECT_EQ(guarded.campaign.repartition.assignment,
            plain.repartition.assignment);
  EXPECT_EQ(guarded.campaign.repartition.dags_per_cluster,
            plain.repartition.dags_per_cluster);
  EXPECT_EQ(guarded.campaign.repartition.makespan, plain.repartition.makespan);
  EXPECT_EQ(guarded.campaign.makespan, plain.makespan);
}

TEST(FaultTolerance, DeadDaemonIsDroppedNotFatal) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};
  MasterAgent agent(grid);
  agent.daemon(3).stop();  // crash one SeD before the campaign

  Client client(agent);
  const auto result = client.submit_with_deadline(
      ensemble, sched::Heuristic::kKnapsack, 500ms);
  agent.shutdown();

  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{3});
  EXPECT_EQ(result.responsive, (std::vector<ClusterId>{0, 1, 2, 4}));
  EXPECT_EQ(result.campaign.repartition.total_dags(), 8);
  expect_survivors_oracle(result, grid, ensemble, sched::Heuristic::kKnapsack);
  EXPECT_GT(result.campaign.makespan, 0.0);
  // Every execution came from a responsive daemon.
  for (const auto& exec : result.campaign.executions)
    EXPECT_NE(exec.cluster, 3);
}

TEST(FaultTolerance, DeadLeafInsideAnAgentTree) {
  // A daemon dies inside a Local-Agent tree: pulls are still routed through
  // the agents, the dead leaf is dropped at the deadline, the survivors
  // execute.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{6, 8};
  HierarchicalAgent tree(grid, 2);
  tree.daemon(4).stop();  // crash the 'azur' leaf

  Client client(tree);
  const auto result = client.submit_with_deadline(
      ensemble, sched::Heuristic::kKnapsack, 500ms);
  tree.shutdown();

  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{4});
  EXPECT_EQ(result.responsive, (std::vector<ClusterId>{0, 1, 2, 3}));
  EXPECT_EQ(result.campaign.repartition.total_dags(), 6);
  expect_survivors_oracle(result, grid, ensemble, sched::Heuristic::kKnapsack);
  EXPECT_GT(result.campaign.makespan, 0.0);
}

TEST(FaultTolerance, DaemonSilentAfterFirstPullIsDroppedAndItsLateReplyIgnored) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};
  const auto heuristic = sched::Heuristic::kKnapsack;
  MasterAgent agent(grid);
  // The healthy campaign's busiest cluster is sure to be pulled past entry 1.
  const CampaignResult healthy = Client(agent).submit(ensemble, heuristic);
  const auto& shares = healthy.repartition.dags_per_cluster;
  const auto busiest = static_cast<ClusterId>(
      std::max_element(shares.begin(), shares.end()) - shares.begin());
  ASSERT_GE(shares[static_cast<std::size_t>(busiest)], 1);

  LossyLink link(agent);
  link.silent_after_first_pull = busiest;
  Client client(link);
  const auto result = client.submit_with_deadline(ensemble, heuristic, 500ms);
  agent.shutdown();

  EXPECT_EQ(result.unresponsive, std::vector<ClusterId>{busiest});
  EXPECT_EQ(result.responsive.size(), 4u);
  EXPECT_FALSE(link.late_reply_pending());  // it reached the client, unused
  expect_survivors_oracle(result, grid, ensemble, heuristic);
  for (const auto& exec : result.campaign.executions)
    EXPECT_NE(exec.cluster, busiest);
}

TEST(FaultTolerance, SilentExecutorKeepsItsShareWithoutAReport) {
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};
  const auto heuristic = sched::Heuristic::kKnapsack;
  MasterAgent agent(grid);
  const CampaignResult healthy = Client(agent).submit(ensemble, heuristic);
  const auto& shares = healthy.repartition.dags_per_cluster;
  const auto silent = static_cast<ClusterId>(
      std::max_element(shares.begin(), shares.end()) - shares.begin());

  LossyLink link(agent);
  link.silent_execute = silent;
  Client client(link);
  const auto step_timeout = 1000ms;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      client.submit_with_deadline(ensemble, heuristic, step_timeout);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  agent.shutdown();

  // Steps 1-3 and steps 5-6 each wait at most one step deadline.
  EXPECT_GE(elapsed, step_timeout);
  EXPECT_LT(elapsed, 2 * step_timeout);
  EXPECT_TRUE(result.unresponsive.empty());
  EXPECT_EQ(result.campaign.repartition.dags_per_cluster, shares);
  Seconds others = 0.0;
  for (const auto& exec : result.campaign.executions) {
    EXPECT_NE(exec.cluster, silent);
    others = std::max(others, exec.makespan);
  }
  EXPECT_EQ(result.campaign.executions.size(),
            healthy.executions.size() - 1);
  EXPECT_EQ(result.campaign.makespan, others);
}

TEST(FaultTolerance, DaemonErrorFailsTheCampaignNamingTheCluster) {
  // Long scenarios keep the healthy daemons busy after the error reply: they
  // answer after the failed campaign has thrown, into the mailbox their
  // requests still share.
  const auto grid = platform::make_builtin_grid(20).prefix(3);
  const Ensemble ensemble{4, 1200};
  MasterAgent agent(grid);
  LossyLink link(agent);
  link.bad_request = 1;
  Client client(link);
  for (const bool timed : {false, true}) {
    try {
      if (timed)
        (void)client.submit_with_deadline(ensemble, sched::Heuristic::kBasic,
                                          30000ms);
      else
        (void)client.submit(ensemble, sched::Heuristic::kBasic);
      ADD_FAILURE() << "a daemon error must fail the campaign";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cluster 1"), std::string::npos)
          << e.what();
    }
  }
  agent.shutdown();
}

TEST(FaultTolerance, AllDeadThrows) {
  const auto grid = platform::make_builtin_grid(20).prefix(2);
  MasterAgent agent(grid);
  agent.daemon(0).stop();
  agent.daemon(1).stop();
  Client client(agent);
  EXPECT_THROW((void)client.submit_with_deadline(
                   Ensemble{4, 5}, sched::Heuristic::kBasic, 100ms),
               std::runtime_error);
  agent.shutdown();
}

TEST(FaultTolerance, RejectsNonPositiveTimeout) {
  MasterAgent agent(platform::make_builtin_grid(20).prefix(2));
  Client client(agent);
  EXPECT_THROW((void)client.submit_with_deadline(
                   Ensemble{2, 2}, sched::Heuristic::kBasic, 0ms),
               std::invalid_argument);
  agent.shutdown();
}

}  // namespace
}  // namespace oagrid::middleware
