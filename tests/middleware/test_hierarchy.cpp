#include "middleware/local_agent.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "platform/profiles.hpp"
#include "sim/grid_sim.hpp"

namespace oagrid::middleware {
namespace {

using appmodel::Ensemble;

TEST(LocalAgent, RequiresChildren) {
  EXPECT_THROW(LocalAgent({}), std::invalid_argument);
}

TEST(LocalAgent, ServesUnionOfChildren) {
  ServerDaemon a(0, platform::make_builtin_cluster(0, 15));
  ServerDaemon b(1, platform::make_builtin_cluster(1, 15));
  LocalAgent leaf({&a, &b});
  EXPECT_EQ(leaf.served(), (std::vector<ClusterId>{0, 1}));
  EXPECT_EQ(leaf.daemon_count(), 2);
  leaf.stop();
  a.stop();
  b.stop();
}

TEST(LocalAgent, RejectsDuplicateClusterIds) {
  ServerDaemon a(3, platform::make_builtin_cluster(0, 15));
  ServerDaemon b(3, platform::make_builtin_cluster(1, 15));
  EXPECT_THROW(LocalAgent({&a, &b}), std::invalid_argument);
  a.stop();
  b.stop();
}

TEST(LocalAgent, RoutesExecuteToTheOwningSubtree) {
  ServerDaemon s0(0, platform::make_builtin_cluster(0, 15));
  ServerDaemon s1(1, platform::make_builtin_cluster(1, 15));
  LocalAgent root({&s0, &s1});

  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  ExecuteRequest request;
  request.request_id = 4;
  request.scenarios = 1;
  request.months = 2;
  request.reply = reply;
  root.inbox().send(AgentMessage{AgentRoute{1, request}});

  const auto response = reply->receive();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(std::get<ExecuteResponse>(*response).cluster, 1);
  root.stop();
  s0.stop();
  s1.stop();
}

TEST(LocalAgent, RoutesRangedPerfRequestToTheOwningSubtree) {
  ServerDaemon s0(0, platform::make_builtin_cluster(0, 15));
  ServerDaemon s1(1, platform::make_builtin_cluster(1, 15));
  ServerDaemon s2(2, platform::make_builtin_cluster(2, 15));
  LocalAgent left({&s0, &s1});
  LocalAgent root({&left, &s2});

  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  PerfRequest request;
  request.request_id = 6;
  request.scenarios = 4;
  request.months = 3;
  request.first = 2;
  request.last = 3;
  request.reply = reply;
  root.inbox().send(AgentMessage{AgentRoute{1, SedRequest{request}}});

  const auto response = reply->receive();
  ASSERT_TRUE(response.has_value());
  const auto& perf = std::get<PerfResponse>(*response);
  EXPECT_EQ(perf.cluster, 1);
  EXPECT_EQ(perf.first, 2);
  EXPECT_EQ(perf.performance.size(), 2u);
  EXPECT_FALSE(reply->try_receive().has_value());  // nobody else answered
  root.stop();
  left.stop();
  s0.stop();
  s1.stop();
  s2.stop();
}

TEST(HierarchicalAgent, TreeShapeMatchesBranching) {
  const auto grid = platform::make_builtin_grid(15);
  HierarchicalAgent binary(grid, 2);
  // 5 leaves at branching 2: 3 agents level 1 -> 2 level 2 -> 1 root = 6.
  EXPECT_EQ(binary.daemon_count(), 5);
  EXPECT_EQ(binary.agent_count(), 6);
  EXPECT_EQ(binary.tree_depth(), 3);
  binary.shutdown();

  HierarchicalAgent wide(grid, 8);
  EXPECT_EQ(wide.agent_count(), 1);
  EXPECT_EQ(wide.tree_depth(), 1);
  wide.shutdown();
}

TEST(HierarchicalAgent, ValidatesInputs) {
  const platform::Grid empty;
  EXPECT_THROW(HierarchicalAgent(empty, 2), std::invalid_argument);
  EXPECT_THROW(HierarchicalAgent(platform::make_builtin_grid(15), 1),
               std::invalid_argument);
}

TEST(HierarchicalAgent, CampaignMatchesFlatDeployment) {
  // The client cannot tell a hierarchical deployment from a flat one: same
  // repartition, same makespan.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{8, 10};

  MasterAgent flat(grid);
  Client flat_client(flat);
  const CampaignResult flat_result =
      flat_client.submit(ensemble, sched::Heuristic::kKnapsack);
  flat.shutdown();

  HierarchicalAgent tree(grid, 2);
  Client tree_client(tree);
  const CampaignResult tree_result =
      tree_client.submit(ensemble, sched::Heuristic::kKnapsack);
  tree.shutdown();

  EXPECT_EQ(tree_result.repartition.dags_per_cluster,
            flat_result.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(tree_result.makespan, flat_result.makespan);
  EXPECT_EQ(tree_result.executions.size(), flat_result.executions.size());
}

TEST(HierarchicalAgent, PullMatchesFlatPullAndGridSim) {
  // Steps 1-3 as a pull, routed hop by hop through the agent tree, land on
  // the flat deployment's result and the in-process flow's, bit for bit:
  // same prefixes, same assignment, same per-cluster makespans.
  const auto grid = platform::make_builtin_grid(25);
  const Ensemble ensemble{14, 8};
  const auto heuristic = sched::Heuristic::kKnapsack;
  const sim::GridSimResult direct =
      sim::simulate_grid(grid, ensemble, heuristic);

  MasterAgent flat(grid);
  Client flat_client(flat);
  const CampaignResult flat_result = flat_client.submit(ensemble, heuristic);
  flat.shutdown();

  HierarchicalAgent tree(grid, 2);
  Client tree_client(tree);
  const CampaignResult tree_result = tree_client.submit(ensemble, heuristic);
  tree.shutdown();

  for (const CampaignResult* result : {&flat_result, &tree_result}) {
    EXPECT_EQ(result->performance, direct.performance);
    EXPECT_EQ(result->repartition.assignment, direct.repartition.assignment);
    EXPECT_EQ(result->repartition.dags_per_cluster,
              direct.repartition.dags_per_cluster);
    std::vector<Seconds> executed(direct.cluster_makespans.size(), 0.0);
    for (const ExecuteResponse& exec : result->executions)
      executed[static_cast<std::size_t>(exec.cluster)] = exec.makespan;
    EXPECT_EQ(executed, direct.cluster_makespans);
    EXPECT_EQ(result->makespan, direct.makespan);
  }
}

TEST(HierarchicalAgent, SequentialCampaigns) {
  HierarchicalAgent tree(platform::make_builtin_grid(20).prefix(4), 2);
  Client client(tree);
  const CampaignResult first =
      client.submit(Ensemble{3, 5}, sched::Heuristic::kBasic);
  const CampaignResult second =
      client.submit(Ensemble{6, 5}, sched::Heuristic::kKnapsack);
  EXPECT_EQ(first.repartition.total_dags(), 3);
  EXPECT_EQ(second.repartition.total_dags(), 6);
  tree.shutdown();
}

TEST(HierarchicalAgent, ShutdownIsIdempotent) {
  HierarchicalAgent tree(platform::make_builtin_grid(15).prefix(2), 2);
  tree.shutdown();
  tree.shutdown();
}

}  // namespace
}  // namespace oagrid::middleware
