#include "sim/grid_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fairshare.hpp"
#include "platform/profiles.hpp"
#include "sim/perf_vector.hpp"

namespace oagrid::sim {
namespace {

using appmodel::Ensemble;

TEST(PerfVector, MonotoneNonDecreasing) {
  // More scenarios on the same cluster can never finish sooner.
  for (int profile = 0; profile < 5; ++profile) {
    const auto c = platform::make_builtin_cluster(profile, 40);
    const auto vec =
        performance_vector(c, 10, 12, sched::Heuristic::kKnapsack);
    ASSERT_EQ(vec.size(), 10u);
    for (std::size_t k = 1; k < vec.size(); ++k)
      EXPECT_GE(vec[k], vec[k - 1] - 1e-6) << "profile " << profile << " k=" << k;
  }
}

TEST(PerfVector, FasterClusterDominates) {
  const auto fast = platform::make_builtin_cluster(0, 40);
  const auto slow = platform::make_builtin_cluster(4, 40);
  const auto vf = performance_vector(fast, 6, 12, sched::Heuristic::kBasic);
  const auto vs = performance_vector(slow, 6, 12, sched::Heuristic::kBasic);
  for (std::size_t k = 0; k < vf.size(); ++k) EXPECT_LT(vf[k], vs[k]);
}

TEST(GridSim, AllScenariosPlaced) {
  const auto grid = platform::make_builtin_grid(30);
  const GridSimResult r =
      simulate_grid(grid, Ensemble{10, 12}, sched::Heuristic::kKnapsack);
  EXPECT_EQ(r.repartition.total_dags(), 10);
  EXPECT_EQ(r.performance.size(), 5u);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(GridSim, MakespanIsWorstClusterMakespan) {
  const auto grid = platform::make_builtin_grid(25);
  const GridSimResult r =
      simulate_grid(grid, Ensemble{10, 12}, sched::Heuristic::kBasic);
  Seconds worst = 0.0;
  for (const Seconds ms : r.cluster_makespans) worst = std::max(worst, ms);
  EXPECT_DOUBLE_EQ(r.makespan, worst);
}

TEST(GridSim, FasterClustersGetAtLeastAsManyDags) {
  // Built-in profiles are ordered fastest -> slowest with equal resources.
  const auto grid = platform::make_builtin_grid(35);
  const GridSimResult r =
      simulate_grid(grid, Ensemble{10, 12}, sched::Heuristic::kKnapsack);
  for (std::size_t c = 0; c + 1 < r.repartition.dags_per_cluster.size(); ++c)
    EXPECT_GE(r.repartition.dags_per_cluster[c],
              r.repartition.dags_per_cluster[c + 1]);
}

TEST(GridSim, RepartitionLocallyOptimal) {
  const auto grid = platform::make_builtin_grid(20);
  const GridSimResult r =
      simulate_grid(grid, Ensemble{8, 10}, sched::Heuristic::kKnapsack);
  EXPECT_TRUE(sched::is_locally_optimal(r.performance, r.repartition));
}

TEST(GridSim, TwoClustersBeatOne) {
  // Adding a second cluster can only help (the greedy can ignore it).
  const auto grid = platform::make_builtin_grid(25);
  const auto one = simulate_grid(grid.prefix(1), Ensemble{10, 12},
                                 sched::Heuristic::kKnapsack);
  const auto two = simulate_grid(grid.prefix(2), Ensemble{10, 12},
                                 sched::Heuristic::kKnapsack);
  EXPECT_LE(two.makespan, one.makespan + 1e-6);
}

TEST(GridSim, ParallelAndSerialVectorsMatch) {
  const auto grid = platform::make_builtin_grid(30);
  const auto serial =
      simulate_grid(grid, Ensemble{6, 10}, sched::Heuristic::kKnapsack, 1);
  const auto parallel =
      simulate_grid(grid, Ensemble{6, 10}, sched::Heuristic::kKnapsack, 4);
  EXPECT_EQ(serial.repartition.dags_per_cluster,
            parallel.repartition.dags_per_cluster);
  EXPECT_DOUBLE_EQ(serial.makespan, parallel.makespan);
}

TEST(GridSim, Validation) {
  const platform::Grid empty;
  EXPECT_THROW(
      (void)simulate_grid(empty, Ensemble{2, 2}, sched::Heuristic::kBasic),
      std::invalid_argument);
}

TEST(GridSimNetwork, FreeNetworkIsBitIdentical) {
  // Acceptance gate: attaching a free network must reproduce the netless
  // run exactly — same repartition, same makespans, to the last bit.
  const auto grid = platform::make_builtin_grid(30);
  const Ensemble ensemble{10, 12};
  const auto heuristic = sched::Heuristic::kKnapsack;

  const GridSimResult netless = simulate_grid(grid, ensemble, heuristic);
  const GridNetworkOptions free_options = campaign_network_options(
      net::free_network(static_cast<int>(grid.cluster_count())), ensemble);
  const GridSimResult with_free =
      simulate_grid(grid, ensemble, heuristic, 1, free_options);

  EXPECT_EQ(with_free.repartition.dags_per_cluster,
            netless.repartition.dags_per_cluster);
  EXPECT_EQ(with_free.repartition.assignment, netless.repartition.assignment);
  EXPECT_EQ(with_free.makespan, netless.makespan);  // bitwise
  for (std::size_t c = 0; c < netless.cluster_makespans.size(); ++c) {
    EXPECT_EQ(with_free.cluster_makespans[c], netless.cluster_makespans[c]);
    EXPECT_EQ(with_free.staging_seconds[c], 0.0);
    EXPECT_EQ(with_free.collection_seconds[c], 0.0);
  }
  // Volumes were still accounted (the transfers ran, at zero cost).
  EXPECT_GT(with_free.transfer_mb, 0.0);
  EXPECT_EQ(netless.transfer_mb, 0.0);
}

TEST(GridSimNetwork, RenaterNetworkAddsTransferTime) {
  const auto grid = platform::make_builtin_grid(30).prefix(3);
  const Ensemble ensemble{8, 12};
  const auto heuristic = sched::Heuristic::kKnapsack;

  const GridSimResult netless = simulate_grid(grid, ensemble, heuristic);
  const GridNetworkOptions options = campaign_network_options(
      net::renater_network(static_cast<int>(grid.cluster_count())), ensemble);
  const GridSimResult priced = simulate_grid(grid, ensemble, heuristic, 1, options);

  EXPECT_GT(priced.makespan, netless.makespan);
  EXPECT_GT(priced.transfer_mb, 0.0);
  bool any_staging = false;
  for (std::size_t c = 0; c < priced.cluster_makespans.size(); ++c) {
    if (priced.repartition.dags_per_cluster[c] == 0) {
      EXPECT_EQ(priced.staging_seconds[c], 0.0);
      EXPECT_EQ(priced.collection_seconds[c], 0.0);
      continue;
    }
    // Remote clusters pay real staging and collection time; the home
    // cluster pays (cheaper) intra-fabric time.
    if (static_cast<ClusterId>(c) != options.home) {
      EXPECT_GT(priced.staging_seconds[c], 0.0);
      EXPECT_GT(priced.collection_seconds[c], 0.0);
    }
    any_staging = any_staging || priced.staging_seconds[c] > 0.0;
    EXPECT_GE(priced.cluster_makespans[c],
              priced.staging_seconds[c] + priced.collection_seconds[c]);
  }
  EXPECT_TRUE(any_staging);
}

TEST(GridSimNetwork, CampaignVolumesScaleWithMonths) {
  const Ensemble short_run{4, 6};
  const Ensemble long_run{4, 24};
  const auto net = net::renater_network(2);
  const GridNetworkOptions a = campaign_network_options(net, short_run);
  const GridNetworkOptions b = campaign_network_options(net, long_run);
  // Staging ships the initial restart (month-count independent); collection
  // grows with the diagnostics the extra months produce.
  EXPECT_DOUBLE_EQ(a.stage_mb_per_scenario, b.stage_mb_per_scenario);
  EXPECT_GT(b.collect_mb_per_scenario, a.collect_mb_per_scenario);
  EXPECT_GT(a.stage_mb_per_scenario, 0.0);
  EXPECT_GT(a.collect_mb_per_scenario, 0.0);
}

TEST(GridSimNetwork, RejectsMismatchedClusterCount) {
  const auto grid = platform::make_builtin_grid(25).prefix(3);
  GridNetworkOptions options;
  options.network = net::renater_network(2);  // grid has 3
  EXPECT_THROW((void)simulate_grid(grid, Ensemble{4, 6},
                                   sched::Heuristic::kBasic, 1, options),
               std::invalid_argument);
}

TEST(CampaignTransfers, CollectionLeavesAtSimulatedStagingFinishPlusCompute) {
  // Home 0 ships 3 x 120 MB to cluster 1 over a zero-latency 12.5 MB/s link.
  GridNetworkOptions options;
  options.network = net::NetworkModel(2);
  options.network.set_link(0, 1, net::LinkSpec{12.5, 0.0});
  options.stage_mb_per_scenario = 120.0;
  options.collect_mb_per_scenario = 120.0;
  const std::vector<Count> shares = {0, 3};
  const std::vector<Seconds> compute = {0.0, 1000.0};

  const CampaignTransfers moved =
      simulate_campaign_transfers(options, shares, compute);

  const std::vector<net::TransferRequest> staging(3, {0, 1, 120.0, 0.0});
  const net::TransferPlan staged =
      net::simulate_transfers(options.network, staging);
  Seconds staging_finish = 0.0;
  for (const net::TransferResult& r : staged.results)
    staging_finish = std::max(staging_finish, r.finish);
  const Seconds release = staging_finish + compute[1];
  const std::vector<net::TransferRequest> collection(3,
                                                     {1, 0, 120.0, release});
  const net::TransferPlan collected =
      net::simulate_transfers(options.network, collection);
  Seconds collection_tail = 0.0;
  for (const net::TransferResult& r : collected.results)
    collection_tail = std::max(collection_tail, r.finish - release);

  EXPECT_EQ(moved.staging_seconds, (std::vector<Seconds>{0.0, staging_finish}));
  EXPECT_EQ(moved.collection_seconds,
            (std::vector<Seconds>{0.0, collection_tail}));
  EXPECT_EQ(moved.transfer_mb, staged.total_mb + collected.total_mb);
  EXPECT_EQ(moved.deadline_misses, 0);
  // The release is the simulated staging finish, not the analytic batch
  // time latency + k * size / bw, which here differs in the last bit.
  EXPECT_NE(staging_finish, options.network.transfer_time(0, 1, 360.0));

  // Every 28.8 s transfer overruns a 10 s deadline; the timing does not move.
  const CampaignTransfers tight =
      simulate_campaign_transfers(options, shares, compute, 10.0);
  EXPECT_EQ(tight.deadline_misses, 6);
  EXPECT_EQ(tight.collection_seconds, moved.collection_seconds);
}

TEST(GridSimNetwork, SlowNetworkConcentratesLoadAtHome) {
  // When shipping data dwarfs computing, the charged Algorithm 1 keeps
  // scenarios at the home cluster even though remote capacity is idle.
  const auto grid = platform::make_builtin_grid(30).prefix(3);
  const Ensemble ensemble{6, 12};

  GridNetworkOptions crippled = campaign_network_options(
      net::uniform_network(3, net::LinkSpec{0.001, 1.0}), ensemble);
  const GridSimResult r =
      simulate_grid(grid, ensemble, sched::Heuristic::kKnapsack, 1, crippled);
  EXPECT_EQ(r.repartition.dags_per_cluster[0], 6);
  EXPECT_EQ(r.repartition.dags_per_cluster[1], 0);
  EXPECT_EQ(r.repartition.dags_per_cluster[2], 0);
}

}  // namespace
}  // namespace oagrid::sim
