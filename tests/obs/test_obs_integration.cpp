/// \file test_obs_integration.cpp
/// \brief End-to-end check of the observability wiring: a real middleware
/// campaign (client -> master agent -> SeDs, as in `oagrid_cli grid`) with
/// obs enabled must leave mailbox wait-time samples, per-cluster utilization
/// gauges and a Chrome trace that passes structural JSON validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "appmodel/ensemble.hpp"
#include "middleware/client.hpp"
#include "middleware/master_agent.hpp"
#include "obs/obs.hpp"
#include "platform/profiles.hpp"

namespace oagrid {
namespace {

/// Minimal structural validation: balanced braces/brackets outside strings,
/// required framing, no dangling comma before the closing bracket.
void expect_valid_chrome_json(const std::string& text) {
  ASSERT_TRUE(text.rfind("{\"traceEvents\":[", 0) == 0) << text.substr(0, 40);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(text.find(",]"), std::string::npos);
  EXPECT_EQ(text.find(",}"), std::string::npos);
}

TEST(ObsIntegration, GridCampaignEmitsMetricsAndParseableTrace) {
  obs::set_enabled(true);
  obs::reset();
  std::size_t prefix_entries = 0;
  {
    const platform::Grid grid = platform::make_builtin_grid(24).prefix(3);
    middleware::MasterAgent agent(grid);
    middleware::Client client(agent);
    const middleware::CampaignResult result =
        client.submit(appmodel::Ensemble{4, 12}, sched::Heuristic::kKnapsack);
    EXPECT_GT(result.makespan, 0.0);
    for (const sched::PerformanceVector& prefix : result.performance)
      prefix_entries += prefix.size();
  }  // SeD threads join here, flushing utilization gauges

  // Mailbox instrumentation saw traffic and produced a wait distribution.
  const auto snaps = obs::metrics().snapshot();
  const auto find = [&](const std::string& name) {
    const auto it =
        std::find_if(snaps.begin(), snaps.end(),
                     [&](const auto& s) { return s.name == name; });
    return it == snaps.end() ? nullptr : &*it;
  };
  const auto* wait = find("middleware.mailbox.wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->kind, obs::MetricSnapshot::Kind::kHistogram);
  EXPECT_GT(wait->histogram.count, 0u);
  EXPECT_GE(wait->histogram.quantile(0.95), wait->histogram.quantile(0.5));

  const auto* sends = find("middleware.mailbox.sends");
  ASSERT_NE(sends, nullptr);
  EXPECT_GT(sends->value, 0.0);

  // Steps 1-3 ran as targeted pulls, and every entry the client kept was
  // computed by a daemon (over-delivered ones are counted too).
  const auto* pulls = find("middleware.perf_pulls");
  ASSERT_NE(pulls, nullptr);
  EXPECT_GE(pulls->value, 3.0);  // at least one per cluster
  const auto* entries = find("sim.perf_vector.entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_GE(entries->value, static_cast<double>(prefix_entries));

  // Every cluster that executed scenarios reported a utilization in (0, 1].
  int utilization_gauges = 0;
  for (const auto& snap : snaps) {
    if (snap.name.rfind("sim.cluster.", 0) == 0 &&
        snap.name.find(".utilization") != std::string::npos) {
      ++utilization_gauges;
      EXPECT_GT(snap.value, 0.0) << snap.name;
      EXPECT_LE(snap.value, 1.0) << snap.name;
    }
  }
  EXPECT_GT(utilization_gauges, 0);

  // The DES recorded work and the trace holds both timelines.
  const auto* events = find("sim.events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->value, 0.0);
  EXPECT_GT(obs::trace_buffer().size(), 0u);
  EXPECT_EQ(obs::trace_buffer().dropped(), 0u);

  bool has_wall = false;
  bool has_sim = false;
  for (const auto& event : obs::trace_buffer().events()) {
    has_wall = has_wall || event.pid == obs::kWallPid;
    has_sim = has_sim || event.pid == obs::kSimPid;
  }
  EXPECT_TRUE(has_wall);  // middleware step spans
  EXPECT_TRUE(has_sim);   // DES mains/posts

  std::ostringstream os;
  obs::write_chrome_trace(os, obs::trace_buffer());
  expect_valid_chrome_json(os.str());

  obs::set_enabled(false);
  obs::reset();
}

TEST(ObsIntegration, DisabledObsRecordsNothing) {
  obs::set_enabled(false);
  obs::reset();
  {
    const platform::Grid grid = platform::make_builtin_grid(24).prefix(2);
    middleware::MasterAgent agent(grid);
    middleware::Client client(agent);
    (void)client.submit(appmodel::Ensemble{2, 6},
                        sched::Heuristic::kKnapsack);
  }
  // Metric names may already be registered (registration survives reset by
  // design), but nothing may have been recorded while disabled.
  for (const auto& snap : obs::metrics().snapshot()) {
    EXPECT_DOUBLE_EQ(snap.value, 0.0) << snap.name;
    EXPECT_EQ(snap.histogram.count, 0u) << snap.name;
  }
  EXPECT_EQ(obs::trace_buffer().size(), 0u);
}

}  // namespace
}  // namespace oagrid
