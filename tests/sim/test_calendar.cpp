#include "sim/calendar.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace oagrid::sim {
namespace {

/// Pops every pending event, returning the payloads in pop order.
std::vector<int> drain(Calendar<int>& calendar) {
  std::vector<int> order;
  while (!calendar.empty()) order.push_back(calendar.pop());
  return order;
}

TEST(Calendar, PopsInTimeOrder) {
  Calendar<int> calendar;
  calendar.schedule(5.0, 2);
  calendar.schedule(1.0, 1);
  calendar.schedule(9.0, 3);
  EXPECT_EQ(drain(calendar), (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(calendar.now(), 9.0);
}

TEST(Calendar, SimultaneousEventsPopInInsertionOrder) {
  Calendar<int> calendar;
  // Interleave an earlier event so the ties are not simply the heap's
  // insertion layout.
  for (int i = 0; i < 10; ++i) {
    calendar.schedule(7.0, i);
    if (i == 4) calendar.schedule(3.0, -1);
  }
  const std::vector<int> order = drain(calendar);
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(Calendar, EventsScheduledWhileDrainingAreHonoured) {
  Calendar<int> calendar;
  calendar.schedule(0.0, 0);
  std::vector<int> order;
  while (!calendar.empty()) {
    const int event = calendar.pop();
    order.push_back(event);
    if (event < 4) calendar.schedule(calendar.now() + 1.0, event + 1);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(calendar.now(), 4.0);
}

TEST(Calendar, EventAtNowRunsAtNow) {
  Calendar<int> calendar;
  calendar.schedule(3.0, 1);
  calendar.schedule(8.0, 3);
  ASSERT_EQ(calendar.pop(), 1);
  calendar.schedule(calendar.now(), 2);
  ASSERT_EQ(calendar.pop(), 2);
  EXPECT_DOUBLE_EQ(calendar.now(), 3.0);
  EXPECT_EQ(calendar.pop(), 3);
}

TEST(Calendar, NowAdvancesOnPop) {
  Calendar<int> calendar;
  EXPECT_DOUBLE_EQ(calendar.now(), 0.0);
  calendar.schedule(2.0, 1);
  calendar.schedule(6.0, 2);
  EXPECT_DOUBLE_EQ(calendar.now(), 0.0);  // scheduling does not move time
  calendar.pop();
  EXPECT_DOUBLE_EQ(calendar.now(), 2.0);
  calendar.pop();
  EXPECT_DOUBLE_EQ(calendar.now(), 6.0);
}

TEST(Calendar, SchedulingInThePastThrows) {
  Calendar<int> calendar;
  EXPECT_THROW(calendar.schedule(-1.0, 0), std::invalid_argument);
  calendar.schedule(5.0, 1);
  calendar.pop();
  EXPECT_THROW(calendar.schedule(4.0, 2), std::invalid_argument);
  EXPECT_TRUE(calendar.empty());
}

TEST(Calendar, PendingCountsScheduledEvents) {
  Calendar<int> calendar;
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.pending(), 0u);
  calendar.reserve(4);
  calendar.schedule(1.0, 1);
  calendar.schedule(1.0, 2);
  EXPECT_EQ(calendar.pending(), 2u);
  calendar.pop();
  EXPECT_EQ(calendar.pending(), 1u);
  EXPECT_FALSE(calendar.empty());
}

}  // namespace
}  // namespace oagrid::sim
