#include "service/queue.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

namespace oagrid::service {
namespace {

TEST(QueuePolicy, ParsesAndPrints) {
  EXPECT_EQ(queue_policy_from("fifo"), QueuePolicy::kFifo);
  EXPECT_EQ(queue_policy_from("fair"), QueuePolicy::kWeightedFairShare);
  EXPECT_EQ(queue_policy_from("srmf"), QueuePolicy::kShortestRemaining);
  EXPECT_STREQ(to_string(QueuePolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(QueuePolicy::kWeightedFairShare), "fair");
  EXPECT_STREQ(to_string(QueuePolicy::kShortestRemaining), "srmf");
  EXPECT_THROW((void)queue_policy_from("lifo"), std::invalid_argument);
}

TEST(CampaignQueue, BoundedCapacityRejects) {
  CampaignQueue queue(QueuePolicy::kFifo, 2);
  EXPECT_TRUE(queue.try_enqueue(1));
  EXPECT_TRUE(queue.try_enqueue(2));
  EXPECT_FALSE(queue.try_enqueue(3));  // admission control back-pressure
  EXPECT_EQ(queue.depth(), 2u);
  queue.remove(1);
  EXPECT_TRUE(queue.try_enqueue(3));
}

TEST(CampaignQueue, RemoveUnknownThrows) {
  CampaignQueue queue(QueuePolicy::kFifo, 4);
  ASSERT_TRUE(queue.try_enqueue(1));
  EXPECT_THROW(queue.remove(2), std::invalid_argument);
}

TEST(CampaignQueue, FifoIgnoresPriorities) {
  CampaignQueue queue(QueuePolicy::kFifo, 8);
  for (CampaignId id : {5u, 3u, 9u, 1u}) ASSERT_TRUE(queue.try_enqueue(id));
  const auto order = queue.admission_order(
      [](CampaignId id) { return -static_cast<double>(id); });
  EXPECT_EQ(order, (std::vector<CampaignId>{5, 3, 9, 1}));
}

TEST(CampaignQueue, PolicySortsAscendingWithStableTies) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  for (CampaignId id : {1u, 2u, 3u, 4u}) ASSERT_TRUE(queue.try_enqueue(id));
  const std::map<CampaignId, double> priority{
      {1, 2.0}, {2, 0.5}, {3, 2.0}, {4, 0.5}};
  const auto order =
      queue.admission_order([&](CampaignId id) { return priority.at(id); });
  // 2 and 4 share the lowest priority: submission order breaks the tie.
  EXPECT_EQ(order, (std::vector<CampaignId>{2, 4, 1, 3}));
}

TEST(CampaignQueue, FrontTracksTheMaintainedIndex) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 2.0, /*bucket=*/10));
  ASSERT_TRUE(queue.try_enqueue(2, 0.5, /*bucket=*/11));
  ASSERT_TRUE(queue.try_enqueue(3, 1.0, /*bucket=*/12));
  EXPECT_EQ(queue.front(), 2u);
  queue.remove(2);
  EXPECT_EQ(queue.front(), 3u);
  queue.remove(3);
  EXPECT_EQ(queue.front(), 1u);
  queue.remove(1);
  EXPECT_TRUE(queue.empty());
  EXPECT_THROW((void)queue.front(), std::invalid_argument);
}

TEST(CampaignQueue, BucketPriorityRekeysInPlace) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 1.0, /*bucket=*/0));
  ASSERT_TRUE(queue.try_enqueue(2, 2.0, /*bucket=*/1));
  ASSERT_TRUE(queue.try_enqueue(3, 1.0, /*bucket=*/0));
  EXPECT_EQ(queue.front(), 1u);
  queue.set_bucket_priority(0, 3.0);  // moves 1 and 3 together
  EXPECT_EQ(queue.front(), 2u);
  queue.set_bucket_priority(1, 3.0);  // now tied: submission order decides
  EXPECT_EQ(queue.front(), 1u);
  queue.remove(1);  // the bucket's next member becomes its head
  EXPECT_EQ(queue.front(), 2u);
  queue.set_bucket_priority(0, 2.5);
  EXPECT_EQ(queue.front(), 3u);
  queue.set_bucket_priority(7, 0.0);  // an empty bucket: nothing to re-key
  EXPECT_EQ(queue.front(), 3u);
}

TEST(CampaignQueue, BucketMembersShareOnePriority) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 1.0, /*bucket=*/4));
  EXPECT_THROW((void)queue.try_enqueue(2, 2.0, /*bucket=*/4),
               std::invalid_argument);
  EXPECT_EQ(queue.depth(), 1u);
  queue.remove(1);  // an emptied bucket takes the next priority it is given
  EXPECT_TRUE(queue.try_enqueue(2, 2.0, /*bucket=*/4));
}

TEST(CampaignQueue, ShortestRemainingGivesEachCampaignItsOwnBucket) {
  CampaignQueue queue(QueuePolicy::kShortestRemaining, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 5.0));
  ASSERT_TRUE(queue.try_enqueue(2, 3.0));
  ASSERT_TRUE(queue.try_enqueue(3, 4.0));
  EXPECT_EQ(queue.front(), 2u);
  queue.set_bucket_priority(3, 1.0);  // a campaign's bucket is its id
  EXPECT_EQ(queue.front(), 3u);
}

TEST(CampaignQueue, QueuedKeepsSubmissionOrderAcrossRemovals) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  for (CampaignId id : {4u, 2u, 7u, 5u})
    ASSERT_TRUE(queue.try_enqueue(id, static_cast<double>(id), id));
  queue.remove(queue.front());  // 2
  queue.remove(7);
  EXPECT_EQ(queue.queued(), (std::vector<CampaignId>{4, 5}));
}

TEST(CampaignQueue, FrontAgreesWithAdmissionOrderUnderChurn) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 32);
  std::map<CampaignId, double> priority;
  const auto lookup = [&](CampaignId id) { return priority.at(id); };
  // Deterministic churn over five buckets: enqueue, re-key and remove in a
  // scripted pattern, checking the O(log n) head against the full stable
  // sort every step. Campaign id's bucket is id % 5.
  for (CampaignId id = 1; id <= 20; ++id) {
    priority[id] = static_cast<double>((id % 5 * 7) % 4);
    ASSERT_TRUE(queue.try_enqueue(id, priority[id], id % 5));
    EXPECT_EQ(queue.front(), queue.admission_order(lookup).front());
  }
  for (CampaignId id = 1; id <= 20; ++id) {
    if (id % 3 == 0) {
      const double moved = static_cast<double>((id * 11) % 7);
      queue.set_bucket_priority(id % 5, moved);
      for (auto& [member, p] : priority)
        if (member % 5 == id % 5) p = moved;
    }
    if (id % 4 == 0) {
      queue.remove(id);
      priority.erase(id);
    }
    EXPECT_EQ(queue.front(), queue.admission_order(lookup).front());
  }
}

// The bucket index against the flat (priority, seq) index it replaces.
// Fair-share shaped: each owner has 2-3 weights, one bucket per (owner,
// weight) with priority consumed / weight. Consumption moves in steps of 6
// from 0, so 6/1 == 12/2 == 18/3: priorities tie exactly, within an owner
// and across owners, and only the submission seq can break the tie.
TEST(CampaignQueue, BucketHeadsMatchTheFlatIndexUnderRandomChurn) {
  constexpr int kOwners = 12;
  constexpr std::size_t kCapacity = 96;
  const double kWeights[] = {1.0, 2.0, 3.0};
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    std::mt19937_64 rng(seed);
    const auto draw = [&](int n) {
      return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    };
    CampaignQueue queue(QueuePolicy::kWeightedFairShare, kCapacity);
    using Flat = std::tuple<double, std::uint64_t, CampaignId>;
    std::set<Flat> flat;
    struct Member {
      int owner = 0;
      int weight = 0;
      std::uint64_t seq = 0;
    };
    std::map<CampaignId, Member> members;
    std::vector<int> weights_of(kOwners);
    for (int& n : weights_of) n = 2 + draw(2);
    std::vector<double> consumed(kOwners, 0.0);
    const auto priority = [&](int owner, int weight) {
      return consumed[static_cast<std::size_t>(owner)] /
             kWeights[weight];
    };
    const auto bucket = [](int owner, int weight) {
      return static_cast<CampaignQueue::BucketKey>(owner * 3 + weight);
    };
    CampaignId next_id = 1;
    std::uint64_t next_seq = 0;
    for (int step = 0; step < 3000; ++step) {
      const int roll = draw(8);
      if (roll < 4) {
        const int owner = draw(kOwners);
        const int weight = draw(weights_of[static_cast<std::size_t>(owner)]);
        const CampaignId id = next_id++;
        const bool room = flat.size() < kCapacity;
        ASSERT_EQ(queue.try_enqueue(id, priority(owner, weight),
                                    bucket(owner, weight)),
                  room);
        if (room) {
          members[id] = {owner, weight, next_seq};
          flat.insert({priority(owner, weight), next_seq++, id});
        }
      } else if (roll < 6 && !flat.empty()) {
        // Half admissions (the head leaves), half cancellations.
        auto it = members.begin();
        if (roll == 4)
          it = members.find(std::get<2>(*flat.begin()));
        else
          std::advance(it, draw(static_cast<int>(members.size())));
        const Member& m = it->second;
        flat.erase({priority(m.owner, m.weight), m.seq, it->first});
        queue.remove(it->first);
        members.erase(it);
      } else {
        const int owner = draw(kOwners);
        for (auto& [id, m] : members)
          if (m.owner == owner)
            flat.erase({priority(m.owner, m.weight), m.seq, id});
        consumed[static_cast<std::size_t>(owner)] += 6.0 * draw(3);
        for (const auto& [id, m] : members)
          if (m.owner == owner)
            flat.insert({priority(m.owner, m.weight), m.seq, id});
        for (int w = 0; w < weights_of[static_cast<std::size_t>(owner)]; ++w)
          queue.set_bucket_priority(bucket(owner, w), priority(owner, w));
      }
      ASSERT_EQ(queue.depth(), flat.size()) << "seed " << seed;
      if (!flat.empty()) {
        ASSERT_EQ(queue.front(), std::get<2>(*flat.begin()))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(CampaignQueue, FifoFrontIsSubmissionOrderWhateverThePriorities) {
  CampaignQueue queue(QueuePolicy::kFifo, 8);
  ASSERT_TRUE(queue.try_enqueue(5, 9.0, /*bucket=*/1));
  ASSERT_TRUE(queue.try_enqueue(3, 0.0, /*bucket=*/2));
  queue.set_bucket_priority(0, -1.0);  // no-op under fifo
  EXPECT_EQ(queue.front(), 5u);
}

TEST(CampaignQueue, FullReportsCapacity) {
  CampaignQueue queue(QueuePolicy::kFifo, 2);
  EXPECT_FALSE(queue.full());
  ASSERT_TRUE(queue.try_enqueue(1));
  ASSERT_TRUE(queue.try_enqueue(2));
  EXPECT_TRUE(queue.full());
  queue.remove(1);
  EXPECT_FALSE(queue.full());
}

}  // namespace
}  // namespace oagrid::service
