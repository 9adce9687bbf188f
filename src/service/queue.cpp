#include "service/queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace oagrid::service {

const char* to_string(QueuePolicy policy) noexcept {
  switch (policy) {
    case QueuePolicy::kFifo: return "fifo";
    case QueuePolicy::kWeightedFairShare: return "fair";
    case QueuePolicy::kShortestRemaining: return "srmf";
  }
  return "?";
}

QueuePolicy queue_policy_from(const std::string& name) {
  if (name == "fifo") return QueuePolicy::kFifo;
  if (name == "fair") return QueuePolicy::kWeightedFairShare;
  if (name == "srmf") return QueuePolicy::kShortestRemaining;
  throw std::invalid_argument("unknown queue policy '" + name +
                              "' (fifo | fair | srmf)");
}

CampaignQueue::CampaignQueue(QueuePolicy policy, std::size_t capacity)
    : policy_(policy), capacity_(capacity) {
  OAGRID_REQUIRE(capacity >= 1, "queue capacity must be at least 1");
}

bool CampaignQueue::try_enqueue(CampaignId id, double priority,
                                BucketKey bucket) {
  if (full()) return false;
  OAGRID_REQUIRE(slots_.find(id) == slots_.end(), "campaign already queued");
  switch (policy_) {
    case QueuePolicy::kFifo:
      priority = 0.0;
      bucket = 0;
      break;
    case QueuePolicy::kShortestRemaining:
      bucket = id;
      break;
    case QueuePolicy::kWeightedFairShare:
      break;
  }
  const auto found = buckets_.find(bucket);
  OAGRID_REQUIRE(found == buckets_.end() || found->second.priority == priority,
                 "a bucket's campaigns must share one priority");
  const std::uint64_t seq = next_seq_++;
  slots_.emplace(id, Slot{seq, bucket});
  by_seq_.emplace(seq, id);
  if (found != buckets_.end()) {
    // A later seq never becomes the head of a non-empty bucket.
    found->second.members.emplace(seq, id);
  } else {
    Bucket& fresh = buckets_[bucket];
    fresh.priority = priority;
    fresh.members.emplace(seq, id);
    index_.insert(key_of(bucket, fresh));
  }
  return true;
}

void CampaignQueue::remove(CampaignId id) {
  const auto slot = slots_.find(id);
  OAGRID_REQUIRE(slot != slots_.end(), "campaign not queued");
  const auto [seq, key] = slot->second;
  slots_.erase(slot);
  by_seq_.erase(seq);
  const auto it = buckets_.find(key);
  Bucket& bucket = it->second;
  const bool head = bucket.members.begin()->first == seq;
  if (head) index_.erase(key_of(key, bucket));
  bucket.members.erase(seq);
  if (bucket.members.empty()) {
    buckets_.erase(it);
  } else if (head) {
    index_.insert(key_of(key, bucket));
  }
}

void CampaignQueue::set_bucket_priority(BucketKey bucket, double priority) {
  if (policy_ == QueuePolicy::kFifo) return;
  const auto it = buckets_.find(bucket);
  if (it == buckets_.end() || it->second.priority == priority) return;
  index_.erase(key_of(bucket, it->second));
  it->second.priority = priority;
  index_.insert(key_of(bucket, it->second));
}

CampaignId CampaignQueue::front() const {
  OAGRID_REQUIRE(!index_.empty(), "front() on an empty queue");
  return buckets_.at(std::get<2>(*index_.begin())).members.begin()->second;
}

std::vector<CampaignId> CampaignQueue::queued() const {
  std::vector<CampaignId> ids;
  ids.reserve(by_seq_.size());
  for (const auto& [seq, id] : by_seq_) ids.push_back(id);
  return ids;
}

std::vector<CampaignId> CampaignQueue::admission_order(
    const std::function<double(CampaignId)>& priority) const {
  std::vector<CampaignId> order = queued();
  if (policy_ == QueuePolicy::kFifo) return order;
  // Stable sort: equal priorities keep submission order, so the ordering is
  // deterministic and replayable.
  std::stable_sort(order.begin(), order.end(),
                   [&](CampaignId a, CampaignId b) {
                     return priority(a) < priority(b);
                   });
  return order;
}

}  // namespace oagrid::service
