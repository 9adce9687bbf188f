#pragma once
/// \file queue.hpp
/// \brief Multi-tenant admission queue with a pluggable ordering policy.
///
/// The queue holds submitted-but-not-yet-admitted campaigns. Admission
/// control is two-staged: a bounded queue rejects submissions outright when
/// the service is saturated (back-pressure to the tenant), and the ordering
/// policy decides *which* queued campaign is admitted when grid capacity
/// frees up:
///  * kFifo — submission order (the single-tenant baseline);
///  * kWeightedFairShare — the owner with the least weight-normalized
///    consumed processor-seconds goes first (classic fair-share decay-free
///    accounting; Beránek et al. evaluate schedulers under exactly this
///    kind of long-lived multi-workflow service);
///  * kShortestRemaining — smallest estimated remaining makespan first
///    (latency/throughput trade-off of Benoit et al.; the estimate comes
///    from the sched performance vectors).
///
/// The queue itself is deliberately persistence-free: its contents and
/// order are fully re-derivable from the journal (submitted minus
/// admitted/rejected, in submission order), which recovery exploits.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "service/campaign.hpp"

namespace oagrid::service {

enum class QueuePolicy : std::uint8_t {
  kFifo = 0,
  kWeightedFairShare = 1,
  kShortestRemaining = 2,
};

[[nodiscard]] const char* to_string(QueuePolicy policy) noexcept;
/// Parses "fifo" | "fair" | "srmf"; throws std::invalid_argument otherwise.
[[nodiscard]] QueuePolicy queue_policy_from(const std::string& name);

/// The queue is a set of *buckets*. Every campaign of a bucket has the
/// bucket's priority, so a bucket is FIFO by submission seq and only its head
/// can be next. The ordered index holds one key per non-empty bucket,
/// (priority, head seq, bucket), and front() is the head of the lowest key:
/// the same campaign as the lowest (priority, submission seq) over all queued
/// campaigns, bit for bit, because seqs are unique. Which campaigns share a
/// bucket is the policy's business:
///  * kFifo — one bucket of priority 0 (priorities are ignored);
///  * kShortestRemaining — each campaign its own bucket, keyed by its id
///    (srmf estimates never change while queued);
///  * kWeightedFairShare — the caller's bucket, one per (owner, weight): all
///    of them share the priority owner_consumed / weight, and the service
///    re-keys an owner's buckets whenever that owner's consumption changes.
///
/// Enqueue, remove and re-keying a bucket are O(log n); re-keying touches
/// one index key however many campaigns the bucket holds, so the service
/// never sorts or re-keys the whole queue per admission event.
class CampaignQueue {
 public:
  /// Names a bucket; chosen by the caller under kWeightedFairShare, derived
  /// by the queue otherwise (see above).
  using BucketKey = std::uint64_t;

  explicit CampaignQueue(QueuePolicy policy, std::size_t capacity);

  [[nodiscard]] QueuePolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t depth() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return slots_.size() >= capacity_;
  }

  /// Admission-control stage 1: false when the queue is full (the campaign
  /// is rejected and never enters). Appends `id` to its bucket; `priority`
  /// must equal that of the bucket's other campaigns, if it has any
  /// (both are ignored under kFifo, `bucket` also under kShortestRemaining).
  [[nodiscard]] bool try_enqueue(CampaignId id, double priority = 0.0,
                                 BucketKey bucket = 0);

  /// Removes an admitted (or cancelled) campaign. O(log n).
  void remove(CampaignId id);

  /// Re-keys every campaign of `bucket` to `priority` (e.g. its owner's
  /// consumed share moved). O(log n); a no-op if the bucket is empty or the
  /// priority unchanged, and always under kFifo.
  void set_bucket_priority(BucketKey bucket, double priority);

  /// Head of the admission order: lowest (priority, submission seq).
  /// Requires a non-empty queue.
  [[nodiscard]] CampaignId front() const;

  /// Queued ids in submission order (stable across recovery). O(n).
  [[nodiscard]] std::vector<CampaignId> queued() const;

  /// Admission order under the policy: queued ids sorted by ascending
  /// `priority` (ties broken by submission order). The service supplies the
  /// priority function (owner fair-share usage or remaining-makespan
  /// estimate); kFifo ignores it. A full sort — introspection and tests;
  /// the service itself reads front() off the maintained index.
  [[nodiscard]] std::vector<CampaignId> admission_order(
      const std::function<double(CampaignId)>& priority) const;

 private:
  struct Bucket {
    double priority = 0.0;
    std::map<std::uint64_t, CampaignId> members;  ///< by submission seq
  };
  struct Slot {
    std::uint64_t seq = 0;
    BucketKey bucket = 0;
  };
  /// (priority, head seq, bucket) of one non-empty bucket.
  using IndexKey = std::tuple<double, std::uint64_t, BucketKey>;

  [[nodiscard]] static IndexKey key_of(BucketKey key, const Bucket& bucket) {
    return {bucket.priority, bucket.members.begin()->first, key};
  }

  QueuePolicy policy_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::map<CampaignId, Slot> slots_;
  std::map<std::uint64_t, CampaignId> by_seq_;  ///< submission order
  std::map<BucketKey, Bucket> buckets_;         ///< non-empty buckets only
  std::set<IndexKey> index_;                    ///< one key per bucket
};

}  // namespace oagrid::service
