#include "ds/bucket_queue.h"

#include <algorithm>

namespace rpmis {

BucketQueue::BucketQueue(Vertex n, uint32_t max_key)
    : bucket_head_(static_cast<size_t>(max_key) + 1, kNil),
      prev_(n, kNil),
      next_(n, kNil),
      key_(n, 0),
      in_queue_(n, 0),
      min_bound_(max_key),
      max_bound_(0) {}

BucketQueue BucketQueue::FromKeys(std::span<const uint32_t> keys, uint32_t max_key) {
  BucketQueue q(static_cast<Vertex>(keys.size()), max_key);
  for (Vertex v = 0; v < keys.size(); ++v) q.Insert(v, keys[v]);
  return q;
}

void BucketQueue::LinkFront(Vertex v, uint32_t key) {
  RPMIS_DASSERT(key < bucket_head_.size());
  key_[v] = key;
  prev_[v] = kNil;
  next_[v] = bucket_head_[key];
  if (bucket_head_[key] != kNil) prev_[bucket_head_[key]] = v;
  bucket_head_[key] = v;
  if (key < min_bound_) min_bound_ = key;
  if (key > max_bound_) max_bound_ = key;
}

void BucketQueue::UnlinkNode(Vertex v) {
  if (prev_[v] != kNil) {
    next_[prev_[v]] = next_[v];
  } else {
    RPMIS_DASSERT(bucket_head_[key_[v]] == v);
    bucket_head_[key_[v]] = next_[v];
  }
  if (next_[v] != kNil) prev_[next_[v]] = prev_[v];
}

void BucketQueue::Insert(Vertex v, uint32_t key) {
  RPMIS_ASSERT(!Contains(v));
  LinkFront(v, key);
  in_queue_[v] = 1;
  ++size_;
}

void BucketQueue::Remove(Vertex v) {
  RPMIS_ASSERT(Contains(v));
  UnlinkNode(v);
  in_queue_[v] = 0;
  --size_;
}

void BucketQueue::Update(Vertex v, uint32_t key) {
  RPMIS_ASSERT(Contains(v));
  if (key_[v] == key) return;
  UnlinkNode(v);
  LinkFront(v, key);
}

void BucketQueue::SettleMin() {
  RPMIS_ASSERT(!Empty());
  while (bucket_head_[min_bound_] == kNil) ++min_bound_;
}

void BucketQueue::SettleMax() {
  RPMIS_ASSERT(!Empty());
  while (bucket_head_[max_bound_] == kNil) --max_bound_;
}

uint32_t BucketQueue::MinKey() {
  SettleMin();
  return min_bound_;
}

uint32_t BucketQueue::MaxKey() {
  SettleMax();
  return max_bound_;
}

Vertex BucketQueue::PopMin() {
  SettleMin();
  const Vertex v = bucket_head_[min_bound_];
  Remove(v);
  return v;
}

Vertex BucketQueue::PopMax() {
  SettleMax();
  const Vertex v = bucket_head_[max_bound_];
  Remove(v);
  return v;
}

LazyMaxBucketQueue::LazyMaxBucketQueue(std::span<const uint32_t> keys)
    : next_(keys.size(), kInvalidVertex), max_bound_(0) {
  uint32_t max_key = 0;
  for (uint32_t k : keys) max_key = std::max(max_key, k);
  bucket_head_.assign(static_cast<size_t>(max_key) + 1, kInvalidVertex);
  for (Vertex v = 0; v < keys.size(); ++v) {
    next_[v] = bucket_head_[keys[v]];
    bucket_head_[keys[v]] = v;
  }
  max_bound_ = max_key;
  if (keys.empty()) max_bound_ = kNoBucket;
}

}  // namespace rpmis
