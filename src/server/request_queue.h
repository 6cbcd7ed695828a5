// Bounded request queue — the per-shard admission buffer of the KV service.
//
// Open-loop traffic needs explicit backpressure: when arrivals outrun
// service capacity the queue fills and try_push fails, turning overload into
// a counted rejection instead of unbounded memory growth (DESIGN.md §4).
// The default service layout is MPSC (many submitters, one worker per
// shard), but nothing here assumes a single consumer, so scenarios may run
// a big/little worker pair per shard.
//
// Class-aware admission (DESIGN.md §6) is expressed as a per-push depth
// limit: try_push_below(item, limit) admits only while the current depth is
// under `limit`, so a sheddable request class can be rejected at a watermark
// below the physical capacity while protected classes keep using the full
// queue. The queue itself stays class-blind — the caller (KvService /
// SimKvService) derives the limit from its AdmissionPolicy, and the
// tri-state PushResult tells it whether a rejection was a deliberate shed
// (watermark hit, queue not full) or genuine exhaustion.
//
// Producers never block; consumers block on a CondVar (the litl-style
// shadow-mutex condvar from asl/condvar.h) until an item or close() arrives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "asl/condvar.h"
#include "locks/pthread_lock.h"
#include "platform/cacheline.h"

namespace asl::server {

// Outcome of a depth-limited push. kShed is only possible when the caller's
// limit is below the physical capacity: the queue had room, but the class's
// watermark said to bounce the request anyway.
enum class PushResult : std::uint8_t {
  kOk = 0,    // admitted
  kShed = 1,  // rejected by the caller's depth limit (queue not full)
  kFull = 2,  // rejected by capacity exhaustion or close()
};

// The admission rule of a depth-limited push, on an open queue holding
// `depth` of `capacity` slots: capacity exhaustion first, then the caller's
// limit — a shed is reported only when the queue still had room. The
// twin's queue model (sim_kv_service.cpp) admits by this same function.
inline PushResult admission_decision(std::size_t depth, std::size_t capacity,
                                     std::size_t limit) {
  if (depth >= capacity) return PushResult::kFull;
  if (depth >= limit) return PushResult::kShed;
  return PushResult::kOk;
}

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {
    ring_.resize(capacity_);
  }
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed (the caller
  // counts the rejection). Equivalent to try_push_below(item, capacity()).
  bool try_push(T item) {
    return try_push_below(std::move(item), capacity_) == PushResult::kOk;
  }

  // Non-blocking push with a caller-supplied depth limit: admits only while
  // the current depth is strictly below min(limit, capacity). The limit is
  // evaluated under the queue lock, so the shed decision and the push are
  // one atomic step — a concurrent pop cannot turn a shed into a spurious
  // full-queue rejection or vice versa. A limit >= capacity degenerates to
  // plain try_push (kShed is never returned); a limit of 0 sheds everything
  // for that class while the queue stays open to others.
  PushResult try_push_below(T item, std::size_t limit) {
    lock_.lock();
    const PushResult decision =
        closed_ ? PushResult::kFull
                : admission_decision(count_, capacity_, limit);
    if (decision != PushResult::kOk) {
      lock_.unlock();
      return decision;
    }
    ring_[(head_ + count_) % capacity_] = std::move(item);
    count_ += 1;
    lock_.unlock();
    not_empty_.signal();
    return PushResult::kOk;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false). Closed-but-nonempty queues keep delivering, so
  // every accepted request is eventually served.
  bool pop(T& out) {
    lock_.lock();
    while (count_ == 0 && !closed_) {
      not_empty_.wait(lock_);
    }
    if (count_ == 0) {
      lock_.unlock();
      return false;
    }
    out = std::move(ring_[head_]);
    // Reset the slot: a moved-from element may still own resources (arena
    // handles, strings), and leaving it in the ring keeps them alive until
    // the slot happens to be overwritten — a leak-by-delay under low load.
    ring_[head_] = T{};
    head_ = (head_ + 1) % capacity_;
    count_ -= 1;
    lock_.unlock();
    return true;
  }

  // Non-blocking pop: true and an item when one is immediately available,
  // false otherwise (empty or closed-and-drained). Workers use this to
  // extend a batch after the blocking pop delivered its head — the batch
  // grows only with requests that are already waiting, it never stalls the
  // critical section waiting for arrivals.
  bool try_pop(T& out) {
    lock_.lock();
    if (count_ == 0) {
      lock_.unlock();
      return false;
    }
    out = std::move(ring_[head_]);
    ring_[head_] = T{};  // same leak-by-delay rule as pop()
    head_ = (head_ + 1) % capacity_;
    count_ -= 1;
    lock_.unlock();
    return true;
  }

  // Rejects future pushes and wakes all poppers. Idempotent.
  void close() {
    lock_.lock();
    closed_ = true;
    lock_.unlock();
    not_empty_.broadcast();
  }

  // Instantaneous depth; a point-in-time read that concurrent pushes and
  // pops may move immediately.
  std::size_t size() const {
    lock_.lock();
    const std::size_t n = count_;
    lock_.unlock();
    return n;
  }

  // The clamped capacity (construction clamps 0 to 1); constant, so
  // callers may derive admission thresholds from it once.
  std::size_t capacity() const { return capacity_; }

  // Whether close() has been called. Closed is terminal: pushes fail
  // forever, pops drain what remains.
  bool closed() const {
    lock_.lock();
    const bool c = closed_;
    lock_.unlock();
    return c;
  }

 private:
  // Cache-line placement: the immutable fields (capacity_, the ring's
  // control block — its data pointer never moves after construction) share
  // a read-only line, while the lock word sits on its own line *with* the
  // cursors it guards — lock, head_, count_ and closed_ travel together
  // through every push/pop, so splitting them across lines would just add
  // coherence misses, and padding the group keeps neighbouring objects
  // (the shard's BlockingAslMutex, another queue in an array) from sharing
  // a line with this queue's hottest word.
  const std::size_t capacity_;
  std::vector<T> ring_;   // ring buffer: [head_, head_ + count_) mod capacity
  alignas(kCacheLine) mutable PthreadLock lock_;
  std::size_t head_ = 0;  // guarded by lock_
  std::size_t count_ = 0;
  bool closed_ = false;
  CondVar not_empty_;
};

}  // namespace asl::server
