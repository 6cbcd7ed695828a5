// EpochReclaimer — epoch-based (QSBR-style) deferred memory reclamation for
// the lock-free read path (DESIGN.md §8).
//
// The MVCC engine publishes immutable version nodes through an atomic root
// pointer; readers traverse them without any lock, so a writer that unlinks
// a node can never free it immediately — a reader may still be inside the
// old version. This reclaimer is the standard three-epoch scheme (the EBR/
// QSBR family of pop_setbench's recordmgr, PPoPP'25): readers *pin* the
// domain around each read (announcing the global epoch), writers *retire*
// unlinked nodes tagged with the epoch of retirement, and a retired node is
// freed once the global epoch has advanced two steps past its tag — by then
// every reader that could have reached it has unpinned.
//
// Quiescence signal: a thread is quiescent whenever it holds no pin. In the
// KV service the pin interval nests strictly inside the request's
// epoch_start/epoch_end bracket (asl/runtime.h), so the EpochRegistry's
// per-thread epoch state doubles as the QSBR quiescence map: every epoch
// boundary the service already annotates is a point where the thread is
// provably outside any snapshot read (DESIGN.md §8 spells out the mapping).
//
// Bounded backlog: retire() reclaims in batches and applies backpressure —
// at every batch boundary (each batch-th retirement by a thread) the caller
// sweeps until the domain-wide backlog of unreclaimed nodes is back under
// batch * max(1, participating threads), yielding to let in-flight readers
// unpin (see retire() for the two escape hatches). Between boundaries a
// retiring thread can overshoot by at most one in-flight batch, so the
// whole-domain invariant tests/reclaim_test.cpp pins is
// backlog <= backlog_bound() + batch per retiring thread.
//
// Threading: pin/unpin/retire may be called from any thread (slots are
// indexed by the dense platform thread id). Construction and destruction
// are single-threaded; the destructor frees every outstanding retired node
// and must not race live pins.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "platform/cacheline.h"
#include "platform/raw_spinlock.h"
#include "platform/thread_registry.h"

namespace asl {

struct ReclaimConfig {
  // Retirements per thread between reclamation sweeps, and the unit of the
  // backlog bound: retire() keeps the domain-wide unreclaimed backlog at or
  // under batch * max(1, participating threads).
  std::uint32_t batch = 64;
};

class EpochReclaimer {
 public:
  using Deleter = void (*)(void*);

  explicit EpochReclaimer(ReclaimConfig config = {});
  ~EpochReclaimer();
  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  // --------------------------------------------------------- read side
  // Enters a read-side critical section: announces the current global epoch
  // for this thread. Nests (only the outermost pin announces; unpin of the
  // outermost releases). While pinned, every node retired after the pin
  // stays reachable-safe: it cannot be freed until this thread unpins.
  void pin();
  void unpin();
  // Whether the calling thread currently holds a pin on this domain.
  bool pinned() const;

  // Movable RAII pin — the handle snapshot objects hold.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(EpochReclaimer& domain) : domain_(&domain) {
      domain.pin();
    }
    Guard(Guard&& other) noexcept : domain_(other.domain_) {
      other.domain_ = nullptr;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        if (domain_ != nullptr) domain_->unpin();
        domain_ = other.domain_;
        other.domain_ = nullptr;
      }
      return *this;
    }
    ~Guard() {
      if (domain_ != nullptr) domain_->unpin();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    bool holds() const { return domain_ != nullptr; }

   private:
    EpochReclaimer* domain_ = nullptr;
  };

  // -------------------------------------------------------- write side
  // Hands an unlinked node to the domain. The node must already be
  // unreachable from the published structure (new readers cannot find it);
  // it is freed with `del` once the two-epoch grace period has passed.
  // Applies the backlog backpressure described above — may sweep and free
  // other safe nodes before returning.
  void retire(void* p, Deleter del);
  template <typename T>
  void retire(const T* p) {
    retire(const_cast<T*>(p), [](void* q) { delete static_cast<T*>(q); });
  }

  // Advances the global epoch iff every pinned thread has announced the
  // current one. Returns whether it advanced.
  bool try_advance();

  // Frees every retired node whose grace period has passed (all slots).
  // Returns the number freed.
  std::size_t sweep();

  // ----------------------------------------------------- introspection
  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }
  // Retired-but-not-yet-freed nodes, domain-wide.
  std::uint64_t retired_backlog() const {
    return backlog_.load(std::memory_order_acquire);
  }
  std::uint64_t freed_count() const {
    return freed_.load(std::memory_order_acquire);
  }
  // sweep() calls so far (retire()'s own sweeps included) — the count a
  // writer stalled behind a pinned reader would run up.
  std::uint64_t sweep_count() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  // Threads that ever pinned or retired in this domain.
  std::uint32_t participants() const {
    return participants_.load(std::memory_order_acquire);
  }
  // The bound retire() enforces at each batch boundary: backlog <= batch *
  // max(1, participants) on return (unless the caller itself was pinned).
  // Between boundaries a retiring thread may run at most batch() over it.
  std::uint64_t backlog_bound() const {
    const std::uint32_t n = participants();
    return static_cast<std::uint64_t>(config_.batch) * (n == 0 ? 1 : n);
  }
  std::uint32_t batch() const { return config_.batch; }

 private:
  struct Retired {
    void* ptr;
    Deleter del;
    std::uint64_t epoch;  // global epoch at retirement
  };

  // Per-thread slot, indexed by the dense platform thread id. `state`
  // encodes (announced_epoch << 1) | active; quiescent threads read as
  // state 0. `nest` and `used` are only touched by the owning thread; the
  // retired list is owned by the slot's thread for pushes but sweepable by
  // any thread under `lock` (that is what lets retire()'s backpressure
  // free another thread's safe garbage instead of waiting for it).
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> state{0};
    std::uint32_t nest = 0;
    bool used = false;
    std::uint64_t retire_seq = 0;  // monotone; drives the batch trigger
    RawSpinLock lock;
    std::vector<Retired> retired;  // guarded by lock
  };

  Slot& self_slot() { return slots_[thread_id()]; }
  const Slot& self_slot() const { return slots_[thread_id()]; }
  void mark_used(Slot& slot);
  // Frees `slot`'s safe nodes against `safe_before` (retire epoch + 2 <=
  // current). Returns the number freed.
  std::size_t sweep_slot(Slot& slot, std::uint64_t current_epoch);

  ReclaimConfig config_;
  std::atomic<std::uint64_t> global_epoch_{2};  // >= 2: epoch 0 is never safe
  std::atomic<std::uint64_t> backlog_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint32_t> participants_{0};
  std::vector<Slot> slots_;  // kMaxThreads entries, index == thread_id()
};

}  // namespace asl
