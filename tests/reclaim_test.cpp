// EpochReclaimer tests: grace-period safety (a pinned reader blocks every
// free it could observe), epoch advancement, nesting, the bounded-backlog
// backpressure contract, and TSan-targeted stress of the whole MVCC stack —
// put churn retiring version nodes under concurrent pinned snapshot reads
// (DESIGN.md §8). The threaded suites are the CI TSan job's main customers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "asl/reclaim.h"
#include "db/mvkv.h"
#include "platform/rng.h"

namespace asl {
namespace {

// A retired payload whose deleter bumps a shared counter — lets tests see
// exactly when the domain actually frees, not just when it could.
struct Tracked {
  explicit Tracked(std::atomic<std::uint64_t>& freed) : freed_(&freed) {}
  ~Tracked() { freed_->fetch_add(1, std::memory_order_relaxed); }
  std::atomic<std::uint64_t>* freed_;
};

// Force the domain through >= 2 epochs and sweep: with no pins held this
// must free everything retired before the call.
void drain(EpochReclaimer& domain) {
  for (int i = 0; i < 4; ++i) {
    domain.try_advance();
    domain.sweep();
  }
}

TEST(EpochReclaimer, RetireThenDrainFrees) {
  std::atomic<std::uint64_t> freed{0};
  EpochReclaimer domain;
  domain.retire(new Tracked(freed));
  // Freshly retired: the grace period cannot have passed yet.
  EXPECT_EQ(freed.load(), 0u);
  EXPECT_EQ(domain.retired_backlog(), 1u);
  drain(domain);
  EXPECT_EQ(freed.load(), 1u);
  EXPECT_EQ(domain.retired_backlog(), 0u);
  EXPECT_EQ(domain.freed_count(), 1u);
}

TEST(EpochReclaimer, PinnedReaderBlocksFree) {
  std::atomic<std::uint64_t> freed{0};
  EpochReclaimer domain;
  domain.pin();
  ASSERT_TRUE(domain.pinned());
  domain.retire(new Tracked(freed));
  // The pin announced the epoch the node was retired in: no amount of
  // advancing/sweeping may free it while the pin is held — the epoch is
  // stuck at most one step ahead of the announcement.
  drain(domain);
  EXPECT_EQ(freed.load(), 0u);
  EXPECT_EQ(domain.retired_backlog(), 1u);
  domain.unpin();
  EXPECT_FALSE(domain.pinned());
  drain(domain);
  EXPECT_EQ(freed.load(), 1u);
}

TEST(EpochReclaimer, NestedPinsReleaseOnOutermostUnpin) {
  std::atomic<std::uint64_t> freed{0};
  EpochReclaimer domain;
  domain.pin();
  domain.pin();  // nested
  domain.retire(new Tracked(freed));
  domain.unpin();  // inner: still pinned
  EXPECT_TRUE(domain.pinned());
  drain(domain);
  EXPECT_EQ(freed.load(), 0u);
  domain.unpin();  // outermost: quiescent now
  drain(domain);
  EXPECT_EQ(freed.load(), 1u);
}

TEST(EpochReclaimer, GuardIsMovableRaii) {
  std::atomic<std::uint64_t> freed{0};
  EpochReclaimer domain;
  {
    EpochReclaimer::Guard guard(domain);
    EXPECT_TRUE(guard.holds());
    EXPECT_TRUE(domain.pinned());
    EpochReclaimer::Guard moved(std::move(guard));
    EXPECT_FALSE(guard.holds());
    EXPECT_TRUE(moved.holds());
    // One pin total: the move must not double-pin or early-unpin.
    domain.retire(new Tracked(freed));
    drain(domain);
    EXPECT_EQ(freed.load(), 0u);
  }
  EXPECT_FALSE(domain.pinned());
  drain(domain);
  EXPECT_EQ(freed.load(), 1u);
}

TEST(EpochReclaimer, EpochAdvancesOnlyWhenAnnouncementsCatchUp) {
  EpochReclaimer domain;
  const std::uint64_t e0 = domain.epoch();
  EXPECT_TRUE(domain.try_advance());  // no pins: free to advance
  EXPECT_EQ(domain.epoch(), e0 + 1);
  domain.pin();  // announces e0 + 1
  EXPECT_TRUE(domain.try_advance());  // announcement is current: e0 + 2
  // Now the pin's announcement (e0 + 1) is stale: stuck until unpin.
  EXPECT_FALSE(domain.try_advance());
  EXPECT_EQ(domain.epoch(), e0 + 2);
  domain.unpin();
  EXPECT_TRUE(domain.try_advance());
}

TEST(EpochReclaimer, UnpinnedRetireLoopHoldsBacklogBound) {
  // The backpressure contract: a quiescent (unpinned) retiring thread is
  // pushed back under the bound at every batch boundary, so mid-batch it
  // can sit at most one in-flight batch over it — never more.
  EpochReclaimer domain(ReclaimConfig{/*batch=*/8});
  std::atomic<std::uint64_t> freed{0};
  for (int i = 0; i < 1000; ++i) {
    domain.retire(new Tracked(freed));
    ASSERT_LE(domain.retired_backlog(),
              domain.backlog_bound() + domain.batch())
        << "at " << i;
  }
  drain(domain);
  EXPECT_EQ(freed.load(), 1000u);
  EXPECT_EQ(domain.retired_backlog(), 0u);
}

TEST(EpochReclaimer, PinnedRetirerIsExemptFromBackpressure) {
  // A thread that retires while itself pinned must not self-deadlock trying
  // to push the backlog down (its own pin is what blocks the epoch). The
  // bound is allowed to be exceeded until it unpins.
  EpochReclaimer domain(ReclaimConfig{/*batch=*/4});
  std::atomic<std::uint64_t> freed{0};
  domain.pin();
  const std::uint64_t n = 4 * domain.backlog_bound();
  for (std::uint64_t i = 0; i < n; ++i) domain.retire(new Tracked(freed));
  EXPECT_GT(domain.retired_backlog(), domain.backlog_bound());
  EXPECT_EQ(freed.load(), 0u);
  domain.unpin();
  drain(domain);
  EXPECT_EQ(freed.load(), n);
}

TEST(EpochReclaimer, DestructorFreesOutstandingNodes) {
  std::atomic<std::uint64_t> freed{0};
  {
    EpochReclaimer domain;
    for (int i = 0; i < 37; ++i) domain.retire(new Tracked(freed));
    EXPECT_LT(freed.load(), 37u);  // some still in grace period
  }
  EXPECT_EQ(freed.load(), 37u) << "destructor must not leak retired nodes";
}

// ------------------------------------------------------- threaded stress
// The suites below are the TSan targets: real threads racing pin/retire.

TEST(EpochReclaimerStress, ChurnWithReadersFreesEverythingAndHoldsBound) {
  EpochReclaimer domain(ReclaimConfig{/*batch=*/16});
  std::atomic<std::uint64_t> freed{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bound_violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochReclaimer::Guard guard(domain);
        // Simulated short read-side section, as a snapshot get would be.
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
    });
  }

  constexpr std::uint64_t kRetires = 20000;
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kRetires; ++i) {
      domain.retire(new Tracked(freed));
      // The writer is quiescent, so retire()'s batch-boundary backpressure
      // applies; mid-batch it may run one batch over the bound, and the
      // pressure loop is attempt-bounded, so allow the rare overshoot while
      // a reader sits pinned — but it must be rare, not the steady state.
      if (domain.retired_backlog() >
          domain.backlog_bound() + domain.batch()) {
        bound_violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  drain(domain);
  EXPECT_EQ(freed.load(), kRetires) << "no retired node may be lost";
  EXPECT_EQ(domain.retired_backlog(), 0u);
  EXPECT_EQ(domain.freed_count(), kRetires);
  EXPECT_LT(bound_violations.load(), kRetires / 10)
      << "backpressure must hold the bound in the common case";
}

TEST(EpochReclaimerStress, ConcurrentRetirersConvergeToZeroBacklog) {
  EpochReclaimer domain(ReclaimConfig{/*batch=*/8});
  std::atomic<std::uint64_t> freed{0};
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        domain.retire(new Tracked(freed));
      }
    });
  }
  for (auto& t : threads) t.join();
  drain(domain);
  EXPECT_EQ(freed.load(), kThreads * kPer);
  EXPECT_EQ(domain.retired_backlog(), 0u);
}

// --------------------------------------------------- MvKv on top of EBR
// The reclaimer's real customer: copy-on-write version trees retired on
// every publish, snapshot gets pinning the domain across the traversal.

TEST(MvKvReclaim, PinnedSnapshotStaysFrozenUnderChurn) {
  db::MvKv kv(ReclaimConfig{/*batch=*/16});
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    kv.put(k, "r0:" + std::to_string(k));
  }
  const db::MvKv::Snapshot snap = kv.snapshot();
  // Heavy churn: every put retires the path it copied. The pinned snapshot
  // must keep seeing round 0 for every key, every time.
  std::uint64_t max_sweeps_per_put = 0;
  for (int round = 1; round <= 20; ++round) {
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const std::uint64_t sweeps_before = kv.reclaimer().sweep_count();
      kv.put(k, "r" + std::to_string(round) + ":" + std::to_string(k));
      max_sweeps_per_put = std::max(
          max_sweeps_per_put, kv.reclaimer().sweep_count() - sweeps_before);
      ASSERT_EQ(snap.get(k).value_or(""), "r0:" + std::to_string(k))
          << "round " << round << " key " << k;
    }
  }
  // While the snapshot pins, retired versions pile up past the bound (the
  // writer's backpressure gives up rather than deadlocking against our own
  // thread's pin)...
  EXPECT_GT(kv.reclaimer().retired_backlog(), 0u);
  // ...and the pin must not stall the writer. The ascending inserts above
  // built a 64-deep chain, so one put copies at most 65 nodes and retires
  // at most 64. Its sweeps are then bounded by count, not by timing: 2 from
  // the low-water replenish, at most 2 per freelist miss (one turn of the
  // epoch succeeds, the next fails against the pin; 65 nodes from 32-node
  // chunks miss at most 3 times) and 1 per retire batch boundary (at most
  // 5 for 64 retirees at batch 16): 2 + 6 + 5 = 13. A writer that spins
  // on advance+sweep while the pin holds runs up hundreds per miss.
  EXPECT_LE(max_sweeps_per_put, 13u);
}

TEST(MvKvReclaim, BacklogDrainsAfterSnapshotsDrop) {
  db::MvKv kv(ReclaimConfig{/*batch=*/8});
  {
    const db::MvKv::Snapshot snap = kv.snapshot();
    for (std::uint64_t i = 0; i < 500; ++i) kv.put(i % 32, "churn");
    (void)snap;
  }
  // Snapshot dropped: the next writes' batch sweeps must pull the backlog
  // back under the bound (plus at most one in-flight batch).
  for (std::uint64_t i = 0; i < 64; ++i) kv.put(i % 32, "after");
  EXPECT_LE(kv.reclaimer().retired_backlog(),
            kv.reclaimer().backlog_bound() + kv.reclaimer().batch());
  EXPECT_GT(kv.reclaimer().freed_count(), 0u);
}

TEST(MvKvReclaim, ReadYourWritesPerPublisher) {
  // A publisher's own snapshot taken after its put must contain the put —
  // publish stores the root before retiring, and snapshot pins before
  // loading the root, so the new version is always reachable to it.
  db::MvKv kv;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    kv.put(i % 100, "v" + std::to_string(i));
    const db::MvKv::Snapshot snap = kv.snapshot();
    ASSERT_EQ(snap.get(i % 100).value_or(""), "v" + std::to_string(i)) << i;
  }
}

TEST(MvKvReclaimStress, ChurnWithPinnedReadersNoLostOrTornVersions) {
  // The acceptance stress (TSan job): writers churn puts (retiring version
  // nodes) while readers hold pinned snapshots mid-traversal. Values encode
  // key + monotone round so a reader can detect torn or resurrected
  // versions; per key the visible round never decreases across snapshots
  // taken in order by the same reader.
  // Batch sized so the writer's backpressure loop (which yields while a
  // reader sits pinned) triggers on real pile-ups, not every put — on a
  // single-core CI host some reader is pinned almost every instant, and a
  // tiny batch turns every retire into a scheduling fight.
  db::MvKv kv(ReclaimConfig{/*batch=*/256});
  constexpr std::uint64_t kKeys = 128;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    kv.put(k, std::to_string(k) + ":0");
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 31);
      std::vector<std::uint64_t> last_round(kKeys, 0);
      while (!stop.load(std::memory_order_relaxed)) {
        const db::MvKv::Snapshot snap = kv.snapshot();
        for (int i = 0; i < 8; ++i) {
          const std::uint64_t k = rng.below(kKeys);
          const std::string v = snap.get(k).value_or("");
          // Well-formed "<key>:<round>" with the right key and a round
          // that never runs backwards for this reader.
          const std::size_t colon = v.find(':');
          if (colon == std::string::npos ||
              v.substr(0, colon) != std::to_string(k)) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const std::uint64_t round = std::stoull(v.substr(colon + 1));
          if (round < last_round[k]) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          last_round[k] = round;
        }
      }
    });
  }
  std::thread writer([&] {
    for (std::uint64_t round = 1; round <= 40; ++round) {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        kv.put(k, std::to_string(k) + ":" + std::to_string(round));
      }
    }
  });
  writer.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0u);
  // All snapshots dropped: a final churn round plus drain leaves nothing
  // older than the bound (plus one in-flight batch) outstanding.
  for (std::uint64_t k = 0; k < kKeys; ++k) kv.put(k, "final");
  EXPECT_LE(kv.reclaimer().retired_backlog(),
            kv.reclaimer().backlog_bound() + kv.reclaimer().batch());
  EXPECT_GT(kv.reclaimer().freed_count(), 0u);
}

}  // namespace
}  // namespace asl
