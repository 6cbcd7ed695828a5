// HashKv — in-memory hash-table KV store, the Kyoto Cabinet stand-in.
//
// Lock pattern (Table 1): a *method lock* serializing whole-store operations
// (iteration) against per-record operations, plus *slot-level locks* — the
// store is split into a fixed number of lock stripes ("slots", 16 in the
// service's engine adapter), each guarded by its own lock. A Put/Get epoch
// therefore takes: method lock (briefly, shared intent) then its slot lock,
// matching the paper's "Slot-level Lock, Method Lock" row.
//
// Stripes are not buckets (Kyoto's CacheDB layout: 16 slots, each with its
// own lock and its own bucket array). Hash bits `h % num_slots` pick the
// stripe; inside it, the entries live densely in the stripe's `chain`
// vector and a per-stripe open-addressed index maps keys to them in O(1):
//   * the index is a power-of-two array of uint32 (chain position + 1,
//     0 = empty), linearly probed from a home bucket taken from the hash
//     bits *above* the stripe choice (h / num_slots), so a stripe's keys do
//     not all share one home;
//   * once an insert would push the load past 50% the index is doubled and
//     rebuilt, under the stripe's own lock — other stripes keep serving;
//   * remove swap-removes the entry from `chain` (repointing the moved
//     entry's bucket) and deletes its bucket by backward shift, so the
//     index never holds tombstones.
// Only an insert grows the store (a new entry, chain growth, index growth);
// an overwrite reuses its entry's value capacity.
//
// All locks are AslMutex so an application linked with LibASL gets the
// SLO-guided ordering with no code changes here.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asl/libasl.h"

namespace asl::db {

class HashKv {
 public:
  explicit HashKv(std::size_t num_slots = 64);

  // Inserts or overwrites. Returns true if the key was new. Keys and values
  // are views (callers may format them in stack/arena buffers — DESIGN.md
  // §9); the store copies into its own entries, reusing an existing entry's
  // value capacity on overwrite, so only first-insert allocates.
  bool put(std::string_view key, std::string_view value);

  std::optional<std::string> get(std::string_view key) const;

  // Removes the key; returns true if it existed.
  bool remove(std::string_view key);

  std::size_t size() const;

  // Whole-store iteration under the exclusive method lock (the "method"
  // operations Kyoto serializes store-wide).
  void for_each(
      const std::function<void(const std::string&, const std::string&)>& fn)
      const;

  std::size_t num_slots() const { return slots_.size(); }

  // Diagnostics: how many buckets past its home bucket `key` sits in its
  // stripe's index (0 = at home), or nullopt when absent. Lets tests aim
  // removals at displaced entries, the backward-shift case.
  std::optional<std::size_t> probe_distance(std::string_view key) const;

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  struct Slot {
    mutable AslMutex<McsLock> lock;
    std::vector<Entry> chain;           // dense entries, guarded by lock
    std::vector<std::uint32_t> index;   // chain position + 1; 0 = empty
  };

  static std::uint64_t hash_key(std::string_view key);
  Slot& slot_for(std::uint64_t h) { return slots_[h % slots_.size()]; }
  const Slot& slot_for(std::uint64_t h) const {
    return slots_[h % slots_.size()];
  }
  // Index helpers; the caller holds the slot's lock.
  std::size_t home_of(const Slot& slot, std::uint64_t h) const;
  // The bucket holding `key`'s entry, or the empty bucket ending its probe.
  std::size_t find_bucket(const Slot& slot, std::string_view key,
                          std::uint64_t h) const;
  void grow_index(Slot& slot);
  void erase_bucket(Slot& slot, std::size_t bucket);

  // Method lock: count of in-flight record ops + exclusive flag, guarded by
  // method_lock_. Record ops take it briefly (shared intent); for_each takes
  // it exclusively by waiting the in-flight count down.
  void method_enter_shared() const;
  void method_exit_shared() const;

  mutable AslMutex<McsLock> method_lock_;
  mutable std::uint32_t inflight_ = 0;  // guarded by method_lock_
  std::vector<Slot> slots_;
  mutable AslMutex<McsLock> size_lock_;
  std::size_t size_ = 0;  // guarded by size_lock_
};

}  // namespace asl::db
