#include "db/hashkv.h"

#include <bit>

#include "platform/spin.h"

namespace asl::db {

namespace {

// Buckets per stripe at construction; the index doubles from here.
constexpr std::size_t kMinIndexBuckets = 8;

}  // namespace

HashKv::HashKv(std::size_t num_slots)
    : slots_(num_slots == 0 ? 1 : num_slots) {
  for (Slot& slot : slots_) slot.index.assign(kMinIndexBuckets, 0);
}

std::uint64_t HashKv::hash_key(std::string_view key) {
  // FNV-1a: cheap and uniform enough for stripe and bucket selection.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::size_t HashKv::home_of(const Slot& slot, std::uint64_t h) const {
  // The stripe consumed h % num_slots; the home bucket comes from the
  // quotient, Fibonacci-hashed: the product's top bits depend on every bit
  // of it, whereas FNV-1a's low k bits see only the low k bits of each key
  // byte and would cluster if masked directly.
  const std::uint64_t above = h / slots_.size();
  const int bits = std::countr_zero(slot.index.size());
  return static_cast<std::size_t>((above * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - bits));
}

std::size_t HashKv::find_bucket(const Slot& slot, std::string_view key,
                                std::uint64_t h) const {
  // Load stays <= 50%, so every probe ends at an empty bucket.
  const std::size_t mask = slot.index.size() - 1;
  for (std::size_t b = home_of(slot, h);; b = (b + 1) & mask) {
    const std::uint32_t e = slot.index[b];
    if (e == 0 || slot.chain[e - 1].key == key) return b;
  }
}

void HashKv::grow_index(Slot& slot) {
  slot.index.assign(slot.index.size() * 2, 0);
  const std::size_t mask = slot.index.size() - 1;
  for (std::size_t i = 0; i < slot.chain.size(); ++i) {
    std::size_t b = home_of(slot, hash_key(slot.chain[i].key));
    while (slot.index[b] != 0) b = (b + 1) & mask;
    slot.index[b] = static_cast<std::uint32_t>(i + 1);
  }
}

void HashKv::erase_bucket(Slot& slot, std::size_t bucket) {
  // Backward shift: walk the cluster after the hole and pull back every
  // entry whose probe path crosses the hole — the hole lies cyclically in
  // [home, b) — so lookups never need a tombstone to keep probing.
  const std::size_t mask = slot.index.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t b = (hole + 1) & mask; slot.index[b] != 0;
       b = (b + 1) & mask) {
    const std::size_t home =
        home_of(slot, hash_key(slot.chain[slot.index[b] - 1].key));
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      slot.index[hole] = slot.index[b];
      hole = b;
    }
  }
  slot.index[hole] = 0;
}

void HashKv::method_enter_shared() const {
  LockGuard<AslMutex<McsLock>> guard(method_lock_);
  ++inflight_;
}

void HashKv::method_exit_shared() const {
  LockGuard<AslMutex<McsLock>> guard(method_lock_);
  --inflight_;
}

bool HashKv::put(std::string_view key, std::string_view value) {
  method_enter_shared();
  const std::uint64_t h = hash_key(key);
  Slot& slot = slot_for(h);
  bool inserted = false;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    std::size_t b = find_bucket(slot, key, h);
    if (slot.index[b] != 0) {
      // assign() reuses the entry's capacity: an overwrite of a key whose
      // value is not growing never allocates (the steady-state contract).
      slot.chain[slot.index[b] - 1].value.assign(value);
    } else {
      if (2 * (slot.chain.size() + 1) > slot.index.size()) {
        grow_index(slot);
        b = find_bucket(slot, key, h);
      }
      slot.chain.push_back(Entry{std::string(key), std::string(value)});
      slot.index[b] = static_cast<std::uint32_t>(slot.chain.size());
      inserted = true;
    }
  }
  if (inserted) {
    LockGuard<AslMutex<McsLock>> guard(size_lock_);
    ++size_;
  }
  method_exit_shared();
  return inserted;
}

std::optional<std::string> HashKv::get(std::string_view key) const {
  method_enter_shared();
  const std::uint64_t h = hash_key(key);
  const Slot& slot = slot_for(h);
  std::optional<std::string> result;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    const std::uint32_t e = slot.index[find_bucket(slot, key, h)];
    if (e != 0) result = slot.chain[e - 1].value;
  }
  method_exit_shared();
  return result;
}

bool HashKv::remove(std::string_view key) {
  method_enter_shared();
  const std::uint64_t h = hash_key(key);
  Slot& slot = slot_for(h);
  bool removed = false;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    const std::size_t b = find_bucket(slot, key, h);
    if (slot.index[b] != 0) {
      const std::uint32_t pos = slot.index[b] - 1;
      erase_bucket(slot, b);
      Entry& last = slot.chain.back();
      if (pos + 1 != slot.chain.size()) {
        // Swap-remove: the chain's last entry fills the hole, so its
        // bucket is repointed before the move.
        slot.index[find_bucket(slot, last.key, hash_key(last.key))] = pos + 1;
        slot.chain[pos] = std::move(last);
      }
      slot.chain.pop_back();
      removed = true;
    }
  }
  if (removed) {
    LockGuard<AslMutex<McsLock>> guard(size_lock_);
    --size_;
  }
  method_exit_shared();
  return removed;
}

std::optional<std::size_t> HashKv::probe_distance(std::string_view key) const {
  method_enter_shared();
  const std::uint64_t h = hash_key(key);
  const Slot& slot = slot_for(h);
  std::optional<std::size_t> distance;
  {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    const std::size_t b = find_bucket(slot, key, h);
    if (slot.index[b] != 0) {
      distance = (b - home_of(slot, h)) & (slot.index.size() - 1);
    }
  }
  method_exit_shared();
  return distance;
}

std::size_t HashKv::size() const {
  LockGuard<AslMutex<McsLock>> guard(size_lock_);
  return size_;
}

void HashKv::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  // Exclusive method operation: hold the method lock and wait for in-flight
  // record operations to drain, then walk every slot under its lock.
  method_lock_.lock();
  while (inflight_ != 0) {
    // Record ops finish without needing the method lock to *exit*... they
    // do need it; avoid deadlock by releasing and re-acquiring.
    method_lock_.unlock();
    sched_yield();
    method_lock_.lock();
  }
  for (const Slot& slot : slots_) {
    LockGuard<AslMutex<McsLock>> guard(slot.lock);
    for (const Entry& e : slot.chain) {
      fn(e.key, e.value);
    }
  }
  method_lock_.unlock();
}

}  // namespace asl::db
