// Crash-safe per-thread allocation cache (front end of the allocator).
//
// Each thread owns small per-size-class magazines of pre-popped blocks so
// the common alloc/free pair touches no sub-heap spinlock, no MPK wrpkru
// switch and no undo log — the per-operation overheads that dominate
// multi-threaded persistent-allocator throughput.  Crash safety comes from
// two facts:
//
//   1. A cached block stays kBlockAllocated in the owning sub-heap's
//      persistent metadata, so no invariant of the buddy system is relaxed.
//   2. Every cached block is recorded in this thread's persistent
//      CacheLogSlot (same shape and replay discipline as the micro log).
//      Heap::recover() hands each logged entry to the validated free path —
//      idempotent by construction — so a cache lost at a crash drains back
//      to the free lists instead of leaking.
//
// Log-entry ordering on the hot paths:
//   * refill: the entry is flushed when staged, and the sub-heap's batched
//     undo commit fences it before the generation bump.  Crash before the
//     commit rolls the pops back and recovery's drain then rejects the
//     stale entries as double frees; crash after the commit finds the
//     blocks both allocated and logged — drained, no leak.
//   * alloc hit: the entry is erased and persisted *before* the pointer is
//     returned, so recovery can never free a block the application owns.
//   * free: the entry is persisted before the magazine accepts the block;
//     the block was already allocated, so a crash at any point either
//     replays the free (entry durable) or leaves the block allocated-and-
//     leaked-by-the-app (entry lost) — never a dangling free.
//
// The class is a passive container: Heap orchestrates sub-heap locking,
// write windows and the batched refill/flush; every method below requires
// mu() to be held.  A slot may be shared by several threads (ordinals are
// folded onto kCacheSlots), which the spinlock makes safe.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/spinlock.hpp"
#include "core/layout.hpp"
#include "core/nvmptr.hpp"

namespace poseidon::core {

class ThreadCache {
 public:
  static constexpr unsigned kMinClass = kMinBlockShift;  // 32 B
  static constexpr unsigned kMaxClass = 13;              // 8 KiB
  static constexpr unsigned kMagazineCap = 32;  // per-class flush watermark
  static constexpr unsigned kRefillBatch = 16;  // blocks pulled per miss

  // Only small classes are cached: large blocks are rare and holding them
  // in magazines would fragment the heap for little hit-rate gain.
  static constexpr bool cacheable(unsigned cls) noexcept {
    return cls >= kMinClass && cls <= kMaxClass;
  }

  // `slot` must be drained (all entries null), which recovery guarantees.
  explicit ThreadCache(CacheLogSlot* slot);

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  Spinlock& mu() noexcept { return mu_; }

  // Occupancy only: hit/miss/flush counting lives in the heap's metrics
  // registry (obs/metrics.hpp), not here.
  struct Stats {
    std::uint64_t cached_blocks = 0;
    std::uint64_t cached_bytes = 0;
  };

  // ---- alloc fast path -----------------------------------------------------

  // Pop a cached block of class `cls`; null on miss.  The persistent log
  // entry is erased (and the erase persisted) before the block is returned.
  NvPtr pop_locked(unsigned cls) noexcept;

  // ---- free fast path ------------------------------------------------------

  enum class PushResult {
    kCached,      // parked in the magazine, log entry durable
    kDoubleFree,  // already cached by this slot
    kFull,        // no log capacity; caller takes the slow free path
  };
  PushResult push_locked(NvPtr ptr, unsigned cls);

  bool over_watermark_locked(unsigned cls) const noexcept;

  // ---- batched refill (Heap::cache_refill) ---------------------------------

  // Blocks the magazine/log can still take for `cls` (bounds the batch).
  unsigned room_locked(unsigned cls) const noexcept;

  // Record a block the sub-heap just popped.  Called from inside the
  // batched-refill critical section *before* its undo commit; the entry is
  // flushed now and fenced by that commit.  Caller guarantees room via
  // room_locked().
  void refill_append_locked(NvPtr ptr);

  // Publish the staged blocks into the magazine (batch committed).
  void refill_publish_locked(unsigned cls);

  // Discard the staged blocks and erase their log entries (batch rolled
  // back, or nothing was popped).
  void refill_abort_locked() noexcept;

  // ---- flush (Heap::cache_flush) -------------------------------------------

  // Remove up to `max_n` of the oldest blocks of `cls` from the magazine
  // into out/out_li.  Their log entries stay live until flush_erase_locked —
  // a crash mid-flush replays them through the (idempotent) free path.
  unsigned flush_take_locked(unsigned cls, unsigned max_n, NvPtr* out,
                             std::uint32_t* out_li) noexcept;

  // The taken blocks are durably free: erase their log entries.
  void flush_erase_locked(const std::uint32_t* li, unsigned n) noexcept;

  Stats stats_locked() const noexcept;

 private:
  struct Item {
    NvPtr ptr;
    std::uint32_t li;  // index into slot_->entries
  };

  // Stores and flushes one log entry; the caller fences.
  void log_write(std::uint32_t li, NvPtr ptr);
  void log_erase(std::uint32_t li) noexcept;

  CacheLogSlot* slot_;
  Spinlock mu_;
  std::vector<Item> mags_[kMaxClass + 1];  // LIFO; indices < kMinClass unused
  std::vector<std::uint32_t> free_li_;     // unused log entry indices
  std::vector<Item> staged_;               // refill entries awaiting publish
  std::unordered_set<std::uint64_t> in_cache_;  // NvPtr.packed of cached blocks
};

}  // namespace poseidon::core
