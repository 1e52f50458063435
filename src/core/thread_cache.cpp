#include "core/thread_cache.hpp"

#include <algorithm>
#include <cassert>

#include "pmem/crashpoint.hpp"
#include "pmem/persist.hpp"

namespace poseidon::core {

ThreadCache::ThreadCache(CacheLogSlot* slot) : slot_(slot) {
  free_li_.reserve(kCacheLogCap);
  // Reversed so low indices are handed out first (denser log pages).
  for (std::uint32_t i = kCacheLogCap; i-- > 0;) free_li_.push_back(i);
}

// Not noexcept: the embedded crash point may throw under test injection.
void ThreadCache::log_write(std::uint32_t li, NvPtr ptr) {
  NvPtr& e = slot_->entries[li];
  // Entries are 16-byte aligned, so both words share one cache line and
  // x86 TSO writes them back in order: any persisted image with heap_id
  // set also has the packed word — a torn entry is null, never wrong.
  pmem::nv_store(e.packed, ptr.packed);
  pmem::nv_store(e.heap_id, ptr.heap_id);
  POSEIDON_CRASH_POINT("cache.log_append");
  pmem::flush(&e, sizeof(NvPtr));
}

void ThreadCache::log_erase(std::uint32_t li) noexcept {
  NvPtr& e = slot_->entries[li];
  pmem::nv_store(e.heap_id, std::uint64_t{0});
  pmem::persist(&e.heap_id, sizeof(std::uint64_t));
}

NvPtr ThreadCache::pop_locked(unsigned cls) noexcept {
  auto& mag = mags_[cls];
  if (mag.empty()) return NvPtr::null();
  const Item it = mag.back();
  mag.pop_back();
  in_cache_.erase(it.ptr.packed);
  // Erase-before-return: once the application owns the pointer, recovery
  // must not be able to free it from under a crash-lost cache.
  log_erase(it.li);
  free_li_.push_back(it.li);
  return it.ptr;
}

ThreadCache::PushResult ThreadCache::push_locked(NvPtr ptr, unsigned cls) {
  if (in_cache_.count(ptr.packed) != 0) return PushResult::kDoubleFree;
  if (free_li_.empty()) return PushResult::kFull;
  const std::uint32_t li = free_li_.back();
  free_li_.pop_back();
  log_write(li, ptr);
  pmem::fence();
  mags_[cls].push_back(Item{ptr, li});
  in_cache_.insert(ptr.packed);
  POSEIDON_CRASH_POINT("cache.free_cached");
  return PushResult::kCached;
}

bool ThreadCache::over_watermark_locked(unsigned cls) const noexcept {
  return mags_[cls].size() >= kMagazineCap;
}

unsigned ThreadCache::room_locked(unsigned cls) const noexcept {
  const std::size_t mag = mags_[cls].size();
  const std::size_t mag_room = mag >= kMagazineCap ? 0 : kMagazineCap - mag;
  return static_cast<unsigned>(std::min(mag_room, free_li_.size()));
}

void ThreadCache::refill_append_locked(NvPtr ptr) {
  assert(!free_li_.empty());
  const std::uint32_t li = free_li_.back();
  free_li_.pop_back();
  // Flushed, not fenced: the refill batch's undo commit fences its data
  // before the generation bump, which retires every staged entry at once.
  log_write(li, ptr);
  staged_.push_back(Item{ptr, li});
}

void ThreadCache::refill_publish_locked(unsigned cls) {
  for (const Item& it : staged_) {
    mags_[cls].push_back(it);
    in_cache_.insert(it.ptr.packed);
  }
  staged_.clear();
}

void ThreadCache::refill_abort_locked() noexcept {
  // Erases are idempotent under recovery (a replayed entry goes through the
  // validated free path and bounces as a double free), so they need no
  // ordering among themselves: batch the write-backs, fence once.
  pmem::FlushBatch batch;
  for (const Item& it : staged_) {
    NvPtr& e = slot_->entries[it.li];
    pmem::nv_store(e.heap_id, std::uint64_t{0});
    batch.add(&e.heap_id, sizeof(std::uint64_t));
    free_li_.push_back(it.li);
  }
  batch.commit();
  staged_.clear();
}

unsigned ThreadCache::flush_take_locked(unsigned cls, unsigned max_n,
                                        NvPtr* out,
                                        std::uint32_t* out_li) noexcept {
  auto& mag = mags_[cls];
  const unsigned n =
      static_cast<unsigned>(std::min<std::size_t>(max_n, mag.size()));
  // Oldest first: the freshest blocks stay poppable (they are cache-hot).
  for (unsigned i = 0; i < n; ++i) {
    out[i] = mag[i].ptr;
    out_li[i] = mag[i].li;
    in_cache_.erase(mag[i].ptr.packed);
  }
  mag.erase(mag.begin(), mag.begin() + n);
  return n;
}

void ThreadCache::flush_erase_locked(const std::uint32_t* li,
                                     unsigned n) noexcept {
  // Same idempotency argument as refill_abort_locked: one fence for the
  // whole take, and consecutive log indices coalesce into shared lines.
  pmem::FlushBatch batch;
  for (unsigned i = 0; i < n; ++i) {
    NvPtr& e = slot_->entries[li[i]];
    pmem::nv_store(e.heap_id, std::uint64_t{0});
    batch.add(&e.heap_id, sizeof(std::uint64_t));
    free_li_.push_back(li[i]);
  }
  batch.commit();
}

ThreadCache::Stats ThreadCache::stats_locked() const noexcept {
  Stats s;
  for (unsigned c = kMinClass; c <= kMaxClass; ++c) {
    s.cached_blocks += mags_[c].size();
    s.cached_bytes += mags_[c].size() << c;
  }
  return s;
}

}  // namespace poseidon::core
