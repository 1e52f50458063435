#include "core/undo_log.hpp"

#include <alloca.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "common/hash.hpp"
#include "pmem/persist.hpp"

namespace poseidon::core {

namespace {

std::uint32_t body_checksum(std::uint64_t gen, std::uint64_t meta_off,
                            std::uint32_t len,
                            const unsigned char* data) noexcept {
  std::uint64_t h = mix64(gen ^ mix64(meta_off) ^ (std::uint64_t{len} << 32));
  std::uint64_t chunk = 0;
  for (std::uint32_t i = 0; i < len; i += 8) {
    const std::uint32_t n = len - i < 8 ? len - i : 8;
    chunk = 0;
    std::memcpy(&chunk, data + i, n);
    h = mix64(h ^ chunk);
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// Adds the saved ranges to `batch` in address order.  Touching ranges then
// always meet the batch range they extend, so no line is written back
// twice: not when a batch that is full drains early, and not when a range
// would otherwise bridge two batch ranges added out of order.  The sort
// keys live on the stack, sized to the entry count (at most the log
// capacity, 8 KiB): no heap allocation on the commit path.
void add_sorted(pmem::FlushBatch& batch, const UndoEntry* entries,
                std::size_t n, std::byte* heap_base) noexcept {
  static_assert(kUndoDataMax < 256);  // a span packs meta_off << 8 | len
  auto* spans =
      static_cast<std::uint64_t*>(alloca(n * sizeof(std::uint64_t)));
  for (std::size_t i = 0; i < n; ++i) {
    spans[i] = entries[i].meta_off << 8 | entries[i].len;
  }
  std::sort(spans, spans + n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.add(heap_base + (spans[i] >> 8), spans[i] & 0xff);
  }
}

}  // namespace

std::uint32_t UndoLogger::checksum(const UndoEntry& e) noexcept {
  return body_checksum(e.gen, e.meta_off, e.len, e.data);
}

void UndoLogger::save(const void* addr, std::size_t len) {
  if (!enabled_) return;
  assert(len > 0 && len <= kUndoDataMax);
  if (used_ >= cap_) {
    // A single operation must never touch more metadata than the log holds;
    // this is a program invariant, not a recoverable condition.
    std::abort();
  }
  UndoEntry& e = entries_[used_];
  const std::uint64_t gen = *gen_;
  const auto meta_off = static_cast<std::uint64_t>(
      static_cast<const std::byte*>(addr) - heap_base_);
  // Dedupe: recovery applies entries newest-to-oldest so the oldest value
  // of a range wins; a range inside one already saved this operation needs
  // no second entry (and, crucially, no second flush+fence).  Ops touch a
  // handful of ranges, so the linear scan is cheap.
  for (std::size_t i = 0; i < used_; ++i) {
    if (entries_[i].meta_off <= meta_off &&
        meta_off + len <= entries_[i].meta_off + entries_[i].len) {
      return;
    }
  }
  // Fill via nv_* so the crash simulator tracks the log itself too.
  pmem::nv_store(e.gen, gen);
  pmem::nv_store(e.meta_off, meta_off);
  pmem::nv_store(e.len, static_cast<std::uint32_t>(len));
  pmem::nv_memcpy(e.data, addr, len);
  pmem::nv_store(e.csum,
                 body_checksum(gen, meta_off, static_cast<std::uint32_t>(len),
                               e.data));
  // Flush only the used prefix: entries are line aligned, so a save of up
  // to 40 bytes writes back one line.
  pmem::flush(&e, offsetof(UndoEntry, data) + len);  // fenced by seal()
  pending_ = true;
  ++used_;
  // undo_saves is counted in commit(): used_ at commit time is exactly the
  // number of entries appended (dedupe returns above never get here), so
  // one batched increment replaces 5-15 per-save RMWs on the hot path.
}

void UndoLogger::seal() noexcept {
  if (!pending_) return;
  pmem::fence();
  pending_ = false;
}

void UndoLogger::commit() noexcept {
  if (!enabled_ || used_ == 0) return;
  obs::CycleTimer lat(metrics_ != nullptr && obs::latency_sample_tick()
                          ? &metrics_->undo_commit_cycles
                          : nullptr);
  seal();
  // Every range mutated by the operation was first saved, so the entry
  // list doubles as the dirty set: write everything back with one fence,
  // then truncate.  (In-place mutations need no eager persist — if an
  // evicted line reaches media early, its undo entry is already durable.)
  // Mutated ranges cluster (a split touches adjacent records), so the
  // batch coalesces them into a few line ranges before the single fence.
  pmem::FlushBatch batch;
  add_sorted(batch, entries_, used_, heap_base_);
  batch.commit();
  pmem::nv_store_persist(*gen_, *gen_ + 1);
  if (metrics_ != nullptr) {
    metrics_->undo_saves.inc(used_);
    metrics_->undo_commits.inc();
  }
  used_ = 0;
}

void UndoLogger::rollback() noexcept {
  if (!enabled_) return;
  // Restores need no ordering between them — if the crash hits before the
  // final fence the still-valid log replays the same restores again — so
  // coalesce the write-backs and fence once.
  pmem::FlushBatch batch;
  for (std::size_t i = used_; i-- > 0;) {
    const UndoEntry& e = entries_[i];
    pmem::nv_memcpy(heap_base_ + e.meta_off, e.data, e.len);
    batch.add(heap_base_ + e.meta_off, e.len);
  }
  batch.commit();
  commit();
}

void UndoLogger::replay_n(std::uint64_t& gen, UndoEntry* entries,
                          std::size_t cap, std::byte* heap_base) noexcept {
  const std::uint64_t g = gen;
  // Valid entries form a prefix (appends are ordered and individually
  // persisted before the next one starts).
  std::size_t n = 0;
  while (n < cap && entries[n].gen == g &&
         entries[n].len > 0 && entries[n].len <= kUndoDataMax &&
         entries[n].csum == checksum(entries[n])) {
    ++n;
  }
  pmem::FlushBatch batch;
  for (std::size_t i = n; i-- > 0;) {
    const UndoEntry& e = entries[i];
    pmem::nv_memcpy(heap_base + e.meta_off, e.data, e.len);
    batch.add(heap_base + e.meta_off, e.len);
  }
  batch.commit();  // all restores durable before the generation bump
  if (n > 0) pmem::nv_store_persist(gen, g + 1);
}

}  // namespace poseidon::core
