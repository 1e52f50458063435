#include "core/subheap.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/bitops.hpp"
#include "pmem/crashpoint.hpp"
#include "pmem/persist.hpp"
#include "pmem/pool.hpp"

namespace poseidon::core {

namespace {
constexpr std::uint64_t kNull = 0;  // +1 encodings: 0 means none
}

const char* to_string(FreeResult r) noexcept {
  switch (r) {
    case FreeResult::kOk: return "ok";
    case FreeResult::kInvalidPointer: return "invalid-pointer";
    case FreeResult::kInvalidFree: return "invalid-free";
    case FreeResult::kDoubleFree: return "double-free";
    case FreeResult::kQuarantined: return "quarantined";
  }
  return "?";
}

Subheap::Subheap(SubheapMeta* meta, std::byte* heap_base, pmem::Pool* pool,
                 bool undo_enabled, bool eager_coalesce,
                 obs::Metrics* metrics) noexcept
    : meta_(meta), heap_base_(heap_base), pool_(pool),
      undo_enabled_(undo_enabled), eager_coalesce_(eager_coalesce),
      metrics_(metrics), table_(meta, heap_base, metrics) {}

UndoLogger Subheap::make_undo() noexcept {
  return UndoLogger(meta_->undo_gen, meta_->undo, heap_base_, undo_enabled_,
                    metrics_);
}

void Subheap::format(SubheapMeta* meta, std::byte* heap_base,
                     const Geometry& geo, unsigned index, unsigned cpu) {
  pmem::nv_memset(meta, 0, sizeof(SubheapMeta));
  pmem::nv_store(meta->magic, kSubheapMagic);
  pmem::nv_store(meta->index, index);
  pmem::nv_store(meta->preferred_cpu, cpu);
  pmem::nv_store(meta->user_off, geo.user_region_off + index * geo.user_size);
  pmem::nv_store(meta->user_size, geo.user_size);
  pmem::nv_store(meta->hash_off,
                 geo.hash_region_off + index * geo.hash_region_stride);
  pmem::nv_store(meta->levels_active, 1u);
  pmem::nv_store(meta->levels_max, geo.levels_max);
  pmem::nv_store(meta->level0_slots, geo.level0_slots);

  // The entire user region starts life as one free block of the top class.
  HashTable table(meta, heap_base);
  UndoLogger no_undo(meta->undo_gen, meta->undo, heap_base, /*enabled=*/false);
  MemblockRec* rec = table.insert(0, no_undo);
  assert(rec != nullptr);
  const unsigned top = log2_floor(geo.user_size);
  pmem::nv_store(rec->size_class, top);
  pmem::nv_store(rec->status, static_cast<std::uint32_t>(kBlockFree));
  pmem::nv_store(rec->prev_free, kNull);
  pmem::nv_store(rec->next_free, kNull);
  pmem::nv_store(meta->free_heads[top].head, table.link_of(rec));
  pmem::nv_store(meta->free_heads[top].tail, table.link_of(rec));
  pmem::nv_store(meta->free_blocks, std::uint64_t{1});
  pmem::persist(rec, sizeof(*rec));
  pmem::persist(meta, sizeof(SubheapMeta));
}

unsigned Subheap::find_class(unsigned cls) const noexcept {
  const unsigned top = log2_floor(meta_->user_size);
  for (unsigned c = cls; c <= top; ++c) {
    if (meta_->free_heads[c].head != kNull) return c;
  }
  return kMaxClasses;
}

MemblockRec* Subheap::pop_free_head(unsigned cls, UndoLogger& undo) {
  // The head element's prev_free is a don't-care (remove_free special-
  // cases the head), so popping never touches the successor record —
  // one less save + write-back on the hottest path.
  FreeListHead& h = meta_->free_heads[cls];
  assert(h.head != kNull);
  MemblockRec* rec = table_.at(h.head);
  assert(rec->key != kNull && rec->status == kBlockFree);
  const std::uint64_t next = rec->next_free;
  // Group the saves of this step under one fence, then mutate.
  undo.save_obj(h);
  undo.save_obj(*rec);
  undo.seal();
  pmem::nv_store(h.head, next);
  if (next == kNull) pmem::nv_store(h.tail, kNull);
  pmem::nv_store(rec->next_free, kNull);
  pmem::nv_store(rec->prev_free, kNull);
  // Mark allocated immediately so in-flight blocks are never merge
  // candidates for defragmentation running later in the same operation.
  pmem::nv_store(rec->status, static_cast<std::uint32_t>(kBlockAllocated));
  return rec;
}

void Subheap::push_free(MemblockRec* rec, unsigned cls, UndoLogger& undo) {
  const std::uint64_t head = meta_->free_heads[cls].head;
  MemblockRec* link = head != kNull ? table_.at(head) : nullptr;
  link_free(rec, cls, /*at_tail=*/false, link, undo);
}

void Subheap::link_free(MemblockRec* rec, unsigned cls, bool at_tail,
                        MemblockRec* link, UndoLogger& undo) {
  FreeListHead& h = meta_->free_heads[cls];
  const std::uint64_t self = table_.link_of(rec);
  undo.save_obj(h);
  undo.save_obj(*rec);
  if (link != nullptr) undo.save_obj(*link);
  undo.seal();
  if (link == nullptr) {
    pmem::nv_store(h.head, self);
    pmem::nv_store(h.tail, self);
    pmem::nv_store(rec->next_free, kNull);
    pmem::nv_store(rec->prev_free, kNull);
  } else if (at_tail) {
    pmem::nv_store(link->next_free, self);
    pmem::nv_store(rec->prev_free, h.tail);
    pmem::nv_store(rec->next_free, kNull);
    pmem::nv_store(h.tail, self);
  } else {
    pmem::nv_store(link->prev_free, self);
    pmem::nv_store(rec->next_free, h.head);
    pmem::nv_store(rec->prev_free, kNull);
    pmem::nv_store(h.head, self);
  }
}

void Subheap::release_to_tail(MemblockRec* rec, UndoLogger& undo) {
  // One save group for the record, the class list head and the current
  // tail record (its next_free changes); link_free's own saves dedupe
  // against these.  The tail link names its slot: no probe.
  const unsigned cls = rec->size_class;
  const FreeListHead& h = meta_->free_heads[cls];
  MemblockRec* tail = h.tail != kNull ? table_.at(h.tail) : nullptr;
  undo.save_obj(*rec);
  undo.save_obj(h);
  if (tail != nullptr) undo.save_obj(*tail);
  undo.seal();
  pmem::nv_store(rec->status, static_cast<std::uint32_t>(kBlockFree));
  // Tail insertion delays reuse of the just-freed block (paper §5.5).
  link_free(rec, cls, /*at_tail=*/true, tail, undo);
}

void Subheap::remove_free(MemblockRec* rec, unsigned cls, UndoLogger& undo) {
  FreeListHead& h = meta_->free_heads[cls];
  // The head's prev_free is stale by convention (see pop_free_head):
  // detect headship via the list head pointer, never via prev_free.
  const bool is_head = h.head == table_.link_of(rec);
  MemblockRec* p = !is_head ? table_.at(rec->prev_free) : nullptr;
  MemblockRec* n = rec->next_free != kNull ? table_.at(rec->next_free) : nullptr;
  assert(is_head || rec->prev_free != kNull);
  // The list head changes only when rec is its head or its tail.
  if (is_head || n == nullptr) undo.save_obj(h);
  undo.save_obj(*rec);
  if (p != nullptr) undo.save_obj(*p);
  if (n != nullptr) undo.save_obj(*n);
  undo.seal();
  if (is_head) {
    pmem::nv_store(h.head, rec->next_free);
    // The new head's prev_free is allowed to go stale.
  } else {
    pmem::nv_store(p->next_free, rec->next_free);
    if (n != nullptr) pmem::nv_store(n->prev_free, rec->prev_free);
  }
  if (rec->next_free == kNull) {
    pmem::nv_store(h.tail, is_head ? kNull : rec->prev_free);
  }
  pmem::nv_store(rec->next_free, kNull);
  pmem::nv_store(rec->prev_free, kNull);
}

void Subheap::bump_counters(std::int64_t live_delta, std::int64_t free_delta,
                            std::int64_t bytes_delta, UndoLogger& undo) {
  // Statistics counters are *not* undo-logged: a crash may leave them
  // stale, and recovery recomputes them from the memblock records
  // (recover_undo), so the hot path saves an entry.  They share the undo
  // generation's cache line, so the operation's commit, which persists
  // the generation, writes them back too: a counter store never sits
  // dirty in cache past its own operation.  Without an undo log the
  // commit writes nothing back, so the counters are flushed here.
  (void)undo;
  pmem::nv_store(meta_->live_blocks,
                 meta_->live_blocks + static_cast<std::uint64_t>(live_delta));
  pmem::nv_store(meta_->free_blocks,
                 meta_->free_blocks + static_cast<std::uint64_t>(free_delta));
  pmem::nv_store(
      meta_->allocated_bytes,
      meta_->allocated_bytes + static_cast<std::uint64_t>(bytes_delta));
  if (!undo_enabled_) {
    pmem::flush(&meta_->live_blocks, 3 * sizeof(std::uint64_t));
  }
}

MemblockRec* Subheap::insert_record(std::uint64_t off, UndoLogger& undo) {
  MemblockRec* rec = table_.insert(off, undo);
  if (rec != nullptr) return rec;

  // Insert pressure (paper §5.4 case 2): merge free buddy pairs whose
  // records occupy the probed windows.  Only a merge whose *high* buddy
  // record sits in the window is attempted — that is the record the merge
  // erases, freeing a probed slot.
  bool merged = false;
  table_.visit_windows(off, [&](MemblockRec* cand) {
    if (cand->key == kNull || cand->status != kBlockFree) return;
    const std::uint64_t coff = cand->key - 1;
    const std::uint64_t csize = std::uint64_t{1} << cand->size_class;
    const std::uint64_t buddy = coff ^ csize;
    if (buddy > coff) return;  // cand must be the high half
    MemblockRec* low = table_.find(buddy);
    if (low == nullptr || low->status != kBlockFree ||
        low->size_class != cand->size_class) {
      return;
    }
    merge_pair(low, cand, cand->size_class, undo);
    pmem::nv_store(meta_->stat_window_merges, meta_->stat_window_merges + 1);
    pmem::flush(&meta_->stat_window_merges, sizeof(meta_->stat_window_merges));
    merged = true;
  });
  if (merged) {
    rec = table_.insert(off, undo);
    if (rec != nullptr) return rec;
  }
  if (table_.try_extend(undo)) {
    pmem::nv_store(meta_->stat_extensions, meta_->stat_extensions + 1);
    pmem::flush(&meta_->stat_extensions, sizeof(meta_->stat_extensions));
    rec = table_.insert(off, undo);
  }
  return rec;
}

bool Subheap::split(MemblockRec* rec, std::uint64_t off, unsigned cls,
                    UndoLogger& undo) {
  const std::uint64_t half = std::uint64_t{1} << (cls - 1);
  const std::uint64_t boff = off + half;
  MemblockRec* brec = insert_record(boff, undo);
  if (brec == nullptr) return false;

  pmem::nv_store(rec->size_class, cls - 1);
  pmem::nv_store(brec->size_class, cls - 1);
  pmem::nv_store(brec->status, static_cast<std::uint32_t>(kBlockFree));
  pmem::nv_store(brec->prev_free, kNull);
  pmem::nv_store(brec->next_free, kNull);
  // Fresh halves go to the head: they are cache-hot split remainders.
  push_free(brec, cls - 1, undo);
  pmem::nv_store(meta_->stat_splits, meta_->stat_splits + 1);
  pmem::flush(&meta_->stat_splits, sizeof(meta_->stat_splits));
  return true;
}

void Subheap::merge_pair(MemblockRec* low, MemblockRec* high, unsigned cls,
                         UndoLogger& undo) {
  assert(low->status == kBlockFree && high->status == kBlockFree);
  assert(low->size_class == cls && high->size_class == cls);
  assert((low->key - 1) + (std::uint64_t{1} << cls) == high->key - 1);
  remove_free(low, cls, undo);
  remove_free(high, cls, undo);
  table_.erase(high, undo);
  pmem::nv_store(low->size_class, cls + 1);
  push_free(low, cls + 1, undo);
  pmem::nv_store(meta_->stat_merges, meta_->stat_merges + 1);
  pmem::flush(&meta_->stat_merges, sizeof(meta_->stat_merges));
  // Unlike the unlogged end-of-op counter bumps, a merge can run inside an
  // operation that later rolls back (hash-pressure merges during a failed
  // split), so its counter change must revert with the records.
  undo.save(&meta_->live_blocks, 3 * sizeof(std::uint64_t));
  undo.seal();
  bump_counters(0, -1, 0, undo);
}

bool Subheap::try_merge(MemblockRec* rec, unsigned cls) {
  const std::uint64_t off = rec->key - 1;
  const std::uint64_t buddy = off ^ (std::uint64_t{1} << cls);
  MemblockRec* brec = table_.find(buddy);
  if (brec == nullptr || brec->status != kBlockFree ||
      brec->size_class != cls) {
    return false;
  }
  UndoLogger undo = make_undo();
  MemblockRec* low = off < buddy ? rec : brec;
  MemblockRec* high = off < buddy ? brec : rec;
  merge_pair(low, high, cls, undo);
  undo.commit();
  POSEIDON_CRASH_POINT("defrag.after_merge");
  maybe_shrink_hash();
  return true;
}

bool Subheap::defrag_for(unsigned target) {
  // Paper §5.4 case 1: iterate free blocks in classes below the requested
  // one and merge buddy pairs until a large-enough block appears.
  bool restart = true;
  while (restart) {
    restart = false;
    for (unsigned c = kMinBlockShift; c < target; ++c) {
      std::uint64_t link = meta_->free_heads[c].head;
      while (link != kNull) {
        MemblockRec* rec = table_.at(link);
        const std::uint64_t next = rec->next_free;
        if (try_merge(rec, c)) {
          if (find_class(target) != kMaxClasses) return true;
          restart = true;  // list links changed; rescan
          break;
        }
        link = next;
      }
      if (restart) break;
    }
  }
  return find_class(target) != kMaxClasses;
}

void Subheap::maybe_shrink_hash() {
  for (;;) {
    UndoLogger undo = make_undo();
    const auto range = table_.shrink_top_if_empty(undo);
    if (!range) break;
    undo.commit();
    // Full persist: the shrink counter is bumped *after* undo.commit(),
    // so no later fence in this operation is guaranteed to retire it.
    pmem::nv_store(meta_->stat_shrinks, meta_->stat_shrinks + 1);
    pmem::persist(&meta_->stat_shrinks, sizeof(meta_->stat_shrinks));
    // Punching is outside the undo protocol on purpose: the deactivated
    // level held no records, so its content is all-zero either way.  A
    // skipped hole (filesystem can't punch) is likewise harmless: stale
    // bytes in a deactivated level have zeroed keys, and reactivation
    // rewrites every field it claims.
    if (pool_ != nullptr && !pool_->punch_hole(range->off, range->len)) {
      if (metrics_ != nullptr) metrics_->punch_hole_skips.inc();
    }
  }
}

std::optional<std::uint64_t> Subheap::alloc(std::uint64_t size,
                                            const TxHook& tx) {
  if (size == 0 || size > meta_->user_size) return std::nullopt;
  const unsigned cls =
      std::max(kMinBlockShift, log2_ceil(size));
  unsigned c = find_class(cls);
  if (c == kMaxClasses) {
    bool available = false;
    {
      obs::CycleTimer lat(metrics_ != nullptr ? &metrics_->defrag_cycles
                                              : nullptr);
      available = defrag_for(cls);
    }
    if (metrics_ != nullptr) metrics_->defrag_runs.inc();
    if (!available) return std::nullopt;
    c = find_class(cls);
    if (c == kMaxClasses) return std::nullopt;
  }

  UndoLogger undo = make_undo();
  POSEIDON_CRASH_POINT("alloc.begin");
  MemblockRec* rec = pop_free_head(c, undo);
  const std::uint64_t off = rec->key - 1;
  POSEIDON_CRASH_POINT("alloc.after_pop");

  unsigned splits = 0;
  while (c > cls) {
    if (!split(rec, off, c, undo)) {
      undo.rollback();
      return std::nullopt;
    }
    --c;
    ++splits;
    POSEIDON_CRASH_POINT("alloc.after_split");
  }

  pmem::nv_store(rec->status, static_cast<std::uint32_t>(kBlockAllocated));

  if (tx.enabled) {
    POSEIDON_CRASH_POINT("tx.before_micro_append");
    const NvPtr p = NvPtr::make(tx.heap_id, tx.subheap, off);
    if (!micro_append(meta_->micro, p, metrics_)) {
      undo.rollback();
      return std::nullopt;
    }
    POSEIDON_CRASH_POINT("tx.after_micro_append");
  }

  // Counters are not undo-logged (recovery recomputes them), so bump them
  // only once every abort path is behind us.
  bump_counters(+1, static_cast<std::int64_t>(splits) - 1,
                static_cast<std::int64_t>(std::uint64_t{1} << cls), undo);

  POSEIDON_CRASH_POINT("alloc.before_commit");
  undo.commit();
  POSEIDON_CRASH_POINT("alloc.after_commit");
  return off;
}

FreeResult Subheap::free_block(std::uint64_t offset) {
  if (offset >= meta_->user_size ||
      (offset & ((std::uint64_t{1} << kMinBlockShift) - 1)) != 0) {
    return FreeResult::kInvalidPointer;
  }
  MemblockRec* rec = table_.find(offset);
  if (rec == nullptr) return FreeResult::kInvalidFree;
  if (rec->status == kBlockFree) return FreeResult::kDoubleFree;

  const unsigned cls = rec->size_class;
  UndoLogger undo = make_undo();
  POSEIDON_CRASH_POINT("free.begin");
  release_to_tail(rec, undo);
  bump_counters(-1, +1,
                -static_cast<std::int64_t>(std::uint64_t{1} << cls), undo);
  POSEIDON_CRASH_POINT("free.before_commit");
  undo.commit();
  POSEIDON_CRASH_POINT("free.after_commit");
  if (eager_coalesce_) {
    // Ablation mode: classic buddy behaviour — merge up immediately.
    // Each try_merge is its own committed operation and leaves `rec`
    // superseded by the merged block, so re-find after every round.
    std::uint64_t cur = offset & ~((std::uint64_t{1} << cls) - 1);
    for (;;) {
      MemblockRec* r = table_.find(cur);
      if (r == nullptr || r->status != kBlockFree) break;
      const unsigned c = r->size_class;
      if (!try_merge(r, c)) break;
      cur &= ~((std::uint64_t{1} << (c + 1)) - 1);  // merged block start
    }
  }
  return FreeResult::kOk;
}

Subheap::ClassifyResult Subheap::classify(std::uint64_t offset) noexcept {
  if (offset >= meta_->user_size ||
      (offset & ((std::uint64_t{1} << kMinBlockShift) - 1)) != 0) {
    return {FreeResult::kInvalidPointer, 0};
  }
  MemblockRec* rec = table_.find(offset);
  if (rec == nullptr) return {FreeResult::kInvalidFree, 0};
  if (rec->status == kBlockFree) return {FreeResult::kDoubleFree, 0};
  return {FreeResult::kOk, rec->size_class};
}

Subheap::RefillResult Subheap::alloc_batch(
    unsigned cls, unsigned max_n, std::uint64_t* out,
    const std::function<void(std::uint64_t)>& on_block) {
  RefillResult r;
  const unsigned top = log2_floor(meta_->user_size);
  if (cls < kMinBlockShift || cls > top || max_n == 0) return r;

  UndoLogger undo = make_undo();
  std::int64_t free_delta = 0;
  while (r.n < max_n) {
    // A pop plus a full split chain from the top class saves a bounded
    // handful of records per level; stop the batch rather than risk the
    // undo-capacity abort.  Later pops usually split little or not at all.
    if (undo.used() + 256 > kSubheapUndoCap) break;
    const unsigned c = find_class(cls);
    if (c == kMaxClasses) break;
    POSEIDON_CRASH_POINT("cache.refill_pop");
    MemblockRec* rec = pop_free_head(c, undo);
    const std::uint64_t off = rec->key - 1;
    --free_delta;
    unsigned cur = c;
    bool ok = true;
    while (cur > cls) {
      if (!split(rec, off, cur, undo)) {
        ok = false;
        break;
      }
      --cur;
      ++free_delta;
    }
    if (!ok) {
      undo.rollback();
      return RefillResult{0, true};
    }
    out[r.n++] = off;
    on_block(off);
    POSEIDON_CRASH_POINT("cache.refill_logged");
  }
  if (r.n == 0) return r;
  bump_counters(static_cast<std::int64_t>(r.n), free_delta,
                static_cast<std::int64_t>(r.n) << cls, undo);
  POSEIDON_CRASH_POINT("cache.refill_before_commit");
  undo.commit();
  POSEIDON_CRASH_POINT("cache.refill_after_commit");
  return r;
}

unsigned Subheap::free_batch(const std::uint64_t* offs, unsigned n) {
  UndoLogger undo = make_undo();
  unsigned freed = 0;
  std::int64_t live_delta = 0, free_delta = 0, bytes_delta = 0;
  std::uint64_t freed_offs[64];
  auto commit_chunk = [&] {
    if (live_delta == 0 && undo.used() == 0) return;
    bump_counters(live_delta, free_delta, bytes_delta, undo);
    POSEIDON_CRASH_POINT("cache.flush_before_commit");
    undo.commit();
    POSEIDON_CRASH_POINT("cache.flush_after_commit");
    live_delta = free_delta = bytes_delta = 0;
  };
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t offset = offs[i];
    if (offset >= meta_->user_size ||
        (offset & ((std::uint64_t{1} << kMinBlockShift) - 1)) != 0) {
      continue;
    }
    MemblockRec* rec = table_.find(offset);
    if (rec == nullptr || rec->status != kBlockAllocated) continue;
    if (undo.used() + 64 > kSubheapUndoCap) commit_chunk();
    const unsigned cls = rec->size_class;
    release_to_tail(rec, undo);
    --live_delta;
    ++free_delta;
    bytes_delta -= static_cast<std::int64_t>(std::uint64_t{1} << cls);
    if (freed < 64) freed_offs[freed] = offset;
    ++freed;
  }
  commit_chunk();
  if (eager_coalesce_) {
    // Ablation parity with free_block: merge each freed block upward as
    // independent committed operations.
    for (unsigned i = 0; i < std::min(freed, 64u); ++i) {
      std::uint64_t cur = freed_offs[i];
      for (;;) {
        MemblockRec* r = table_.find(cur);
        if (r == nullptr || r->status != kBlockFree) break;
        const unsigned c = r->size_class;
        if (!try_merge(r, c)) break;
        cur &= ~((std::uint64_t{1} << (c + 1)) - 1);
      }
    }
  }
  return freed;
}

void Subheap::recover_undo() {
  UndoLogger::replay(meta_->undo_gen, meta_->undo, heap_base_);
  // Rebuild the statistics counters from the (now consistent) records;
  // they are excluded from undo logging on the hot path.
  std::uint64_t live = 0, free_blocks = 0, bytes = 0;
  const auto* storage =
      reinterpret_cast<const MemblockRec*>(heap_base_ + meta_->hash_off);
  std::uint64_t base = 0;
  for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
    const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
    for (std::uint64_t i = 0; i < slots; ++i) {
      const MemblockRec& rec = storage[base + i];
      if (rec.key == kNull) continue;
      if (rec.status == kBlockAllocated) {
        ++live;
        bytes += std::uint64_t{1} << rec.size_class;
      } else {
        ++free_blocks;
      }
    }
    base += slots;
  }
  pmem::nv_store(meta_->live_blocks, live);
  pmem::nv_store(meta_->free_blocks, free_blocks);
  pmem::nv_store(meta_->allocated_bytes, bytes);
  pmem::persist(&meta_->live_blocks, 3 * sizeof(std::uint64_t));
}

std::uint64_t Subheap::free_bytes() const noexcept {
  const unsigned top = log2_floor(meta_->user_size);
  std::uint64_t total = 0;
  for (unsigned c = kMinBlockShift; c <= top; ++c) {
    for (std::uint64_t link = meta_->free_heads[c].head; link != kNull;
         link = table_.at(link)->next_free) {
      total += std::uint64_t{1} << c;
    }
  }
  return total;
}

std::uint64_t Subheap::largest_free_class() const noexcept {
  const unsigned top = log2_floor(meta_->user_size);
  for (unsigned c = top + 1; c-- > kMinBlockShift;) {
    if (meta_->free_heads[c].head != kNull) return c;
  }
  return 0;
}

bool Subheap::check_invariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  auto* self = const_cast<Subheap*>(this);
  const unsigned top = log2_floor(meta_->user_size);

  // 1. Walking offsets from 0, block by block, must tile the user region.
  std::uint64_t covered = 0;
  std::uint64_t blocks = 0, free_blocks = 0, live_blocks = 0;
  while (covered < meta_->user_size) {
    const MemblockRec* rec = self->table_.find(covered);
    if (rec == nullptr) return fail("tiling gap at " + std::to_string(covered));
    if (rec->size_class < kMinBlockShift || rec->size_class > top) {
      return fail("bad size class at " + std::to_string(covered));
    }
    const std::uint64_t size = std::uint64_t{1} << rec->size_class;
    if (covered % size != 0) {
      return fail("misaligned block at " + std::to_string(covered));
    }
    if (rec->status != kBlockFree && rec->status != kBlockAllocated) {
      return fail("bad status at " + std::to_string(covered));
    }
    covered += size;
    ++blocks;
    if (rec->status == kBlockFree) ++free_blocks; else ++live_blocks;
  }
  if (covered != meta_->user_size) return fail("tiling overruns region");

  // 2. Free lists: doubly linked through occupied slots, statuses free,
  //    classes match, and their union equals the set of free blocks.  A
  //    link is range-checked before it is followed.
  std::uint64_t listed_free = 0;
  for (unsigned c = kMinBlockShift; c <= top; ++c) {
    const FreeListHead& h = meta_->free_heads[c];
    std::uint64_t link = h.head, prev = 0;
    while (link != kNull) {
      const MemblockRec* r = table_.at_checked(link);
      if (r == nullptr) return fail("free list dangles in class " + std::to_string(c));
      if (r->status != kBlockFree) return fail("non-free block in free list");
      if (r->size_class != c) return fail("class mismatch in free list");
      // prev_free of the head element is a don't-care (pop convention).
      if (link != h.head && r->prev_free != prev) {
        return fail("broken prev_free link");
      }
      ++listed_free;
      prev = link;
      link = r->next_free;
      if (listed_free > blocks) return fail("free list cycle");
    }
    if (h.tail != prev) return fail("tail mismatch in class " + std::to_string(c));
  }
  if (listed_free != free_blocks) return fail("free-list/record count mismatch");

  // 3. Persistent counters agree.
  if (meta_->free_blocks != free_blocks) return fail("free_blocks counter drift");
  if (meta_->live_blocks != live_blocks) return fail("live_blocks counter drift");

  // 4. Hash level occupancy counters agree with a full scan.
  std::uint64_t scanned = 0;
  auto* storage = reinterpret_cast<const MemblockRec*>(heap_base_ + meta_->hash_off);
  std::uint64_t base = 0;
  for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
    const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < slots; ++i) {
      if (storage[base + i].key != 0) ++n;
    }
    if (n != meta_->level_count[lvl]) {
      return fail("level_count drift at level " + std::to_string(lvl));
    }
    scanned += n;
    base += slots;
  }
  if (scanned != blocks) return fail("hash record count mismatch");
  return true;
}

}  // namespace poseidon::core
