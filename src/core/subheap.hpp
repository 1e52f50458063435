// Per-CPU sub-heap (paper §4.1, §5.2–§5.5).
//
// A sub-heap owns a power-of-two user region managed with buddy discipline:
// free blocks are power-of-two sized and offset-aligned, tracked in one
// doubly-linked free list per size class (the "buddy list") plus one
// memblock record per block in the multi-level hash table.  Allocation
// pops the smallest sufficient class and splits down; free validates the
// address against the hash table (rejecting invalid and double frees) and
// pushes to the *tail* of its class to delay reuse; defragmentation merges
// free buddy pairs lazily when a class runs dry or the hash table hits
// insert pressure.
//
// Every method assumes the caller holds the sub-heap lock and has opened
// the MPK write window.  All metadata mutations are undo-logged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/hash_table.hpp"
#include "core/layout.hpp"
#include "core/micro_log.hpp"
#include "core/undo_log.hpp"
#include "obs/metrics.hpp"

namespace poseidon::pmem {
class Pool;
}

namespace poseidon::core {

enum class FreeResult {
  kOk,
  kInvalidPointer,  // misaligned / out of range / wrong heap
  kInvalidFree,     // no such block (paper §5.5)
  kDoubleFree,      // block already free
  kQuarantined,     // owning sub-heap is quarantined (fault domain)
};

const char* to_string(FreeResult r) noexcept;

// Identifies the enclosing transaction for micro logging; disabled for
// singleton allocations.
struct TxHook {
  bool enabled = false;
  std::uint64_t heap_id = 0;
  std::uint16_t subheap = 0;
};

class Subheap {
 public:
  // View over an existing (formatted) sub-heap.  `pool` is used for hole
  // punching and may be nullptr in tests; `metrics` (the owning heap's
  // registry) likewise.
  Subheap(SubheapMeta* meta, std::byte* heap_base, pmem::Pool* pool,
          bool undo_enabled, bool eager_coalesce = false,
          obs::Metrics* metrics = nullptr) noexcept;

  // One-time formatting of a fresh sub-heap: writes the whole metadata
  // block and the initial single free block covering the user region.
  static void format(SubheapMeta* meta, std::byte* heap_base,
                     const Geometry& geo, unsigned index, unsigned cpu);

  // Allocate 2^ceil(log2(size)) >= 32 bytes; returns the block offset
  // within the user region, or nullopt when even defragmentation cannot
  // satisfy the request.
  std::optional<std::uint64_t> alloc(std::uint64_t size,
                                     const TxHook& tx = {});

  FreeResult free_block(std::uint64_t offset);

  // Read-only validation of `offset` against the memblock table: the checks
  // of free_block without any mutation.  result == kOk means a live block
  // of `size_class`.  Used by the thread-cache free fast path, which needs
  // the class (and the paper's invalid/double-free detection) without
  // paying for an undo log or a write window.
  struct ClassifyResult {
    FreeResult result;
    std::uint32_t size_class;
  };
  ClassifyResult classify(std::uint64_t offset) noexcept;

  // Batched refill for the thread cache: pop up to `max_n` blocks of
  // exactly class `cls` under ONE undo commit, writing their offsets to
  // `out`.  `on_block` runs for each popped offset while the batch is
  // still undo-protected — the thread cache writes and flushes its log
  // entry there, and the commit's data fence retires it before the
  // generation bump, so a crash either rolls every pop back or finds the
  // blocks logged.
  // Stops early on class exhaustion or undo-capacity headroom; never
  // defragments (the miss path's slow alloc handles that).  If the hash
  // table rejects a split mid-batch the WHOLE batch rolls back and
  // `rolled_back` is set: the caller must discard whatever `on_block`
  // recorded.
  struct RefillResult {
    unsigned n = 0;
    bool rolled_back = false;
  };
  RefillResult alloc_batch(unsigned cls, unsigned max_n, std::uint64_t* out,
                           const std::function<void(std::uint64_t)>& on_block);

  // Batched flush for the thread cache: validated-free every offset,
  // sharing one undo log and committing once (chunked only when undo
  // capacity forces it).  Invalid entries are skipped; returns the number
  // actually freed.
  unsigned free_batch(const std::uint64_t* offs, unsigned n);

  // Replay the undo log (crash recovery).  Micro-log replay is driven by
  // the heap because it runs the full validated free path.
  void recover_undo();

  SubheapMeta& meta() noexcept { return *meta_; }
  MicroLog& micro() noexcept { return meta_->micro; }
  HashTable& table() noexcept { return table_; }

  std::uint64_t free_bytes() const noexcept;
  std::uint64_t largest_free_class() const noexcept;  // 0 = none

  // Invariant checker for tests and fsck: walks the blocks by offset, the
  // free lists by (range-checked) slot link, and the hash records; returns
  // false (with a reason) on any inconsistency.
  bool check_invariants(std::string* why = nullptr) const;

  // Visit every memblock record (allocated and free).  Diagnostic use:
  // heap_inspect histograms, leak audits in tests.  The callback must not
  // mutate the heap.
  template <typename F>
  void visit_blocks(F&& f) const {
    const auto* storage =
        reinterpret_cast<const MemblockRec*>(heap_base_ + meta_->hash_off);
    std::uint64_t base = 0;
    for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
      const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
      for (std::uint64_t i = 0; i < slots; ++i) {
        const MemblockRec& rec = storage[base + i];
        if (rec.key != 0) f(rec.key - 1, rec.size_class, rec.status);
      }
      base += slots;
    }
  }

  // Visit every live record in full.  The allocation service's reconcile
  // sweep needs the link words (owner tags live in next_free of allocated
  // records); same locking rules as visit_blocks.
  template <typename F>
  void visit_records(F&& f) const {
    const auto* storage =
        reinterpret_cast<const MemblockRec*>(heap_base_ + meta_->hash_off);
    std::uint64_t base = 0;
    for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
      const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
      for (std::uint64_t i = 0; i < slots; ++i) {
        const MemblockRec& rec = storage[base + i];
        if (rec.key != 0) f(rec);
      }
      base += slots;
    }
  }

 private:
  UndoLogger make_undo() noexcept;

  // Free-list plumbing (all undo-logged).
  MemblockRec* pop_free_head(unsigned cls, UndoLogger& undo);
  // Inserts `rec` at the head of class `cls`'s free list.
  void push_free(MemblockRec* rec, unsigned cls, UndoLogger& undo);
  // Splices `rec` in at the tail or head; `link` is the record there
  // (nullptr iff the list is empty), already looked up by the caller.
  void link_free(MemblockRec* rec, unsigned cls, bool at_tail,
                 MemblockRec* link, UndoLogger& undo);
  // Free path: mark an allocated record free and append it to its class
  // list's tail, looking the tail record up once.
  void release_to_tail(MemblockRec* rec, UndoLogger& undo);
  void remove_free(MemblockRec* rec, unsigned cls, UndoLogger& undo);

  // Smallest class >= cls with a free block; kMaxClasses when none.
  unsigned find_class(unsigned cls) const noexcept;

  // Split `rec` (class cls, offset off) in half; the upper buddy becomes a
  // new free block.  False when the hash table cannot take the new record.
  bool split(MemblockRec* rec, std::uint64_t off, unsigned cls,
             UndoLogger& undo);

  // Merge the free buddy pair (low, high) of class cls into one free block
  // of class cls+1.  Does not commit; both records must be free.
  void merge_pair(MemblockRec* low, MemblockRec* high, unsigned cls,
                  UndoLogger& undo);

  // Insert a record, applying the paper's insert-pressure strategy:
  // probe -> defragment records in the probed windows -> extend the table.
  MemblockRec* insert_record(std::uint64_t off, UndoLogger& undo);

  // Class-dry defragmentation (paper §5.4 case 1): merge buddy pairs in
  // classes below `target` until a block of class >= target exists or no
  // progress.  Runs as its own sequence of committed operations; must be
  // called with an empty undo log.  Returns true if a block is available.
  bool defrag_for(unsigned target);

  // Attempt one buddy merge of `rec` (free, class cls) as an independent
  // committed operation.  Returns true on success.
  bool try_merge(MemblockRec* rec, unsigned cls);

  // After a committed erase, deactivate + hole-punch empty top levels.
  void maybe_shrink_hash();

  void bump_counters(std::int64_t live_delta, std::int64_t free_delta,
                     std::int64_t bytes_delta, UndoLogger& undo);

  SubheapMeta* meta_;
  std::byte* heap_base_;
  pmem::Pool* pool_;
  bool undo_enabled_;
  bool eager_coalesce_ = false;
  obs::Metrics* metrics_ = nullptr;
  HashTable table_;
};

}  // namespace poseidon::core
