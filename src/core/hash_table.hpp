// Multi-level hash table of memblock records (paper §4.4, §5.2).
//
// Level i holds level0 * 2^i slots, and level0 is a power of two, so every
// level is one.  A key probes a bounded linear window (kProbeWindow slots
// from hash & (slots - 1), wrapping by the same mask) at every active
// level: no division anywhere.  Lookups are O(levels * window) = O(1) in
// the heap size — the paper's constant-time claim — and deletion simply
// clears the slot because a probe never stops early at an empty slot.
//
// find() probes the active levels fullest first (descending level_count,
// ties lower level first).  Keys are unique, so the order changes only the
// work: a hit usually lands in the first window scanned.  insert() still
// claims the first empty slot from level 0 upward, so placement does not
// depend on the counters, but it skips levels whose count says they are
// full (no empty slot in any window).
//
// When every window is full the sub-heap first tries to *defragment* —
// merge free buddy pairs whose records occupy the probed windows — and only
// then activates ("extends to") the next level.  Levels whose record count
// drops to zero are deactivated top-down and their pages hole-punched back
// to the filesystem (paper §5.6).
//
// A record stays in the slot it was inserted into until it is erased, so
// the free lists link records by slot (link_of / at) rather than by offset.
//
// All mutations are undo-logged by the caller's UndoLogger; the sub-heap
// lock serializes access.
#pragma once

#include <cstdint>
#include <optional>

#include "common/hash.hpp"
#include "core/layout.hpp"
#include "core/undo_log.hpp"
#include "obs/metrics.hpp"

namespace poseidon::core {

class HashTable {
 public:
  // `metrics` (optional) receives the probe-length histogram samples.
  HashTable(SubheapMeta* meta, std::byte* heap_base,
            obs::Metrics* metrics = nullptr) noexcept
      : meta_(meta),
        storage_(reinterpret_cast<MemblockRec*>(heap_base + meta->hash_off)),
        metrics_(metrics) {}

  // Record for block at byte offset `block_off`, or nullptr.
  MemblockRec* find(std::uint64_t block_off) noexcept;

  // Claim a slot for `block_off` (which must not be present).  The slot is
  // undo-logged and its key set; the caller fills the remaining fields and
  // persists.  Returns nullptr when all windows are full and no level can
  // be activated — the caller should defragment and retry.
  MemblockRec* insert(std::uint64_t block_off, UndoLogger& undo);

  // Remove a record (undo-logged).
  void erase(MemblockRec* rec, UndoLogger& undo);

  // Activate the next level; false if levels_max reached.
  bool try_extend(UndoLogger& undo);

  // If the top active level holds no records, deactivate it and return the
  // byte range (relative to heap base) the caller should hole-punch.
  struct Range {
    std::uint64_t off;
    std::uint64_t len;
  };
  std::optional<Range> shrink_top_if_empty(UndoLogger& undo);

  // Visit every non-empty slot in the probe windows `block_off` hashes to,
  // across active levels (used by insert-pressure defragmentation).  The
  // callback may erase records.  Iteration order: level 0 upward.
  template <typename F>
  void visit_windows(std::uint64_t block_off, F&& f) {
    const std::uint64_t h = hash_of(block_off);
    for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
      const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
      MemblockRec* level = level_base(lvl);
      for (unsigned w = 0; w < kProbeWindow; ++w) {
        MemblockRec* rec = level + window_slot(h, slots, w);
        if (rec->key != 0) f(rec);
      }
    }
  }

  // Free-list links name slots: link_of(rec) is rec's slot index + 1 (0 is
  // the null link) and at(link) the record there.  A keyed record never
  // moves and only empty levels are deactivated, so a link held by a
  // listed record stays valid until that record is erased.
  std::uint64_t link_of(const MemblockRec* rec) const noexcept {
    return static_cast<std::uint64_t>(rec - storage_) + 1;
  }
  MemblockRec* at(std::uint64_t link) const noexcept {
    return storage_ + (link - 1);
  }
  // at() for validators, which must not trust the link: nullptr unless
  // `link` names an occupied slot of an active level.
  const MemblockRec* at_checked(std::uint64_t link) const noexcept {
    const std::uint64_t active =
        level_offset(meta_->level0_slots, meta_->levels_active) /
        sizeof(MemblockRec);
    if (link == 0 || link > active || at(link)->key == 0) return nullptr;
    return at(link);
  }

  unsigned levels_active() const noexcept { return meta_->levels_active; }
  std::uint64_t record_count() const noexcept;

  static std::uint64_t hash_of(std::uint64_t block_off) noexcept {
    return mix64(block_off >> kMinBlockShift);
  }

  // Probe-window placement, the one definition every user shares.  In a
  // level of `slots` slots (a power of two), probe `w` of hash `h` is slot
  // window_slot(h, slots, w); slot `idx` lies in h's window iff
  // in_window(h, slots, idx).
  static std::uint64_t window_slot(std::uint64_t h, std::uint64_t slots,
                                   unsigned w) noexcept {
    return (h + w) & (slots - 1);
  }
  static bool in_window(std::uint64_t h, std::uint64_t slots,
                        std::uint64_t idx) noexcept {
    return ((idx - h) & (slots - 1)) < kProbeWindow;
  }

 private:
  MemblockRec* level_base(unsigned level) noexcept {
    return storage_ + level_offset(meta_->level0_slots, level) /
                          sizeof(MemblockRec);
  }
  // Fills `order` with the active levels, fullest first (ties: lower level
  // first); returns how many.
  unsigned probe_order(unsigned (&order)[kMaxHashLevels]) const noexcept;
  // Which level a slot pointer belongs to (for count bookkeeping).
  unsigned level_of(const MemblockRec* rec) const noexcept;

  SubheapMeta* meta_;
  MemblockRec* storage_;
  obs::Metrics* metrics_;
};

}  // namespace poseidon::core
