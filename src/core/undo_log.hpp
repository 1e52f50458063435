// Physical undo logging (paper §4.5, §5.2).
//
// Before the first in-place mutation of any metadata range within an
// operation, the original bytes are appended to the undo log and persisted.
// Commit truncates the log by bumping its generation (one persisted 8-byte
// store).  If a crash interrupts the operation, recovery finds valid
// entries (matching generation + checksum) and restores them newest-first,
// so the oldest logged value — the pre-operation state — wins.  Replay is
// idempotent: it only rewrites ranges with their logged contents.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/layout.hpp"
#include "obs/metrics.hpp"

namespace poseidon::core {

// Cursor over a fixed-capacity undo log.  One live UndoLogger per
// operation; the sub-heap lock serializes access to the underlying log.
class UndoLogger {
 public:
  // A log is a generation word plus an array of entries.  `heap_base`
  // anchors meta_off so replay works at any mapping address.
  // `enabled=false` turns logging off (ablation: unsafe mode).  `metrics`
  // (optional) receives save/commit counts and commit latency.
  template <std::size_t Cap>
  UndoLogger(std::uint64_t& gen, UndoEntry (&entries)[Cap],
             std::byte* heap_base, bool enabled,
             obs::Metrics* metrics = nullptr) noexcept
      : gen_(&gen), entries_(entries), cap_(Cap), heap_base_(heap_base),
        enabled_(enabled), metrics_(metrics) {}

  UndoLogger(const UndoLogger&) = delete;
  UndoLogger& operator=(const UndoLogger&) = delete;

  // Save the current contents of [addr, addr+len); len <= kUndoDataMax.
  // A range that an earlier entry of this operation already covers is
  // skipped.  The entry is written back (clwb) but NOT fenced: callers
  // group the saves of one step and call seal() once before the first
  // in-place mutation, which is when the entries must be durable.
  void save(const void* addr, std::size_t len);

  // Fence any pending saves.  Must be called after the last save() of a
  // step and before the first nv_store to a saved range.
  void seal() noexcept;

  // Convenience: save an object.
  template <typename T>
  void save_obj(const T& obj) {
    static_assert(sizeof(T) <= kUndoDataMax);
    save(&obj, sizeof(T));
  }

  // Commit: truncate the log (generation bump, persisted).
  void commit() noexcept;

  // Abort: restore every saved range (newest-first) and truncate.
  // Used for clean internal aborts (e.g. out of memory mid-split).
  void rollback() noexcept;

  std::size_t used() const noexcept { return used_; }

  // Recovery entry point: restore any valid entries left in the log and
  // truncate it.  Safe to call repeatedly / on an empty log.
  template <std::size_t Cap>
  static void replay(std::uint64_t& gen, UndoEntry (&entries)[Cap],
                     std::byte* heap_base) noexcept {
    replay_n(gen, entries, Cap, heap_base);
  }

  static std::uint32_t checksum(const UndoEntry& e) noexcept;

 private:
  static void replay_n(std::uint64_t& gen, UndoEntry* entries,
                       std::size_t cap, std::byte* heap_base) noexcept;

  std::uint64_t* gen_;
  UndoEntry* entries_;
  std::size_t cap_;
  std::byte* heap_base_;
  bool enabled_;
  obs::Metrics* metrics_ = nullptr;
  bool pending_ = false;  // saves flushed but not yet fenced
  std::size_t used_ = 0;
};

}  // namespace poseidon::core
