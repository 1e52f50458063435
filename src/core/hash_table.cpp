#include "core/hash_table.hpp"

#include <algorithm>
#include <cassert>

#include "pmem/persist.hpp"

namespace poseidon::core {

unsigned HashTable::probe_order(unsigned (&order)[kMaxHashLevels]) const
    noexcept {
  // Stable insertion sort by descending level_count over at most
  // kMaxHashLevels entries: a level moves ahead only of strictly emptier
  // ones, so ties keep the lower level first.
  const unsigned n = std::min<unsigned>(meta_->levels_active, kMaxHashLevels);
  for (unsigned lvl = 0; lvl < n; ++lvl) {
    const std::uint64_t count = meta_->level_count[lvl];
    unsigned j = lvl;
    for (; j > 0 && meta_->level_count[order[j - 1]] < count; --j) {
      order[j] = order[j - 1];
    }
    order[j] = lvl;
  }
  return n;
}

MemblockRec* HashTable::find(std::uint64_t block_off) noexcept {
  const std::uint64_t key = block_off + 1;
  const std::uint64_t h = hash_of(block_off);
  unsigned order[kMaxHashLevels];
  const unsigned n = probe_order(order);
  for (unsigned i = 0; i < n; ++i) {
    const unsigned lvl = order[i];
    const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
    MemblockRec* level = level_base(lvl);
    for (unsigned w = 0; w < kProbeWindow; ++w) {
      MemblockRec* rec = level + window_slot(h, slots, w);
      if (rec->key == key) return rec;
    }
  }
  return nullptr;
}

MemblockRec* HashTable::insert(std::uint64_t block_off, UndoLogger& undo) {
  assert(find(block_off) == nullptr && "duplicate memblock record");
  const std::uint64_t h = hash_of(block_off);
  unsigned inspected = 0;
  for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
    const std::uint64_t slots = level_slots(meta_->level0_slots, lvl);
    // A full level has no empty slot in any window: skipping it leaves
    // placement unchanged and saves kProbeWindow reads.
    if (meta_->level_count[lvl] >= slots) continue;
    MemblockRec* level = level_base(lvl);
    for (unsigned w = 0; w < kProbeWindow; ++w, ++inspected) {
      MemblockRec* rec = level + window_slot(h, slots, w);
      if (rec->key != 0) continue;
      // Probe distance = occupied slots inspected before this claim (full
      // levels are never inspected).  Sampled: the histogram records a
      // shape, and inserts are per-block-split, so an unconditional bucket
      // RMW here shows up in the overhead budget.
      if (metrics_ != nullptr && obs::latency_sample_tick()) {
        metrics_->probe_len.add(inspected);
      }
      undo.save_obj(*rec);
      undo.save_obj(meta_->level_count[lvl]);
      undo.seal();
      pmem::nv_store(rec->key, block_off + 1);
      pmem::nv_store(meta_->level_count[lvl], meta_->level_count[lvl] + 1);
      // Write-back happens in one batch at undo commit.
      return rec;  // caller fills the remaining fields
    }
  }
  return nullptr;
}

void HashTable::erase(MemblockRec* rec, UndoLogger& undo) {
  assert(rec->key != 0);
  const unsigned lvl = level_of(rec);
  undo.save_obj(*rec);
  undo.save_obj(meta_->level_count[lvl]);
  undo.seal();
  pmem::nv_store(rec->key, std::uint64_t{0});
  pmem::nv_store(meta_->level_count[lvl], meta_->level_count[lvl] - 1);
}

bool HashTable::try_extend(UndoLogger& undo) {
  if (meta_->levels_active >= meta_->levels_max) return false;
  undo.save_obj(meta_->levels_active);
  undo.seal();
  pmem::nv_store(meta_->levels_active, meta_->levels_active + 1);
  return true;
}

std::optional<HashTable::Range> HashTable::shrink_top_if_empty(
    UndoLogger& undo) {
  const unsigned top = meta_->levels_active;
  if (top <= 1) return std::nullopt;
  if (meta_->level_count[top - 1] != 0) return std::nullopt;
  undo.save_obj(meta_->levels_active);
  undo.seal();
  pmem::nv_store(meta_->levels_active, top - 1);
  return Range{
      meta_->hash_off + level_offset(meta_->level0_slots, top - 1),
      level_slots(meta_->level0_slots, top - 1) * sizeof(MemblockRec)};
}

std::uint64_t HashTable::record_count() const noexcept {
  std::uint64_t n = 0;
  for (unsigned lvl = 0; lvl < meta_->levels_active; ++lvl) {
    n += meta_->level_count[lvl];
  }
  return n;
}

unsigned HashTable::level_of(const MemblockRec* rec) const noexcept {
  const auto idx = static_cast<std::uint64_t>(rec - storage_);
  std::uint64_t begin = 0;
  for (unsigned lvl = 0; lvl < meta_->levels_max; ++lvl) {
    const std::uint64_t end = begin + level_slots(meta_->level0_slots, lvl);
    if (idx < end) return lvl;
    begin = end;
  }
  assert(false && "record outside hash storage");
  return 0;
}

}  // namespace poseidon::core
