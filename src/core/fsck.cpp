// Fault-domain hardening (DESIGN.md "Failure model").
//
// Three escalating answers to corrupted metadata, all implemented here:
//
//   1. VERIFY   — the superblock's immutable config prefix is checksummed
//                 (with a shadow copy one page after it), and a clean close
//                 seals each ready sub-heap's metadata + active hash levels
//                 under quiesce checksums.  open() re-validates whatever
//                 was sealed before admitting traffic.
//   2. REPAIR   — scavenge_subheap() rebuilds a sub-heap's hash table,
//                 free lists and counters from the surviving memblock
//                 records: invalid records are dropped, overlaps resolved,
//                 unaccounted gaps covered by synthesized minimum-size
//                 allocated records (a bounded leak, never unsafe reuse).
//                 Committed allocations survive and stay freeable exactly
//                 once.
//   3. DEGRADE  — what cannot be rebuilt (or whose pages fault under the
//                 probe guard) is quarantined: no new allocations, frees
//                 rejected with FreeResult::kQuarantined, user data still
//                 readable, while healthy sub-heaps keep serving.
//
// Everything in this file is a cold path: open, close, and explicit fsck.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "core/pool_shard.hpp"
#include "core/micro_log.hpp"
#include "core/ownership.hpp"
#include "pmem/fault_inject.hpp"
#include "pmem/persist.hpp"

namespace poseidon::core {

namespace {

// Checksum over the bytes of the active hash levels (levels are contiguous
// from hash_off, so the active prefix is one range).
std::uint64_t active_hash_csum(const std::byte* heap_base,
                               const SubheapMeta& m) noexcept {
  return csum_bytes(heap_base + m.hash_off,
                    level_offset(m.level0_slots, m.levels_active));
}

bool seal_csums_match(const std::byte* heap_base,
                      const SubheapMeta& m) noexcept {
  return m.seal_csum_meta == subheap_meta_csum(m) &&
         m.seal_csum_hash == active_hash_csum(heap_base, m);
}

}  // namespace

bool PoolShard::validate_superblock(pmem::Pool& pool) {
  if (pool.size() < super_shadow_off() + sizeof(SuperShadow)) {
    throw Error(ErrorCode::kNotAPool,
                pool.path() + ": too small to be a Poseidon heap");
  }
  auto* sb = reinterpret_cast<SuperBlock*>(pool.data());
  pmem::fault::FaultGuard guard;
  if (!guard.readable(sb, sizeof(SuperBlock))) {
    throw Error(ErrorCode::kCorruptSuperblock,
                pool.path() + ": superblock pages unreadable");
  }
  bool repaired = false;
  if (sb->magic != kSuperMagic || sb->version != kVersion ||
      super_config_csum(*sb) != sb->config_csum) {
    // The config prefix fails verification: try the shadow copy before
    // classifying the failure.  A pre-v4 file has a valid magic but an old
    // version, and its shadow location holds other data (no shadow magic),
    // so it falls through to kWrongVersion rather than a bogus repair.
    const auto* shadow =
        reinterpret_cast<const SuperShadow*>(pool.data() + super_shadow_off());
    bool shadow_ok = guard.readable(shadow, sizeof(SuperShadow)) &&
                     shadow->magic == kShadowMagic &&
                     shadow->len == kSuperConfigBytes &&
                     shadow->csum == csum_bytes(shadow->bytes, shadow->len);
    if (shadow_ok) {
      SuperBlock embedded{};
      std::memcpy(&embedded, shadow->bytes, kSuperConfigBytes);
      shadow_ok = embedded.magic == kSuperMagic && embedded.version == kVersion;
    }
    if (shadow_ok && pool.read_only()) {
      // The mapping is PROT_READ, so the in-place restore is impossible.
      // Repairing belongs to a writable open anyway (with its corruption
      // accounting); the inspector reports rather than heals.
      throw Error(ErrorCode::kCorruptSuperblock,
                  pool.path() + ": superblock checksum mismatch (shadow copy "
                                "is intact; a read-write open will repair)");
    }
    if (shadow_ok) {
      pmem::nv_memcpy(sb, shadow->bytes, kSuperConfigBytes);
      pmem::persist(sb, kSuperConfigBytes);
      repaired = true;
    } else if (sb->magic != kSuperMagic) {
      throw Error(ErrorCode::kNotAPool, pool.path() + ": not a Poseidon heap");
    } else if (sb->version != kVersion) {
      throw Error(ErrorCode::kWrongVersion,
                  pool.path() + ": layout version " +
                      std::to_string(sb->version) + " (this build expects " +
                      std::to_string(kVersion) + ")");
    } else {
      throw Error(ErrorCode::kCorruptSuperblock,
                  pool.path() +
                      ": superblock checksum mismatch and shadow copy invalid");
    }
  }
  if (sb->file_size != pool.size()) {
    throw Error(ErrorCode::kTruncated,
                pool.path() + ": file is " + std::to_string(pool.size()) +
                    " bytes, superblock records " +
                    std::to_string(sb->file_size));
  }
  // Belt and braces for fields later code indexes with: a checksum
  // collision must still not drive out-of-bounds arithmetic.
  if (sb->nsubheaps == 0 || sb->nsubheaps > kMaxSubheaps ||
      sb->levels_max == 0 || sb->levels_max > kMaxHashLevels ||
      sb->level0_slots < kProbeWindow ||
      (sb->level0_slots & (sb->level0_slots - 1)) != 0 || sb->user_size == 0 ||
      (sb->user_size & (sb->user_size - 1)) != 0) {
    throw Error(ErrorCode::kCorruptSuperblock,
                pool.path() + ": superblock geometry out of bounds");
  }
  // Shard header sanity (v5): the routing front-end indexes by these.
  if (sb->shard_set_id == 0 || sb->shard_count == 0 ||
      sb->shard_count > kMaxShards || sb->shard_index >= sb->shard_count) {
    throw Error(ErrorCode::kCorruptSuperblock,
                pool.path() + ": shard header out of bounds");
  }
  return repaired;
}

bool PoolShard::probe_subheap_readable(unsigned idx) const noexcept {
  pmem::fault::FaultGuard guard;
  if (!guard.readable(meta_of(idx), sizeof(SubheapMeta))) return false;
  return guard.readable(
      base() + sb_->hash_region_off + idx * sb_->hash_region_stride,
      sb_->hash_region_stride);
}

bool PoolShard::subheap_sane(unsigned idx) const noexcept {
  const SubheapMeta* m = meta_of(idx);
  return m->magic == kSubheapMagic && m->index == idx &&
         m->user_off == sb_->user_region_off + idx * sb_->user_size &&
         m->user_size == sb_->user_size &&
         m->hash_off == sb_->hash_region_off + idx * sb_->hash_region_stride &&
         m->levels_active >= 1 && m->levels_active <= m->levels_max &&
         m->levels_max == sb_->levels_max &&
         m->level0_slots == sb_->level0_slots;
}

void PoolShard::quarantine_subheap(unsigned idx) {
  if (sb_->subheap_state[idx] == kSubheapQuarantined) return;
  pmem::nv_store_release_persist(sb_->subheap_state[idx],
                                 std::uint64_t{kSubheapQuarantined});
  metrics_->subheaps_quarantined.inc();
  flight(obs::FlightOp::kQuarantine, idx, 0, 0);
}

bool PoolShard::scavenge_subheap(unsigned idx, FsckReport* rep) {
  SubheapMeta* m = meta_of(idx);
  // Persisted first: a crash mid-rebuild leaves kSubheapRepairing and the
  // next open simply re-runs the (idempotent) scavenge instead of trusting
  // half-rebuilt metadata.
  pmem::nv_store_release_persist(sb_->subheap_state[idx],
                                 std::uint64_t{kSubheapRepairing});
  // The immutable fields are rewritten from the (checksum-verified)
  // superblock geometry — they may themselves be the corrupted part.
  pmem::nv_store(m->magic, kSubheapMagic);
  pmem::nv_store(m->index, idx);
  pmem::nv_store(m->user_off, sb_->user_region_off + idx * sb_->user_size);
  pmem::nv_store(m->user_size, sb_->user_size);
  pmem::nv_store(m->hash_off,
                 sb_->hash_region_off + idx * sb_->hash_region_stride);
  pmem::nv_store(m->levels_max, static_cast<std::uint32_t>(sb_->levels_max));
  pmem::nv_store(m->level0_slots, sb_->level0_slots);
  // The undo log predates the rebuild: replaying it over scavenged state
  // would re-corrupt, so truncate (one generation bump).  The micro log is
  // kept — recovery replays it through the validated free path, which the
  // rebuilt table supports — unless its count itself is garbage.
  pmem::nv_store_persist(m->undo_gen, m->undo_gen + 1);
  if (m->micro.count > kMicroCap) micro_truncate(m->micro);

  // Harvest candidate records from every level that could ever have been
  // active (levels_active is untrusted).  A record survives only if it is
  // fully self-consistent AND sits within the probe window its key hashes
  // to at that level — a scribbled slot rarely passes all of that.
  struct Cand {
    std::uint64_t off;
    std::uint32_t cls;
    std::uint32_t status;
    // Surviving service owner tag (allocated records only; next_free is
    // dead state for them).  Preserving it through the rebuild lets a
    // later orphan sweep reclaim blocks whose client AND server died —
    // without it, every scavenge would silently launder orphans into
    // permanent leaks.  The tag's top bit is always set (svc make_tag), so
    // stray zero/garbage link words rarely masquerade as tags.
    std::uint64_t tag;
  };
  std::vector<Cand> cands;
  const auto* storage =
      reinterpret_cast<const MemblockRec*>(base() + m->hash_off);
  const unsigned top = log2_floor(sb_->user_size);
  std::uint64_t dropped = 0;
  std::uint64_t lvl_base = 0;
  for (unsigned lvl = 0; lvl < sb_->levels_max; ++lvl) {
    const std::uint64_t slots = level_slots(sb_->level0_slots, lvl);
    for (std::uint64_t i = 0; i < slots; ++i) {
      const MemblockRec& rec = storage[lvl_base + i];
      if (rec.key == 0) continue;
      const std::uint64_t off = rec.key - 1;
      const bool ok =
          off < sb_->user_size && rec.size_class >= kMinBlockShift &&
          rec.size_class <= top &&
          (off & ((std::uint64_t{1} << rec.size_class) - 1)) == 0 &&
          (rec.status == kBlockFree || rec.status == kBlockAllocated) &&
          HashTable::in_window(HashTable::hash_of(off), slots, i);
      if (!ok) {
        ++dropped;
        continue;
      }
      const std::uint64_t tag =
          rec.status == kBlockAllocated && (rec.next_free >> 63) != 0
              ? rec.next_free
              : 0;
      cands.push_back(Cand{off, rec.size_class, rec.status, tag});
    }
    lvl_base += slots;
  }
  // Order by offset; at equal offsets prefer the allocated claim (never
  // hand out memory a surviving record says is live).
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.off != b.off) return a.off < b.off;
    return a.status > b.status;  // kBlockAllocated (2) before kBlockFree (1)
  });
  // Greedy re-tiling: walk the candidates in offset order, drop whatever
  // overlaps the region already covered, and plug every gap with 32 B
  // allocated records.  Synthesized blocks are a bounded leak — but an
  // application retrying the free of a committed 32 B block whose record
  // was destroyed still hits a record boundary and frees exactly once.
  std::vector<Cand> final_blocks;
  std::uint64_t synthesized = 0;
  std::uint64_t covered = 0;
  auto fill_gap = [&](std::uint64_t until) {
    for (; covered < until; covered += std::uint64_t{1} << kMinBlockShift) {
      final_blocks.push_back(
          Cand{covered, kMinBlockShift, kBlockAllocated, 0});
      ++synthesized;
    }
  };
  for (const Cand& c : cands) {
    if (c.off < covered) {
      ++dropped;  // overlaps an accepted block
      continue;
    }
    fill_gap(c.off);
    final_blocks.push_back(c);
    covered += std::uint64_t{1} << c.cls;
  }
  fill_gap(sb_->user_size);

  // Rebuild from scratch: zero the whole hash region and the mutable meta,
  // then insert the final block list (free lists rebuilt tail-append so
  // delayed reuse survives the repair).
  pmem::nv_memset(base() + m->hash_off, 0,
                  level_offset(sb_->level0_slots, sb_->levels_max));
  pmem::nv_memset(m->free_heads, 0, sizeof(m->free_heads));
  pmem::nv_memset(m->level_count, 0, sizeof(m->level_count));
  pmem::nv_store(m->levels_active, 1u);
  pmem::nv_store(m->stat_splits, std::uint64_t{0});
  pmem::nv_store(m->stat_merges, std::uint64_t{0});
  pmem::nv_store(m->stat_window_merges, std::uint64_t{0});
  pmem::nv_store(m->stat_extensions, std::uint64_t{0});
  pmem::nv_store(m->stat_shrinks, std::uint64_t{0});
  pmem::nv_store(m->seal_csum_meta, std::uint64_t{0});
  pmem::nv_store(m->seal_csum_hash, std::uint64_t{0});

  HashTable table(m, base());
  UndoLogger no_undo(m->undo_gen, m->undo, base(), /*enabled=*/false);
  MemblockRec* tails[kMaxClasses] = {};
  std::uint64_t live = 0, free_blocks = 0, bytes = 0;
  for (const Cand& c : final_blocks) {
    MemblockRec* rec = table.insert(c.off, no_undo);
    while (rec == nullptr) {
      // compute_geometry sizes the table for one record per 32 B block
      // with headroom, so extension always succeeds before capacity does
      // — but a failure here must degrade, not corrupt.
      if (!table.try_extend(no_undo)) return false;
      rec = table.insert(c.off, no_undo);
    }
    pmem::nv_store(rec->size_class, c.cls);
    pmem::nv_store(rec->status, c.status);
    pmem::nv_store(rec->prev_free, std::uint64_t{0});
    pmem::nv_store(rec->next_free, c.tag);
    if (c.status == kBlockFree) {
      const std::uint64_t link = table.link_of(rec);
      if (tails[c.cls] == nullptr) {
        pmem::nv_store(m->free_heads[c.cls].head, link);
      } else {
        pmem::nv_store(tails[c.cls]->next_free, link);
        pmem::nv_store(rec->prev_free, table.link_of(tails[c.cls]));
      }
      pmem::nv_store(m->free_heads[c.cls].tail, link);
      tails[c.cls] = rec;
      ++free_blocks;
    } else {
      ++live;
      bytes += std::uint64_t{1} << c.cls;
    }
  }
  pmem::nv_store(m->live_blocks, live);
  pmem::nv_store(m->free_blocks, free_blocks);
  pmem::nv_store(m->allocated_bytes, bytes);
  {
    // Meta and the rebuilt hash levels need no ordering between them (the
    // kSubheapRepairing state word gates the whole rebuild); one fence.
    pmem::FlushBatch batch;
    batch.add(m, sizeof(SubheapMeta));
    batch.add(base() + m->hash_off,
              level_offset(sb_->level0_slots, m->levels_active));
    batch.commit();
  }

  // Only a rebuild that passes the full invariant check goes back into
  // service; anything less becomes a quarantine at the caller.
  std::string why;
  if (!subheap(idx).check_invariants(&why)) return false;
  pmem::nv_store_release_persist(sb_->subheap_state[idx],
                                 std::uint64_t{kSubheapReady});
  metrics_->scavenge_repairs.inc();
  flight(obs::FlightOp::kScavenge, idx, 0, dropped);
  if (rep != nullptr) {
    rep->records_dropped += dropped;
    rep->records_synthesized += synthesized;
  }
  return true;
}

void PoolShard::validate_on_open(bool sb_repaired) {
  // Pre-MPK, single-threaded (the constructor has not published the heap),
  // and before recover(): log replay must never chew on metadata that
  // verification would have rejected.
  if (sb_repaired) {
    metrics_->corruption_detected.inc();
    flight(obs::FlightOp::kCorruption, 0, 0, 0);
  }
  const bool sealed = sb_->seal_state == kSealSealed;
  if (sealed && super_mutable_csum(*sb_) != sb_->mutable_csum) {
    // root / state words are suspect; the per-sub-heap checks below decide
    // each one's fate individually.
    metrics_->corruption_detected.inc();
    flight(obs::FlightOp::kCorruption, 0, 0, 1);
  }
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    if (!probe_subheap_readable(i)) {
      metrics_->corruption_detected.inc();
      flight(obs::FlightOp::kCorruption, i, 0, 2);
      quarantine_subheap(i);
      continue;
    }
    SubheapMeta* m = meta_of(i);
    const std::uint64_t st = sb_->subheap_state[i];
    switch (st) {
      case kSubheapAbsent:
        // Resurrection rule: ONLY at a sealed open may a valid, fully
        // checksummed sub-heap behind an absent state word be brought
        // back — then the state word itself was what rotted.  At an
        // unsealed open an absent state with leftover metadata is the
        // normal signature of a crash mid-format; reformat handles it.
        if (sealed && subheap_sane(i) && seal_csums_match(base(), *m)) {
          metrics_->corruption_detected.inc();
          flight(obs::FlightOp::kCorruption, i, 0, 3);
          pmem::nv_store_release_persist(sb_->subheap_state[i],
                                         std::uint64_t{kSubheapReady});
          metrics_->scavenge_repairs.inc();
        }
        break;
      case kSubheapQuarantined:
        break;  // stays down; an explicit fsck() may retry it
      case kSubheapRepairing:
        // A scavenge was interrupted: re-run it.
        if (!scavenge_subheap(i, nullptr)) quarantine_subheap(i);
        break;
      case kSubheapReady: {
        bool ok = subheap_sane(i);
        if (ok && sealed) ok = seal_csums_match(base(), *m);
        if (!ok) {
          metrics_->corruption_detected.inc();
          flight(obs::FlightOp::kCorruption, i, 0, 4);
          if (!scavenge_subheap(i, nullptr)) quarantine_subheap(i);
        }
        break;
      }
      default:
        // Garbage state word.
        metrics_->corruption_detected.inc();
        flight(obs::FlightOp::kCorruption, i, 0, 5);
        if (sealed && subheap_sane(i) && seal_csums_match(base(), *m)) {
          pmem::nv_store_release_persist(sb_->subheap_state[i],
                                         std::uint64_t{kSubheapReady});
          metrics_->scavenge_repairs.inc();
        } else if (m->magic == kSubheapMagic) {
          if (!scavenge_subheap(i, nullptr)) quarantine_subheap(i);
        } else {
          // No recognizable metadata at all behind a garbage state word:
          // formatting over it could destroy data, so park it.
          quarantine_subheap(i);
        }
        break;
    }
  }
  // Drop the seal before traffic: from here on the checksums go stale by
  // design, and only the next clean close re-establishes them.
  if (sealed) {
    pmem::nv_store_persist(sb_->seal_state, std::uint64_t{kSealDirty});
  }
}

void PoolShard::seal_all() noexcept {
  // Clean-close quiesce: checksum every ready sub-heap's metadata + active
  // hash levels, then the superblock's mutable range, then flip the seal
  // word last (the commit point — a crash anywhere before it simply leaves
  // the heap unsealed, which the next open treats as plain crash recovery).
  // This also runs after a simulated crash (the destructor still executes):
  // that is harmless, because the checksums are computed over whatever
  // state exists NOW, so the next open's validation passes and normal
  // undo-replay recovery proceeds exactly as it would unsealed.
  mpk::WriteWindow w(prot_.get());
  pmem::fault::FaultGuard guard;
  // The per-sub-heap checksum pairs are independent of each other — only
  // the seal flip below needs them all durable first — so batch the
  // write-backs and fence once instead of per sub-heap.  (The early return
  // on a poisoned sub-heap is safe: the batch destructor commits.)
  pmem::FlushBatch batch;
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    if (pmem::nv_load_acquire(sb_->subheap_state[i]) != kSubheapReady) {
      continue;
    }
    SubheapMeta* m = meta_of(i);
    if (!probe_subheap_readable(i)) return;  // poisoned: leave seal dirty
    pmem::nv_store(m->seal_csum_meta, subheap_meta_csum(*m));
    pmem::nv_store(m->seal_csum_hash, active_hash_csum(base(), *m));
    batch.add(&m->seal_csum_meta, 2 * sizeof(std::uint64_t));
  }
  batch.commit();
  pmem::nv_store_persist(sb_->mutable_csum, super_mutable_csum(*sb_));
  pmem::nv_store_release_persist(sb_->seal_state, std::uint64_t{kSealSealed});
  // Owner record cleared LAST, strictly after the seal flip: a crash
  // between the two leaves a sealed heap with a stamped owner, and the
  // next open counts a (harmless, truthful) takeover — whereas clearing
  // first could mark a heap ownerless while its logs still need replay.
  clear_owner(sb_);
}

void PoolShard::refresh_owner_heartbeat() {
  if (pool_.read_only()) return;
  std::lock_guard<std::mutex> lk(admin_mu_);
  mpk::WriteWindow w(prot_.get());
  refresh_heartbeat(sb_);
}

FsckReport PoolShard::fsck() {
  if (pool_.read_only()) {
    throw Error(ErrorCode::kInvalidArgument,
                pool_.path() + ": heap is open read-only (fsck repairs)");
  }
  // The heap-wide fsck_runs metric is counted once by the front-end.
  FsckReport rep;
  std::lock_guard<std::mutex> lk(admin_mu_);
  mpk::WriteWindow w(prot_.get());
  // A long-lived owner leaves a liveness trail for inspectors.
  refresh_heartbeat(sb_);
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    const std::uint64_t st = pmem::nv_load_acquire(sb_->subheap_state[i]);
    if (st == kSubheapAbsent) continue;
    ++rep.checked;
    if (!probe_subheap_readable(i)) {
      // Still faulting (e.g. the poisoned mapping is the current one):
      // nothing to rebuild from yet.  A later open of a clean mapping can.
      quarantine_subheap(i);
      ++rep.quarantined;
      continue;
    }
    Guard<Spinlock> g(subs_[i]->lock);
    if (st == kSubheapReady) {
      std::string why;
      if (subheap_sane(i) && subheap(i).check_invariants(&why)) {
        ++rep.clean;
        continue;
      }
      metrics_->corruption_detected.inc();
      flight(obs::FlightOp::kCorruption, i, 0, 6);
    }
    // Ready-but-broken, quarantined, or repairing: try the rebuild.
    if (scavenge_subheap(i, &rep)) {
      ++rep.repaired;
    } else {
      quarantine_subheap(i);
      ++rep.quarantined;
    }
  }
  return rep;
}

SubheapHealth PoolShard::subheap_health(unsigned idx) const noexcept {
  if (idx >= sb_->nsubheaps) return SubheapHealth::kAbsent;
  switch (pmem::nv_load_acquire(sb_->subheap_state[idx])) {
    case kSubheapReady: return SubheapHealth::kReady;
    case kSubheapRepairing: return SubheapHealth::kRepairing;
    case kSubheapQuarantined: return SubheapHealth::kQuarantined;
    default: return SubheapHealth::kAbsent;
  }
}

}  // namespace poseidon::core
