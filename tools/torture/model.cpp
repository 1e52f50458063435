// The persisted slot-table model: payload streams, the publish protocol,
// and the one audit every kill round, image and svc run is judged by.

#include <algorithm>

#include "torture.hpp"

namespace poseidon::torture {

namespace {

constexpr std::uint64_t kMagic = 0x746f727475726531ull;  // "torture1"

std::uint64_t slot_csum(const SlotRec& s) {
  return hash_bytes(reinterpret_cast<const char*>(&s), offsetof(SlotRec, csum));
}

bool slot_valid(const SlotRec& s) {
  return s.tag != 0 && !s.ptr.is_null() && s.csum == slot_csum(s);
}

}  // namespace

void init_table(void* mem, std::uint64_t nslots, std::uint64_t seed) {
  std::memset(mem, 0, table_bytes(nslots));
  *static_cast<SlotTable*>(mem) = SlotTable{kMagic, nslots, seed, 0};
  pmem::persist(mem, table_bytes(nslots));
}

std::unique_ptr<Heap> create_heap(const std::string& path,
                                  std::uint64_t capacity,
                                  const core::Options& o, std::uint64_t nslots,
                                  std::uint64_t seed) {
  std::unique_ptr<Heap> heap;
  try {
    heap = Heap::create(path, capacity, o);
  } catch (const std::exception& e) {
    fail("create %s: %s", path.c_str(), e.what());
    return nullptr;
  }
  const NvPtr p = heap->alloc(table_bytes(nslots));
  if (p.is_null()) {
    fail("slot table allocation failed");
    return nullptr;
  }
  init_table(heap->raw(p), nslots, seed);
  heap->set_root(p);
  return heap;
}

SlotTable* as_table(void* raw, std::uint64_t nslots) {
  auto* t = static_cast<SlotTable*>(raw);
  return t != nullptr && t->magic == kMagic && t->nslots == nslots ? t : nullptr;
}

// ---- deterministic payload streams -----------------------------------------

std::uint64_t size_for_tag(std::uint64_t tag) {
  std::uint64_t x = tag ^ 0x706f736569646f6eull;  // "poseidon"
  return 32 + splitmix(x) % 2017;                 // 32 .. 2048 bytes
}

void fill_payload(void* dst, std::uint64_t size, std::uint64_t tag) {
  std::uint64_t x = tag;
  for (std::uint64_t i = 0; i < size; i += 8) {
    const std::uint64_t w = splitmix(x);
    std::memcpy(static_cast<char*>(dst) + i, &w, std::min<std::uint64_t>(8, size - i));
  }
}

bool payload_matches(const void* src, std::uint64_t size, std::uint64_t tag) {
  std::uint64_t x = tag;
  for (std::uint64_t i = 0; i < size; i += 8) {
    const std::uint64_t w = splitmix(x);
    if (std::memcmp(static_cast<const char*>(src) + i, &w,
                    std::min<std::uint64_t>(8, size - i)) != 0) {
      return false;
    }
  }
  return true;
}

void publish(void* raw, NvPtr p, SlotRec& s, std::uint64_t tag,
             std::uint64_t size) {
  fill_payload(raw, size, tag);
  pmem::persist(raw, size);
  s.ptr = p;
  s.tag = tag;
  s.csum = slot_csum(s);
  pmem::persist(&s, sizeof s);
}

NvPtr tx_publish(Heap& heap, SlotRec& s, std::uint64_t tag,
                 std::uint64_t size) {
  // A kill anywhere before the commit leaves the block in the micro log
  // for recovery to reclaim; the audit then drops the slot as aborted.
  const NvPtr p = heap.tx_alloc(size, false);
  if (!p.is_null()) publish(heap.raw(p), p, s, tag, size);
  heap.tx_commit();  // also closes the tx when the alloc came back null
  return p;
}

NvPtr unpublish(SlotRec& s) {
  const NvPtr p = s.ptr;
  s = SlotRec{};
  pmem::persist(&s, sizeof s);
  return p;
}

// ---- audit -----------------------------------------------------------------

bool image_opens(const Cfg& cfg, const std::string& path,
                 std::uint64_t nslots, const std::string& what) {
  try {
    auto h = Heap::open(path, base_opts(cfg, true));
    std::string why;
    if (nslots != 0 && as_table(h->raw(h->root()), nslots) == nullptr) {
      return fail("%s: image slot table lost", what.c_str());
    }
    return h->check_invariants(&why) ||
           fail("%s: image invariants (read-only): %s", what.c_str(),
                why.c_str());
  } catch (const std::exception& e) {
    return fail("%s: image read-only open: %s", what.c_str(), e.what());
  }
}

bool live_blocks(const Heap& heap, LiveSet* live, std::string* why) {
  for (unsigned s = 0; s < heap.shard_count(); ++s) {
    const core::PoolShard* sh = heap.shard(s);
    if (sh == nullptr) {
      *why = "shard " + std::to_string(s) + " quarantined at reopen";
      return false;
    }
    const std::uint64_t id = sh->heap_id();
    sh->visit_blocks([&](unsigned local, std::uint64_t off, std::uint32_t,
                         std::uint32_t status) {
      if (status != core::kBlockAllocated) return;
      live->insert(key_of(NvPtr::make(id, static_cast<std::uint16_t>(local), off)));
    });
  }
  return true;
}

std::uint64_t flight_count(const Heap& heap,
                           std::initializer_list<obs::FlightOp> ops) {
  std::uint64_t n = 0;
  for (const auto& e : heap.flight_events()) {
    for (const obs::FlightOp op : ops) n += e.op == static_cast<std::uint16_t>(op);
  }
  return n;
}

std::string fsck_dirty(const core::FsckReport& rep) {
  if (rep.repaired == 0 && rep.quarantined == 0 && rep.records_dropped == 0 &&
      rep.records_synthesized == 0) {
    return {};
  }
  return "(repaired=" + std::to_string(rep.repaired) + " quarantined=" +
         std::to_string(rep.quarantined) + " dropped=" +
         std::to_string(rep.records_dropped) + " synthesized=" +
         std::to_string(rep.records_synthesized) + ")";
}

bool audit_slots(Heap& heap, std::uint64_t nslots, Audit* a) {
  const char* where = a->where.c_str();
  LiveSet live;
  std::string why;
  if (!live_blocks(heap, &live, &why)) return fail("%s: %s", where, why.c_str());
  const NvPtr root = heap.root();
  SlotTable* table = as_table(heap.raw(root), nslots);
  if (table == nullptr) {
    return fail("%s: slot table lost (root %s)", where,
                root.is_null() ? "null" : "set");
  }
  if (live.erase(key_of(root)) != 1) {
    return fail("%s: slot table's own block missing from the live set", where);
  }

  // Slot sweep.  The audit runs before any new traffic, so after a kill a
  // valid slot with no live block can only be a publish whose tx never
  // committed, and a torn slot's block (if any) shows up as a leak.
  SlotRec* slots = slots_of(table);
  for (std::uint64_t i = 0; i < nslots; ++i) {
    SlotRec& s = slots[i];
    if (s.tag == 0 && s.ptr.is_null() && s.csum == 0) continue;  // empty
    const bool valid = slot_valid(s);
    const auto it = valid ? live.find(key_of(s.ptr)) : live.end();
    if (it == live.end()) {
      if (a->excuse_torn) {
        ++(valid ? a->aborted : a->torn);
        (void)unpublish(s);
        continue;
      }
      ++a->diffs;
      std::fprintf(stderr,
                   "DIFF %s slot %" PRIu64 ": %s {%016" PRIx64 ",%016" PRIx64
                   "}\n",
                   where, i, valid ? "published block not live" : "torn record",
                   s.ptr.heap_id, s.ptr.packed);
      continue;
    }
    const std::uint64_t size = size_for_tag(s.tag);
    const void* raw = heap.raw(s.ptr);
    if (raw == nullptr || !payload_matches(raw, size, s.tag)) {
      ++a->diffs;
      std::fprintf(stderr,
                   "DIFF %s slot %" PRIu64 ": committed block {%016" PRIx64
                   ",%016" PRIx64 "} tag %016" PRIx64 " size %" PRIu64
                   " lost its payload\n",
                   where, i, s.ptr.heap_id, s.ptr.packed, s.tag, size);
    } else {
      ++a->published;
    }
    live.erase(it);
  }

  // Everything still in the set is unreferenced: scratch blocks or
  // cleared-but-unfreed slots a kill orphaned.  Reclaim through the
  // validated free path, where a rejection would mean the metadata lies.
  for (const BlockKey& k : live) {
    std::string what = "leaked block";
    if (a->reclaim_leaks) {
      const core::FreeResult fr = heap.free(NvPtr{k.first, k.second});
      if (fr == core::FreeResult::kOk) {
        ++a->leaks;
        continue;
      }
      what = "leak rejected by validated free (" +
             std::to_string(static_cast<int>(fr)) + "):";
    }
    ++a->diffs;
    std::fprintf(stderr, "DIFF %s: %s {%016" PRIx64 ",%016" PRIx64 "}\n",
                 where, what.c_str(), k.first, k.second);
  }
  bool ok = a->diffs == 0 ||
            fail("%s: %" PRIu64 " model diff(s)", where, a->diffs);
  const std::string dirty = fsck_dirty(heap.fsck());
  if (a->strict_fsck && !dirty.empty()) {
    ok = fail("%s: fsck not clean %s", where, dirty.c_str());
  }
  if (!heap.check_invariants(&why)) {
    ok = fail("%s: invariants: %s", where, why.c_str());
  }
  return ok;
}

}  // namespace poseidon::torture
