// On-media layout of a Poseidon heap (paper Fig. 4).
//
//   file:  [ SuperBlock | SubheapMeta x N | hash storage x N | cache logs |
//            flight rings x N | user x N ]
//          `----------- metadata region -----------------'
//
// The MPK-protected metadata region is contiguous at the front of the file
// so one protection domain covers all of it.  The per-thread cache logs sit
// between it and the user regions: they are persistent metadata but stay
// writable at all times so the thread-cache fast path never pays a wrpkru
// switch (a scribbled log entry cannot corrupt the allocator — recovery
// validates every entry through the free path).  The per-sub-heap flight
// recorder rings (layout v3, obs/flight_recorder.hpp) follow the cache
// logs for the same reason: recording an event must never open a write
// window, and a scribbled ring only corrupts diagnostics, never allocator
// state.  User regions follow, page aligned; the file tail is padded up to
// a 2 MiB boundary.
// Every struct here is trivially copyable, fixed width, and stores offsets
// rather than pointers (the pool may map at a different address each run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/bitops.hpp"
#include "common/hash.hpp"
#include "core/nvmptr.hpp"
#include "obs/flight_recorder.hpp"

namespace poseidon::core {

inline constexpr std::uint64_t kSuperMagic = 0x504f534549444f4eull;  // "POSEIDON"
inline constexpr std::uint64_t kSubheapMagic = 0x5355424845415030ull;
inline constexpr std::uint64_t kShadowMagic = 0x504f534549534841ull;  // "POSEISHA"
// v3: flight-recorder ring region carved between cache logs and user data.
// v4: fault-domain hardening — superblock config checksum + shadow page,
//     seal-state checksums over sub-heap metadata, quarantine states.
// v5: NUMA-node pool shards — every file carries a shard header (set id,
//     epoch, index, count) so a shard set refuses to assemble from
//     mismatched or partially-created members.  A single-shard heap is a
//     set of one; the per-file layout is otherwise unchanged from v4.
// v6: process ownership — a checksummed owner record (pid, boot id,
//     start time, heartbeat) between mutable_csum and the super undo log.
//     The OFD lock is the authority on liveness; the record exists so an
//     opener that finds the lock free can tell "clean close" (record
//     cleared) from "previous owner died" (record present, pid dead or
//     boot id changed) and count the takeover.
// v7: 32-byte memblock records (no adjacency links; buddy merges find
//     their partner as off ^ size) whose free-list links name hash slots;
//     undo entries start on a cache line, and the sub-heap's op counters
//     share one line with its seal checksums and undo generation.
inline constexpr std::uint32_t kVersion = 7;

inline constexpr std::uint64_t kPageSize = 4096;
// File sizes are rounded up to this so DAX/THP-backed mappings can use
// PMD-size pages; the resulting tail padding holds no data.
inline constexpr std::uint64_t kHugePageSize = 2 * 1024 * 1024;

// Buddy size classes: class c holds blocks of 2^c bytes.
inline constexpr unsigned kMinBlockShift = 5;  // 32 B minimum granularity
inline constexpr unsigned kMaxClasses = 48;

inline constexpr unsigned kMaxSubheaps = 64;
inline constexpr unsigned kMaxHashLevels = 24;
inline constexpr unsigned kProbeWindow = 16;

// Pool shards: one backing file per NUMA node (paper §4.1 manycore story).
// The cap bounds the shard header fields and the routing tables; 16 covers
// every multi-socket box the reproduction targets.
inline constexpr unsigned kMaxShards = 16;

// ---- undo log (physical, checksummed entries) ------------------------------
//
// An entry is valid iff entry.gen == log.gen and its checksum matches;
// truncation is therefore a single persisted 8-byte generation bump.
// Recovery applies valid entries newest-to-oldest so the oldest logged
// value (the pre-operation state) wins.

inline constexpr std::size_t kUndoDataMax = 96;

// Line aligned, so a save of up to 40 bytes (a whole memblock record with
// the 24-byte header) writes back one cache line.
struct alignas(64) UndoEntry {
  std::uint64_t gen;
  std::uint64_t meta_off;  // byte offset of the saved range from heap base
  std::uint32_t len;
  std::uint32_t csum;
  unsigned char data[kUndoDataMax];
  unsigned char pad[8];
};
static_assert(sizeof(UndoEntry) == 128);

inline constexpr std::size_t kSubheapUndoCap = 1024;
inline constexpr std::size_t kSuperUndoCap = 16;

// ---- micro log (transactional allocation, paper §4.5) ----------------------

inline constexpr std::size_t kMicroCap = 64;

struct MicroLog {
  std::uint64_t count;
  NvPtr entries[kMicroCap];
};
static_assert(sizeof(MicroLog) == 8 + 16 * kMicroCap);

// ---- per-thread cache log --------------------------------------------------
//
// Blocks parked in a thread cache's volatile magazines stay kBlockAllocated
// in the owning sub-heap's metadata; each is additionally recorded in one of
// these fixed per-thread slots (same shape and replay discipline as the
// micro log) so Heap::recover() can drain a cache lost at a crash back to
// the free lists instead of leaking it.  An entry with heap_id 0 is empty.

inline constexpr unsigned kCacheSlots = 64;       // one per thread ordinal slot
inline constexpr std::size_t kCacheLogCap = 512;  // entries per slot

struct CacheLogSlot {
  std::uint64_t reserved0;
  std::uint64_t reserved1;
  NvPtr entries[kCacheLogCap];
};
static_assert(sizeof(CacheLogSlot) == 16 + 16 * kCacheLogCap);

// ---- memblock records (paper §4.4) -----------------------------------------
//
// One record per memory block (allocated or free), stored in the sub-heap's
// multi-level hash table keyed by block offset (a byte offset within the
// sub-heap user region, encoded +1 so 0 means an empty slot).  Free-list
// links name the linked record's hash slot instead (slot index + 1, 0 =
// none): a keyed record never moves and a level is deactivated only when it
// is empty, so following a link needs no probe.  Records are 32 bytes, two
// per cache line, and never straddle one.

enum BlockStatus : std::uint32_t {
  kBlockFree = 1,
  kBlockAllocated = 2,
};

struct MemblockRec {
  std::uint64_t key;        // block offset + 1; 0 = empty slot
  std::uint32_t size_class; // block size = 1 << size_class
  std::uint32_t status;     // BlockStatus
  std::uint64_t prev_free;  // free-list links, slot + 1
  std::uint64_t next_free;  // (allocated records: svc owner tag or 0)
};
static_assert(sizeof(MemblockRec) == 32);

struct FreeListHead {
  std::uint64_t head;  // slot + 1; 0 = empty
  std::uint64_t tail;
};

// ---- sub-heap metadata ------------------------------------------------------

enum SubheapState : std::uint64_t {
  kSubheapAbsent = 0,
  kSubheapReady = 1,
  // Fault-domain states (v4).  Quarantined: validation or scavenge gave up
  // on this sub-heap — no new allocations, frees rejected with a typed
  // result, user data stays readable.  Repairing: a scavenge rebuild is in
  // flight; if it is interrupted the next open re-runs it (the rebuild is
  // idempotent) instead of trusting half-rebuilt metadata.
  kSubheapQuarantined = 2,
  kSubheapRepairing = 3,
};

struct SubheapMeta {
  std::uint64_t magic;
  std::uint32_t index;
  std::uint32_t preferred_cpu;
  std::uint64_t user_off;    // from heap base
  std::uint64_t user_size;   // power of two
  std::uint64_t hash_off;    // from heap base: start of this sub-heap's levels
  std::uint32_t levels_active;
  std::uint32_t levels_max;
  std::uint64_t level0_slots;
  FreeListHead free_heads[kMaxClasses];
  std::uint64_t level_count[kMaxHashLevels];  // live records per level
  // Introspection counters (not crash-consistent; see bump_counters):
  std::uint64_t stat_splits;         // buddy splits performed
  std::uint64_t stat_merges;         // buddy merges (defragmentation)
  std::uint64_t stat_window_merges;  // merges triggered by hash pressure
  std::uint64_t stat_extensions;     // hash levels activated
  std::uint64_t stat_shrinks;        // hash levels punched back
  // One cache line (v7): the three op counters, the seal checksums and the
  // undo generation.  Every undo commit persists the generation, which
  // writes the counters back with it.
  alignas(64) std::uint64_t live_blocks;
  std::uint64_t free_blocks;
  std::uint64_t allocated_bytes;
  // Quiesce-point checksums (v4): written at clean close over everything
  // above (seal_csum_meta's own offset bounds the range) and over the
  // active hash levels; meaningful only while the superblock's seal_state
  // is kSealSealed.  The logs below are excluded — they self-validate
  // (generation + per-entry checksums).
  std::uint64_t seal_csum_meta;
  std::uint64_t seal_csum_hash;
  std::uint64_t undo_gen;
  UndoEntry undo[kSubheapUndoCap];
  MicroLog micro;
};
static_assert(offsetof(SubheapMeta, live_blocks) / 64 ==
              offsetof(SubheapMeta, undo_gen) / 64);
static_assert(offsetof(SubheapMeta, undo) % 64 == 0);

// ---- owner record (v6) ------------------------------------------------------
//
// Identifies the process that last held the heap's OFD lock.  (pid,
// boot_id, start_time) together name one process incarnation: pid alone is
// reusable, pid+start_time disambiguates reuse within a boot, and boot_id
// catches the record surviving a reboot (where every pid is meaningless).
// heartbeat is a coarse wall-clock stamp refreshed on fsck — diagnostic
// only, never consulted for liveness.

struct OwnerRecord {
  std::uint64_t pid;         // 0 = no owner
  std::uint64_t boot_id;     // FNV of /proc/sys/kernel/random/boot_id
  std::uint64_t start_time;  // /proc/<pid>/stat field 22 (clock ticks)
  std::uint64_t heartbeat;   // seconds since epoch at stamp / last fsck
  std::uint64_t csum;        // over the four fields above
};

inline std::uint64_t owner_csum(const OwnerRecord& o) noexcept {
  return hash_bytes(reinterpret_cast<const char*>(&o),
                    offsetof(OwnerRecord, csum));
}

// ---- superblock -------------------------------------------------------------

struct SuperBlock {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t nsubheaps;
  std::uint64_t heap_id;           // random, nonzero
  std::uint64_t file_size;
  std::uint64_t meta_size;         // MPK-protected prefix length
  std::uint64_t subheap_meta_off;
  std::uint64_t subheap_meta_stride;
  std::uint64_t hash_region_off;
  std::uint64_t hash_region_stride;
  std::uint64_t user_region_off;
  std::uint64_t user_size;         // per sub-heap, power of two
  std::uint64_t level0_slots;
  std::uint64_t levels_max;
  std::uint64_t cache_log_off;     // per-thread cache logs (outside meta_size)
  std::uint64_t cache_log_stride;
  std::uint64_t cache_slots;
  std::uint64_t flight_off;        // per-sub-heap flight rings (outside meta_size)
  std::uint64_t flight_stride;
  // Shard header (v5).  All members of a shard set share shard_set_id,
  // shard_epoch and shard_count; shard_index is this file's position.
  // Open refuses to assemble a set whose members disagree on any of these
  // — a member from an older create (stale epoch) or a different set can
  // never be mixed in silently.
  std::uint64_t shard_set_id;      // random, nonzero, same across members
  std::uint64_t shard_epoch;       // random per create, same across members
  std::uint32_t shard_index;       // 0 = head (holds the root object)
  std::uint32_t shard_count;       // members in the set (1..kMaxShards)
  // Everything above is immutable after create; config_csum covers it
  // (including magic) and a shadow copy lives in the page after the
  // superblock, so a scribbled field is repaired rather than trusted.
  std::uint64_t config_csum;
  NvPtr root;
  std::uint64_t subheap_state[kMaxSubheaps];
  // Quiesce seal (v4): seal_state is kSealSealed only between a clean
  // close and the next open.  While sealed, mutable_csum covers
  // [root, seal_state) and each ready sub-heap's seal_csum_* fields are
  // valid; open re-validates them, then drops the seal before admitting
  // traffic.  A crash (no clean close) leaves the seal dirty and open
  // falls back to plain log-replay recovery, exactly as pre-v4.
  std::uint64_t seal_state;
  std::uint64_t mutable_csum;
  // Owner record (v6).  pid == 0 means no owner (clean close, or never
  // opened).  Stamped after recovery at open, cleared after the seal flip
  // at clean close — so a crash anywhere in between leaves it set and the
  // next opener performs a takeover.  Covered by its own csum (not
  // mutable_csum: it changes while the seal is down) so a torn stamp is
  // detectable rather than trusted.
  OwnerRecord owner;
  // Undo log for the superblock's own updates (the root), laid out like
  // the sub-heap log: the generation, then line-aligned entries.
  std::uint64_t undo_gen;
  UndoEntry undo[kSuperUndoCap];
};

enum SealState : std::uint64_t {
  kSealDirty = 0,
  kSealSealed = 1,
};

static_assert(std::is_trivially_copyable_v<SuperBlock>);
static_assert(std::is_trivially_copyable_v<SubheapMeta>);
static_assert(std::is_standard_layout_v<SuperBlock>);
static_assert(std::is_standard_layout_v<SubheapMeta>);

// ---- checksums + superblock shadow (v4) ------------------------------------

// FNV-1a over a byte range; cold paths only (seal at close, validate at
// open, scavenge verify).
inline std::uint64_t csum_bytes(const void* p, std::uint64_t n) noexcept {
  return hash_bytes(static_cast<const char*>(p), n);
}

// The immutable config prefix: every field before config_csum.
inline constexpr std::uint64_t kSuperConfigBytes =
    offsetof(SuperBlock, config_csum);

inline std::uint64_t super_config_csum(const SuperBlock& sb) noexcept {
  return csum_bytes(&sb, kSuperConfigBytes);
}

inline std::uint64_t super_mutable_csum(const SuperBlock& sb) noexcept {
  const auto* b = reinterpret_cast<const unsigned char*>(&sb);
  return csum_bytes(b + offsetof(SuperBlock, root),
                    offsetof(SuperBlock, seal_state) -
                        offsetof(SuperBlock, root));
}

inline std::uint64_t subheap_meta_csum(const SubheapMeta& m) noexcept {
  return csum_bytes(&m, offsetof(SubheapMeta, seal_csum_meta));
}

// Mirror of the superblock config prefix, one page after the superblock.
// magic is stored last at create, so a torn shadow is simply invalid; csum
// covers bytes[0, len).  Restores a superblock whose config csum fails.
struct SuperShadow {
  std::uint64_t magic;  // kShadowMagic
  std::uint64_t len;    // = kSuperConfigBytes at create time
  std::uint64_t csum;
  unsigned char bytes[256];
};
static_assert(kSuperConfigBytes <= sizeof(SuperShadow::bytes));
static_assert(std::is_trivially_copyable_v<SuperShadow>);

constexpr std::uint64_t super_shadow_off() noexcept {
  return align_up(sizeof(SuperBlock), kPageSize);
}

// ---- geometry ---------------------------------------------------------------

struct Geometry {
  std::uint64_t file_size;
  std::uint64_t meta_size;
  std::uint64_t subheap_meta_off;
  std::uint64_t subheap_meta_stride;
  std::uint64_t hash_region_off;
  std::uint64_t hash_region_stride;
  std::uint64_t user_region_off;
  std::uint64_t user_size;
  std::uint64_t level0_slots;
  std::uint32_t levels_max;
  std::uint64_t cache_log_off;
  std::uint64_t cache_log_stride;
  std::uint64_t flight_off;
  std::uint64_t flight_stride;
};

// Slots in hash level `i` (levels double in capacity).
constexpr std::uint64_t level_slots(std::uint64_t level0, unsigned i) noexcept {
  return level0 << i;
}

// Byte offset of level `i` inside a sub-heap's hash region.
constexpr std::uint64_t level_offset(std::uint64_t level0, unsigned i) noexcept {
  // sum_{j<i} level0*2^j slots * 32 B
  return level0 * ((std::uint64_t{1} << i) - 1) * sizeof(MemblockRec);
}

// Computes the file layout for `nsubheaps` sub-heaps of `user_size` bytes
// each (power of two) with `level0` slots in the first hash level (a power
// of two >= 256: every level is then a power of two, which the probe
// windows' mask needs, and page aligned for hole punching).
constexpr Geometry compute_geometry(unsigned nsubheaps, std::uint64_t user_size,
                                    std::uint64_t level0) noexcept {
  Geometry g{};
  g.user_size = user_size;
  g.level0_slots = level0;
  // Worst case one record per 32 B block, with 25% probing headroom.
  const std::uint64_t worst_records = user_size >> kMinBlockShift;
  const std::uint64_t slots_needed = worst_records + worst_records / 4 + kProbeWindow;
  std::uint32_t levels = 1;
  while (level0 * ((std::uint64_t{1} << levels) - 1) < slots_needed &&
         levels < kMaxHashLevels) {
    ++levels;
  }
  g.levels_max = levels;
  // One page between the superblock and the sub-heap metas holds the
  // superblock's shadow copy (v4).
  g.subheap_meta_off = super_shadow_off() + kPageSize;
  g.subheap_meta_stride = align_up(sizeof(SubheapMeta), kPageSize);
  g.hash_region_off = g.subheap_meta_off + nsubheaps * g.subheap_meta_stride;
  g.hash_region_stride =
      align_up(level_offset(level0, levels), kPageSize);
  // The cache logs come after the hash storage but are excluded from the
  // protected prefix (meta_size): the thread-cache fast path appends and
  // erases entries without opening an MPK write window.
  g.cache_log_off = g.hash_region_off + nsubheaps * g.hash_region_stride;
  g.cache_log_stride = align_up(sizeof(CacheLogSlot), kPageSize);
  g.meta_size = g.cache_log_off;
  // Flight-recorder rings (one per sub-heap) live after the cache logs and,
  // like them, outside the protected prefix: recording never opens a write
  // window.  Page-aligned strides keep each ring hole-punchable.
  g.flight_off =
      align_up(g.cache_log_off + kCacheSlots * g.cache_log_stride, kPageSize);
  g.flight_stride =
      align_up(obs::kFlightRingCap * sizeof(obs::FlightEvent), kPageSize);
  g.user_region_off =
      align_up(g.flight_off + nsubheaps * g.flight_stride, kPageSize);
  g.file_size =
      align_up(g.user_region_off + nsubheaps * user_size, kHugePageSize);
  return g;
}

}  // namespace poseidon::core
