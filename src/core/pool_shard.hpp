// PoolShard: one pool file of a sharded Poseidon heap.
//
// A shard owns everything the pre-v5 monolithic Heap owned — one backing
// file with a superblock, per-CPU sub-heaps, their hash tables and logs,
// the per-thread cache logs, the flight rings, and one MPK protection
// domain over the file's metadata prefix (paper Fig. 4).  The public
// `Heap` (core/heap.hpp) is a thin routing front-end over one shard per
// NUMA node: every NvPtr carries its owning shard's heap id, so routing a
// free or a pointer conversion is a shard-id match, never a search.
//
// Thread safety matches the old Heap: all methods are thread-safe;
// sub-heaps are chosen per CPU (or per thread); a thread has at most one
// open transactional allocation, pinned to one sub-heap of one shard.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/spinlock.hpp"
#include "core/layout.hpp"
#include "core/nvmptr.hpp"
#include "core/subheap.hpp"
#include "mpk/mpk.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "pmem/persist.hpp"
#include "pmem/pool.hpp"

namespace poseidon::core {

class ThreadCache;

enum class SubheapPolicy {
  kPerCpu,    // paper's design: sub-heap of the current CPU
  kPerThread, // round-robin by thread ordinal (emulates manycore on small boxes)
  kFixed0,    // single sub-heap (ablation)
};

// How the front-end picks a caller's home shard (core/heap.hpp).
enum class ShardPolicy {
  kPerNode,   // NUMA node of the current CPU (paper §4.1's manycore story)
  kPerThread, // round-robin by thread ordinal (emulates multi-node on one node)
  kFixed0,    // everything through shard 0 (ablation)
};

struct Options {
  // Total sub-heaps across the whole heap, split evenly over the shards
  // (0 = one per online CPU, capped at kMaxSubheaps).  When the total does
  // not divide by the shard count, the shard count is reduced to the
  // largest divisor — an explicit sub-heap count always wins.
  unsigned nsubheaps = 0;
  // Pool shards (backing files): 0 = one per NUMA node, capped at
  // kMaxShards.  Ignored on open — the on-media shard header governs.
  unsigned nshards = 0;
  ShardPolicy shard_policy = ShardPolicy::kPerNode;
  mpk::ProtectMode protect = mpk::ProtectMode::kAuto;
  SubheapPolicy policy = SubheapPolicy::kPerCpu;
  // Ablation only: disable undo logging ("unsafe mode").
  bool use_undo_log = true;
  // First hash level size; a power of two >= 256, so every level is a
  // power of two (probe windows wrap by mask) and page-aligned.
  std::uint64_t level0_slots = 1024;
  // Singleton allocations may fall back to other sub-heaps (and other
  // shards) when the local one is exhausted.  Transactional allocations
  // never fall back once pinned (their micro log lives in the pinned
  // sub-heap).
  bool allow_fallback = true;
  // Ablation: merge buddy pairs at free time (classic eager buddy) instead
  // of the paper's lazy defragmentation (§5.4).  Eager keeps large blocks
  // available without defrag pauses but pays merge work on every free.
  bool eager_coalesce = false;
  // Crash-safe per-thread front-end cache (core/thread_cache.hpp): the
  // common alloc/free pair skips the sub-heap lock, the wrpkru window and
  // the undo log.  Off by default — the cache defers cross-thread
  // double-free detection to flush time and relaxes the delayed-reuse
  // discipline (§5.5) for cached blocks, so callers opt in.
  bool thread_cache = false;
  // Flight recorder placement (obs/flight_recorder.hpp).  kVolatile rings
  // live in DRAM; kPersistent places them in the pool's carved flight
  // region so the last pre-crash events survive into the next open (the
  // post-mortem).  Ignored when obs is compiled out.
  obs::FlightMode flight = obs::FlightMode::kVolatile;
  // Inspector mode: map PROT_READ, take no OFD lock, skip recovery/repair/
  // seal/owner stamping entirely — the file is never mutated, so a
  // read-only open coexists with a live writer (and with a crashed heap,
  // whose pre-recovery state it shows verbatim).  Mutating operations
  // (alloc/free/tx/set_root/fsck) fail with typed results.
  bool read_only = false;
  // Persistence-domain selection (pmem/persist.hpp): kDetect probes the
  // platform; kEadr elides write-back loops (caches are in the domain);
  // kNone elides fences too (DRAM rig).  Resolved at create/open; the
  // POSEIDON_PERSIST_DOMAIN env var overrides any explicit mode.  The
  // resolved domain is process-global, like the simulator flag.
  pmem::PersistDomainMode persist_domain = pmem::PersistDomainMode::kDetect;
};

struct HeapStats {
  std::uint64_t live_blocks = 0;
  std::uint64_t free_blocks = 0;
  std::uint64_t allocated_bytes = 0;
  std::uint64_t user_capacity = 0;
  unsigned nsubheaps = 0;
  unsigned subheaps_materialized = 0;
  // Mechanism counters (since heap creation):
  std::uint64_t splits = 0;          // buddy splits
  std::uint64_t merges = 0;          // defragmentation merges
  std::uint64_t window_merges = 0;   // hash-pressure merges (§5.4 case 2)
  std::uint64_t hash_extensions = 0; // multi-level table growth
  std::uint64_t hash_shrinks = 0;    // levels hole-punched back (§5.6)
  // Thread-cache counters (zero unless Options::thread_cache).  Blocks
  // parked in magazines are excluded from live_blocks/allocated_bytes and
  // counted as free: they are available for allocation.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_flushes = 0;
  std::uint64_t cache_cached_blocks = 0;
  // Sub-heaps currently quarantined or mid-repair (degraded service).
  unsigned subheaps_quarantined = 0;
  // Shard topology (v5): shards in the set, and how many of them failed to
  // open and are served as quarantined slots (their sub-heaps are counted
  // in subheaps_quarantined too).
  unsigned nshards = 1;
  unsigned shards_quarantined = 0;
  // Active persistence domain (a pmem::PersistDomain value).
  std::uint8_t persist_domain = 0;
};

// Per-sub-heap health as seen through the persisted state word.
enum class SubheapHealth {
  kAbsent,       // never formatted
  kReady,        // serving
  kRepairing,    // scavenge rebuild in flight (treated as quarantined)
  kQuarantined,  // unrecoverable: reads only, no alloc, frees rejected
};

// Result of a verification/repair pass (Heap::fsck or open-time
// validation).  records_synthesized counts minimum-granularity allocated
// records scavenge fabricated to cover unaccounted gaps — bounded leak,
// never unsafe reuse.
struct FsckReport {
  unsigned checked = 0;
  unsigned clean = 0;
  unsigned repaired = 0;
  unsigned quarantined = 0;
  std::uint64_t records_dropped = 0;
  std::uint64_t records_synthesized = 0;
};

// Identity of one member within a shard set, mirrored in the superblock's
// v5 shard header.  All members of one heap share set_id/epoch/count; a
// member from a different set or a stale create can never be mixed in.
struct ShardLink {
  std::uint64_t set_id = 0;  // random, nonzero
  std::uint64_t epoch = 0;   // random per create
  std::uint32_t index = 0;   // 0 = head (holds the root object)
  std::uint32_t count = 1;
};

// Random nonzero 64-bit id (heap ids, shard set ids, epochs).
std::uint64_t random_nonzero_u64();

class PoolShard {
 public:
  // Create one member file of a shard set.  `capacity` is this shard's
  // user capacity; `nsubheaps` this shard's sub-heap count (the front-end
  // splits the heap-wide totals).  `metrics` is the owning Heap's registry
  // (shared across shards) and must outlive the shard.
  static std::unique_ptr<PoolShard> create(const std::string& path,
                                           std::uint64_t capacity,
                                           const Options& opts,
                                           unsigned nsubheaps,
                                           const ShardLink& link,
                                           unsigned node,
                                           obs::Metrics* metrics);

  // Open one member, running crash recovery (undo + micro log replay,
  // paper §5.8) before any operation is admitted.  When `expect` is given,
  // the on-media shard header must match it exactly or the open throws
  // Error(kShardMismatch) — a member of another set, a stale epoch, or a
  // member opened at the wrong index never assembles silently.
  static std::unique_ptr<PoolShard> open(const std::string& path,
                                         const Options& opts,
                                         const ShardLink* expect,
                                         unsigned node,
                                         obs::Metrics* metrics);

  // As above, but over a pool the caller already opened (and, for writable
  // pools, already locked).  The front-end uses this to acquire every
  // member's OFD lock in canonical order BEFORE the parallel open phase,
  // so a shard set's ownership is all-or-nothing.
  static std::unique_ptr<PoolShard> open(pmem::Pool pool,
                                         const Options& opts,
                                         const ShardLink* expect,
                                         unsigned node,
                                         obs::Metrics* metrics);

  // Read a member's shard header without mutating the file (unlike open,
  // a damaged config prefix is decoded from the shadow page rather than
  // repaired in place, so corruption accounting stays with open).
  static ShardLink peek(const std::string& path);

  ~PoolShard();
  PoolShard(const PoolShard&) = delete;
  PoolShard& operator=(const PoolShard&) = delete;

  // ---- allocator operations (front-end counts calls/fails/latency) ---------

  // Singleton allocation (paper §5.2).  Null on exhaustion.  The returned
  // block is 2^ceil(log2(size)) bytes, at least 32.
  NvPtr alloc(std::uint64_t size);

  // Transactional allocation (paper §5.3).  Pins one of this shard's
  // sub-heaps for the calling thread until commit; `is_end` commits.
  NvPtr tx_alloc(std::uint64_t size, bool is_end);
  void tx_commit();
  void tx_leak_open_transaction_for_test();
  // True when the calling thread's open transaction is pinned to this
  // shard — the front-end must route every tx operation back here.
  bool tx_active_here() const noexcept;

  // Validated deallocation (paper §5.5): invalid and double frees are
  // detected via the memblock hash table and rejected.
  FreeResult free(NvPtr ptr);

  // ---- owner tags (allocation-service reconcile, DESIGN.md failover) -------
  //
  // An allocated record's free-list link words are dead state; the service
  // parks a session-identity tag there so a new server incarnation can
  // prove which blocks a lost-completion request produced.  Any free or
  // rollback overwrites the links, clearing the tag for free.

  // Stamp `tag` into ptr's record (no-op unless allocated and owned here).
  void stamp_owner_tag(NvPtr ptr, std::uint64_t tag);
  // Validated free that additionally requires the record's tag to carry
  // `nonce32` in its high word: a replayed free can never hit a block the
  // server already freed and handed to someone else (ABA-safe).  Returns
  // kInvalidFree on a tag mismatch.
  FreeResult free_if_owner(NvPtr ptr, std::uint32_t nonce32);
  // Free every allocated block whose tag equals one of tags[0..n); returns
  // how many were freed.  Idempotent: a second sweep finds nothing.
  unsigned reclaim_tagged(const std::uint64_t* tags, unsigned n);

  // Pointer conversions (paper §4.6) for pointers this shard owns.
  void* raw(NvPtr ptr) const noexcept;
  NvPtr from_raw(const void* p) const noexcept;

  // Root object pointer (head shard only, by front-end convention).
  NvPtr root() const noexcept;
  void set_root(NvPtr ptr);

  std::uint64_t heap_id() const noexcept { return sb_->heap_id; }
  unsigned nsubheaps() const noexcept { return sb_->nsubheaps; }
  std::uint64_t user_capacity() const noexcept {
    return sb_->user_size * sb_->nsubheaps;
  }
  const std::string& path() const noexcept { return pool_.path(); }
  bool read_only() const noexcept { return pool_.read_only(); }
  // The stamped owner record (diagnostic; meaningful when pid != 0).
  OwnerRecord owner() const noexcept { return sb_->owner; }
  mpk::ProtectMode protect_mode() const noexcept;

  ShardLink link() const noexcept {
    return ShardLink{sb_->shard_set_id, sb_->shard_epoch, sb_->shard_index,
                     sb_->shard_count};
  }
  unsigned shard_index() const noexcept { return sb_->shard_index; }
  unsigned node() const noexcept { return node_; }

  // Shard-local stats; structural fields only — the metrics-registry
  // derived cache counters are filled in once by the front-end.
  HeapStats stats() const;

  // The MPK-protected metadata prefix (tests register SimDomains here).
  std::pair<void*, std::size_t> metadata_region() const noexcept;
  // The full crash-recovery surface: the metadata prefix PLUS the
  // per-thread cache logs that follow it — every byte recovery consumes at
  // the next open.  The crashcheck engine records and materializes images
  // over this range (flight rings and user data sit beyond it).  Starts at
  // file offset 0, so an image can be pwrite()n back verbatim.
  std::pair<void*, std::size_t> crashsim_region() const noexcept;
  // True when p points into this shard's user data.
  bool contains(const void* p) const noexcept;
  // [lo, lo+len) of the user data, for the registry's address index.
  std::pair<const void*, std::size_t> user_range() const noexcept;

  bool check_invariants(std::string* why = nullptr) const;

  // ---- fault domains (DESIGN.md "Failure model") ---------------------------

  // Verify every materialized sub-heap of this shard and repair what
  // fails; the front-end aggregates reports across shards (and counts the
  // fsck_runs metric once per heap-wide pass).
  FsckReport fsck();

  SubheapHealth subheap_health(unsigned idx) const noexcept;

  // Enumerate every tracked block: f(local_subheap, offset, size_class,
  // status [BlockStatus]).  Diagnostic only; takes each sub-heap lock.
  template <typename F>
  void visit_blocks(F&& f) const {
    for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
      if (!subheap_ready(i)) continue;
      Guard<Spinlock> g(subs_[i]->lock);
      subheap(i).visit_blocks([&](std::uint64_t off, std::uint32_t cls,
                                  std::uint32_t status) {
        f(i, off, cls, status);
      });
    }
  }

  // Bytes the filesystem actually backs (observes hole punching).
  std::uint64_t file_allocated_bytes() const { return pool_.allocated_bytes(); }

  // ---- online snapshots (core/snapshot.cpp) --------------------------------
  //
  // The front-end quiesces EVERY shard first (one consistent cut across
  // the set), then copies shards serially, resuming each right after its
  // own copy.  quiesce blocks sub-heap creation (admin_mu_), takes every
  // ready sub-heap's lock, and writes a seal (checksums + seal_state)
  // exactly as a clean close would — but WITHOUT clearing the owner, so
  // the copied image looks cleanly closed while the source stays owned.
  // resume drops the seal (while still locked, so the superblock page is
  // dirty for the next incremental) and releases everything.

  // Per-shard result of one snapshot copy.
  struct SnapCopy {
    std::uint64_t pages_copied = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t pm_epoch = 0;  // dirty tracker identity after harvest
    std::uint64_t pm_gen = 0;    // dirty tracker generation after harvest
    std::uint64_t file_size = 0;
    std::uint64_t head_csum = 0;  // FNV over the image's first page
  };

  void snapshot_quiesce();
  void snapshot_resume() noexcept;
  // Current dirty-tracker identity/generation; false when the pool carries
  // no tracker (read-only opens).  The front-end proves every shard's
  // baseline BEFORE un-committing the destination of an incremental.
  bool snapshot_baseline(std::uint64_t* epoch,
                         std::uint64_t* gen) const noexcept;
  // Full copy of the sealed, quiesced shard file to dst_file (FICLONE ->
  // copy_file_range -> read/write ladder), owner record zeroed in the
  // image.  Harvests the dirty tracker (new baseline).
  SnapCopy snapshot_copy_full(const std::string& dst_file);
  // Patch only the pages dirtied since the (want_epoch, want_gen) baseline
  // into an existing image at dst_file.  Throws Error(kInvalidArgument)
  // when the live tracker cannot prove that baseline.
  SnapCopy snapshot_copy_incremental(const std::string& dst_file,
                                     std::uint64_t want_epoch,
                                     std::uint64_t want_gen);

  // Free every allocated block carrying an owner tag whose high word
  // matches pairs[2k] (a session nonce32) and whose low word (req id) is
  // strictly greater than pairs[2k+1] (that session's consumed watermark).
  // The fsck-scavenge tag preservation makes this reach blocks from
  // sessions whose client AND server died together.  Returns blocks freed.
  unsigned reclaim_orphans(const std::uint64_t* pairs, unsigned npairs);

  // Re-stamp this shard's owner heartbeat (no-op when unowned or
  // read-only).  The allocation service's housekeeping calls this so the
  // persistent owner record stays fresh while the server mainly touches
  // the heap through its service threads.
  void refresh_owner_heartbeat();

  // ---- observability -------------------------------------------------------

  // Record a heap-scoped flight event from outside the shard (the
  // allocation service's session/state transitions land in sub-heap 0's
  // ring).  No-op when the recorder is off.
  void note_flight(obs::FlightOp op, std::uint64_t arg) noexcept {
    flight(op, 0, 0, arg);
  }

  obs::FlightMode flight_mode() const noexcept;
  std::vector<obs::FlightEvent> flight_events() const;
  const std::vector<obs::FlightEvent>& flight_postmortem() const noexcept {
    return postmortem_;
  }

 private:
  struct SubRuntime {
    Spinlock lock;
    std::mutex tx_mu;  // held for the duration of an open transaction
  };

  PoolShard(pmem::Pool pool, const Options& opts, unsigned node,
            obs::Metrics* metrics, bool sb_repaired);

  std::byte* base() const noexcept { return pool_.data(); }
  SubheapMeta* meta_of(unsigned idx) const noexcept;
  Subheap subheap(unsigned idx) const noexcept;
  unsigned pick_subheap() const noexcept;
  // False when the sub-heap cannot serve (quarantined/repairing); formats
  // it first when absent.
  bool ensure_subheap(unsigned idx);
  void recover();

  // Fault-domain plumbing (core/fsck.cpp).  validate_superblock runs
  // before the shard exists (it may restore the config prefix from the
  // shadow page); returns true when a repair was applied.
  static bool validate_superblock(pmem::Pool& pool);
  void validate_on_open(bool sb_repaired);
  bool probe_subheap_readable(unsigned idx) const noexcept;
  bool subheap_sane(unsigned idx) const noexcept;
  bool scavenge_subheap(unsigned idx, FsckReport* rep);
  void quarantine_subheap(unsigned idx);
  void seal_all() noexcept;

  // Lock-free readers (alloc/free fast paths, stats, visit_blocks) observe
  // a sub-heap's readiness via acquire, pairing with the release store
  // that publishes a finished format in ensure_subheap.
  bool subheap_ready(unsigned idx) const noexcept {
    return pmem::nv_load_acquire(sb_->subheap_state[idx]) == kSubheapReady;
  }

  // Flight-recorder plumbing.  Ring labels are heap-global sub-heap
  // indices (shard_index * nsubheaps + local) so merged event streams stay
  // unambiguous.
  obs::FlightEvent* pm_flight_slots(unsigned idx) const noexcept;
  void init_flight();
  void flight(obs::FlightOp op, unsigned sub, std::uint16_t cls,
              std::uint64_t arg) noexcept {
    if (!rings_.empty()) rings_[sub]->record(op, cls, arg);
  }

  // Thread-cache plumbing (no-ops unless Options::thread_cache).
  CacheLogSlot* cache_slot(unsigned idx) const noexcept;
  ThreadCache& cache_for_thread() const noexcept;
  NvPtr cache_refill(ThreadCache& tc, unsigned cls);
  // nullopt: not handled, take the slow path (big block or full log).
  std::optional<FreeResult> cache_free(NvPtr ptr, unsigned idx);
  void cache_flush(ThreadCache& tc, unsigned cls);

  pmem::Pool pool_;
  Options opts_;
  SuperBlock* sb_ = nullptr;
  unsigned node_ = 0;  // preferred NUMA node of this shard's memory
  std::unique_ptr<mpk::ProtectionDomain> prot_;
  std::vector<std::unique_ptr<SubRuntime>> subs_;
  // Constructed eagerly (one per persistent cache-log slot) so lookup by
  // thread ordinal never races a lazy publication.
  std::vector<std::unique_ptr<ThreadCache>> caches_;
  mutable std::mutex admin_mu_;  // sub-heap creation + root updates
  // Sub-heap indices locked by an in-flight snapshot_quiesce (guarded by
  // the front-end's snapshot mutex: one snapshot at a time per heap).
  std::vector<unsigned> snap_locked_;

  // Observability state.  metrics_ is the owning Heap's registry, shared
  // by every shard so heap-wide counters aggregate for free.  rings_ is
  // empty when the flight recorder is off (or obs is compiled out);
  // flight_mem_ backs volatile rings.
  obs::Metrics* metrics_;
  std::atomic<bool> numa_bind_failed_{false};  // first-failure flight latch
  std::vector<std::unique_ptr<obs::FlightRing>> rings_;
  std::unique_ptr<obs::FlightEvent[]> flight_mem_;
  std::vector<obs::FlightEvent> postmortem_;
};

}  // namespace poseidon::core
