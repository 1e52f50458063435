#include "core/pool_shard.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/numa.hpp"
#include "common/topology.hpp"
#include "core/micro_log.hpp"
#include "core/ownership.hpp"
#include "core/thread_cache.hpp"
#include "pmem/crashpoint.hpp"
#include "pmem/fault_inject.hpp"
#include "pmem/persist.hpp"
#include "pmem/retry.hpp"

namespace poseidon::core {

namespace {

constexpr std::uint64_t kMinUserSize = 64 * 1024;

void validate_options(const Options& opts, unsigned nsubheaps) {
  if (opts.level0_slots < 256 ||
      (opts.level0_slots & (opts.level0_slots - 1)) != 0) {
    throw std::invalid_argument("level0_slots must be a power of two >= 256");
  }
  if (nsubheaps > kMaxSubheaps) {
    throw std::invalid_argument("too many sub-heaps");
  }
}

// Per-thread open-transaction state (paper §5.3).  One open transaction
// per thread; the pinned sub-heap's tx_mu is held until commit.
struct TxState {
  std::uint64_t heap_id = 0;
  const void* owner = nullptr;  // PoolShard instance that pinned the sub-heap
  unsigned sub = 0;
  bool active = false;
};
thread_local TxState tl_tx;

}  // namespace

std::uint64_t random_nonzero_u64() {
  std::random_device rd;
  std::uint64_t id = 0;
  do {
    id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  } while (id == 0);
  return id;
}

std::unique_ptr<PoolShard> PoolShard::create(const std::string& path,
                                             std::uint64_t capacity,
                                             const Options& opts,
                                             unsigned nsubheaps,
                                             const ShardLink& link,
                                             unsigned node,
                                             obs::Metrics* metrics) {
  validate_options(opts, nsubheaps);
  const unsigned nsub = nsubheaps != 0
                            ? nsubheaps
                            : std::min(cpu_count(), kMaxSubheaps);
  const std::uint64_t per = capacity / nsub;
  const std::uint64_t user_size =
      round_up_pow2(per < kMinUserSize ? kMinUserSize : per);
  const Geometry geo = compute_geometry(nsub, user_size, opts.level0_slots);

  pmem::Pool pool = pmem::Pool::create(path, geo.file_size);
  auto* sb = reinterpret_cast<SuperBlock*>(pool.data());
  pmem::nv_memset(sb, 0, sizeof(SuperBlock));
  pmem::nv_store(sb->version, kVersion);
  pmem::nv_store(sb->nsubheaps, nsub);
  pmem::nv_store(sb->heap_id, random_nonzero_u64());
  pmem::nv_store(sb->file_size, geo.file_size);
  pmem::nv_store(sb->meta_size, geo.meta_size);
  pmem::nv_store(sb->subheap_meta_off, geo.subheap_meta_off);
  pmem::nv_store(sb->subheap_meta_stride, geo.subheap_meta_stride);
  pmem::nv_store(sb->hash_region_off, geo.hash_region_off);
  pmem::nv_store(sb->hash_region_stride, geo.hash_region_stride);
  pmem::nv_store(sb->user_region_off, geo.user_region_off);
  pmem::nv_store(sb->user_size, geo.user_size);
  pmem::nv_store(sb->level0_slots, geo.level0_slots);
  pmem::nv_store(sb->levels_max, static_cast<std::uint64_t>(geo.levels_max));
  pmem::nv_store(sb->cache_log_off, geo.cache_log_off);
  pmem::nv_store(sb->cache_log_stride, geo.cache_log_stride);
  pmem::nv_store(sb->cache_slots, std::uint64_t{kCacheSlots});
  pmem::nv_store(sb->flight_off, geo.flight_off);
  pmem::nv_store(sb->flight_stride, geo.flight_stride);
  // Shard header (v5): covered by the config checksum below, so a member
  // can never be quietly re-labelled into another set.
  pmem::nv_store(sb->shard_set_id, link.set_id);
  pmem::nv_store(sb->shard_epoch, link.epoch);
  pmem::nv_store(sb->shard_index, link.index);
  pmem::nv_store(sb->shard_count, link.count);
  // Config checksum + shadow page (v4): computed over the prefix as it
  // will read once magic lands, so build the image in a local buffer.
  unsigned char cfg[kSuperConfigBytes];
  std::memcpy(cfg, sb, kSuperConfigBytes);
  std::memcpy(cfg, &kSuperMagic, sizeof(kSuperMagic));
  const std::uint64_t ccsum = csum_bytes(cfg, kSuperConfigBytes);
  auto* shadow = reinterpret_cast<SuperShadow*>(pool.data() + super_shadow_off());
  pmem::nv_memcpy(shadow->bytes, cfg, kSuperConfigBytes);
  pmem::nv_store(shadow->len, std::uint64_t{kSuperConfigBytes});
  pmem::nv_store(shadow->csum, ccsum);
  pmem::persist(shadow, sizeof(SuperShadow));
  pmem::nv_store_persist(shadow->magic, kShadowMagic);
  pmem::nv_store(sb->config_csum, ccsum);
  pmem::persist(sb, sizeof(SuperBlock));
  // Magic last: a half-created file is never mistaken for a valid heap.
  pmem::nv_store_persist(sb->magic, kSuperMagic);

  return std::unique_ptr<PoolShard>(
      new PoolShard(std::move(pool), opts, node, metrics, false));
}

std::unique_ptr<PoolShard> PoolShard::open(const std::string& path,
                                           const Options& opts,
                                           const ShardLink* expect,
                                           unsigned node,
                                           obs::Metrics* metrics) {
  return open(pmem::Pool::open(path, opts.read_only), opts, expect, node,
              metrics);
}

std::unique_ptr<PoolShard> PoolShard::open(pmem::Pool pool,
                                           const Options& opts,
                                           const ShardLink* expect,
                                           unsigned node,
                                           obs::Metrics* metrics) {
  const bool sb_repaired = validate_superblock(pool);
  const auto* sb = reinterpret_cast<const SuperBlock*>(pool.data());
  if (expect != nullptr) {
    if (sb->shard_set_id != expect->set_id ||
        sb->shard_epoch != expect->epoch ||
        sb->shard_index != expect->index ||
        sb->shard_count != expect->count) {
      throw Error(ErrorCode::kShardMismatch,
                  pool.path() + ": shard header (set " +
                      std::to_string(sb->shard_set_id) + " epoch " +
                      std::to_string(sb->shard_epoch) + " " +
                      std::to_string(sb->shard_index) + "/" +
                      std::to_string(sb->shard_count) +
                      ") does not match its shard set");
    }
  }
  return std::unique_ptr<PoolShard>(
      new PoolShard(std::move(pool), opts, node, metrics, sb_repaired));
}

ShardLink PoolShard::peek(const std::string& path) {
  // pread, never mmap: peeking must not consume mapping-time semantics —
  // emulated media errors (fault::poison_arm) land on the pool's *next*
  // mapping, which belongs to the subsequent open().
  int fd = -1;
  if (const int e = pmem::fault::intercept(pmem::fault::SysOp::kOpen)) {
    errno = e;
  } else {
    fd = ::open(path.c_str(), O_RDONLY);
  }
  if (fd < 0) {
    throw Error(ErrorCode::kIo,
                "open pool file " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  int stat_rc = -1;
  if (const int e = pmem::fault::intercept(pmem::fault::SysOp::kFstat)) {
    errno = e;
  } else {
    stat_rc = ::fstat(fd, &st);
  }
  if (stat_rc != 0) {
    const int err = errno;
    ::close(fd);
    throw Error(ErrorCode::kIo,
                "stat pool file " + path + ": " + std::strerror(err));
  }
  const std::uint64_t need = super_shadow_off() + sizeof(SuperShadow);
  if (static_cast<std::uint64_t>(st.st_size) < need) {
    ::close(fd);
    throw Error(ErrorCode::kNotAPool,
                path + ": too small to be a Poseidon heap");
  }
  std::vector<unsigned char> buf(need);
  if (!pmem::pread_full(fd, buf.data(), need, 0)) {
    ::close(fd);
    throw Error(ErrorCode::kIo, "read superblock of " + path);
  }
  ::close(fd);
  const auto* sb = reinterpret_cast<const SuperBlock*>(buf.data());
  SuperBlock decoded{};
  if (sb->magic == kSuperMagic && sb->version == kVersion &&
      super_config_csum(*sb) == sb->config_csum) {
    std::memcpy(&decoded, sb, kSuperConfigBytes);
  } else {
    // Decode through the shadow page without repairing in place — the
    // subsequent open() owns the repair and its corruption accounting.
    const auto* shadow =
        reinterpret_cast<const SuperShadow*>(buf.data() + super_shadow_off());
    const bool shadow_ok = shadow->magic == kShadowMagic &&
                           shadow->len == kSuperConfigBytes &&
                           shadow->csum == csum_bytes(shadow->bytes, shadow->len);
    if (shadow_ok) std::memcpy(&decoded, shadow->bytes, kSuperConfigBytes);
    if (!shadow_ok || decoded.magic != kSuperMagic) {
      if (sb->magic != kSuperMagic) {
        throw Error(ErrorCode::kNotAPool, path + ": not a Poseidon heap");
      }
      throw Error(ErrorCode::kCorruptSuperblock,
                  path + ": superblock checksum mismatch and shadow copy "
                         "invalid");
    }
    if (decoded.version != kVersion) {
      throw Error(ErrorCode::kWrongVersion,
                  path + ": layout version " + std::to_string(decoded.version) +
                      " (this build expects " + std::to_string(kVersion) + ")");
    }
  }
  return ShardLink{decoded.shard_set_id, decoded.shard_epoch,
                   decoded.shard_index, decoded.shard_count};
}

PoolShard::PoolShard(pmem::Pool pool, const Options& opts, unsigned node,
                     obs::Metrics* metrics, bool sb_repaired)
    : pool_(std::move(pool)), opts_(opts), node_(node), metrics_(metrics) {
  sb_ = reinterpret_cast<SuperBlock*>(pool_.data());
  // Inspector mode records nothing (the mapping is PROT_READ and volatile
  // rings would only see the inspector's own non-events), but the
  // persistent post-mortem capture below is pure reads and is kept.
  if (pool_.read_only()) opts_.flight = obs::FlightMode::kOff;
  subs_.reserve(sb_->nsubheaps);
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    subs_.push_back(std::make_unique<SubRuntime>());
  }
  // Flight rings come up before recovery: the post-mortem must be captured
  // before anything touches the pool, and recovery itself records events.
  init_flight();
  if (pool_.read_only()) {
    // No repair, no recovery, no caches, no owner stamp, no protection
    // domain (a null domain makes every WriteWindow a no-op): the file is
    // shown exactly as the last writer left it.
    return;
  }
  // Owner takeover (v6): we hold the OFD lock, so any stamped owner record
  // is a previous incarnation that never reached its clean close — count
  // it and record how it died before recovery overwrites the evidence.
  if (sb_->owner.pid != 0) {
    metrics_->owner_takeovers.inc();
    flight(obs::FlightOp::kOwnerTakeover, 0, 0,
           static_cast<std::uint64_t>(classify_owner(sb_->owner)));
  }
  // Checksum validation (and, if needed, scavenge/quarantine) runs before
  // undo replay: recovery must not chew on metadata that corruption has
  // turned into garbage.
  validate_on_open(sb_repaired);
  recover();
  flight(obs::FlightOp::kOpen, 0, 0, sb_->nsubheaps);
  flight(obs::FlightOp::kPersistDomain, 0, 0,
         static_cast<std::uint64_t>(pmem::persist_domain()));
  if (opts_.thread_cache && sb_->cache_slots != 0) {
    caches_.reserve(sb_->cache_slots);
    for (unsigned i = 0; i < sb_->cache_slots; ++i) {
      caches_.push_back(std::make_unique<ThreadCache>(cache_slot(i)));
    }
  }
  // Stamped only after recovery succeeded: an open that throws mid-way
  // leaves the previous record (and its takeover evidence) in place.
  stamp_owner(sb_);
  // Protection engages after recovery so replay does not need a window
  // before the domain exists; recovery itself is single-threaded.
  prot_ = std::make_unique<mpk::ProtectionDomain>(pool_.data(), sb_->meta_size,
                                                  opts_.protect);
}

PoolShard::~PoolShard() {
  // Cached blocks are deliberately NOT flushed: closing without a flush is
  // indistinguishable from a crash, and the next open's recovery drains the
  // cache logs through the validated free path.  This keeps destruction
  // trivially crash-equivalent (and exercises that path constantly).
  if (!pool_.read_only()) seal_all();
  prot_.reset();  // restore plain read-write before unmapping
}

CacheLogSlot* PoolShard::cache_slot(unsigned idx) const noexcept {
  return reinterpret_cast<CacheLogSlot*>(
      base() + sb_->cache_log_off + idx * sb_->cache_log_stride);
}

obs::FlightEvent* PoolShard::pm_flight_slots(unsigned idx) const noexcept {
  return reinterpret_cast<obs::FlightEvent*>(
      base() + sb_->flight_off + idx * sb_->flight_stride);
}

void PoolShard::init_flight() {
#if POSEIDON_OBS_ENABLED
  // Ring labels are heap-global sub-heap indices so event streams merged
  // across shards stay unambiguous.
  const std::uint32_t label_base = sb_->shard_index * sb_->nsubheaps;
  // Post-mortem first: whatever a previous session's persistent rings left
  // behind, captured before recovery or new traffic can overwrite it.
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    const obs::FlightRing prev(pm_flight_slots(i), obs::kFlightRingCap,
                               /*persistent=*/false, label_base + i);
    const auto evs = prev.snapshot();
    postmortem_.insert(postmortem_.end(), evs.begin(), evs.end());
  }
  if (opts_.flight == obs::FlightMode::kOff) return;
  const bool persistent = opts_.flight == obs::FlightMode::kPersistent;
  if (!persistent) {
    // Value-initialized: a volatile ring must start with all seqs zero.
    flight_mem_ = std::make_unique<obs::FlightEvent[]>(
        std::size_t{sb_->nsubheaps} * obs::kFlightRingCap);
  }
  rings_.reserve(sb_->nsubheaps);
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    obs::FlightEvent* slots =
        persistent ? pm_flight_slots(i)
                   : flight_mem_.get() + std::size_t{i} * obs::kFlightRingCap;
    // A persistent ring re-attaches: its head continues after the largest
    // surviving seq, so history is contiguous across sessions.
    rings_.push_back(std::make_unique<obs::FlightRing>(
        slots, obs::kFlightRingCap, persistent, label_base + i));
  }
#endif
}

obs::FlightMode PoolShard::flight_mode() const noexcept {
  return rings_.empty() ? obs::FlightMode::kOff : opts_.flight;
}

std::vector<obs::FlightEvent> PoolShard::flight_events() const {
  std::vector<obs::FlightEvent> all;
  for (const auto& r : rings_) {
    const auto evs = r->snapshot();
    all.insert(all.end(), evs.begin(), evs.end());
  }
  std::sort(all.begin(), all.end(),
            [](const obs::FlightEvent& a, const obs::FlightEvent& b) {
              return a.tsc < b.tsc;
            });
  return all;
}

ThreadCache& PoolShard::cache_for_thread() const noexcept {
  return *caches_[thread_ordinal() % caches_.size()];
}

SubheapMeta* PoolShard::meta_of(unsigned idx) const noexcept {
  return reinterpret_cast<SubheapMeta*>(
      base() + sb_->subheap_meta_off + idx * sb_->subheap_meta_stride);
}

Subheap PoolShard::subheap(unsigned idx) const noexcept {
  return Subheap(meta_of(idx), base(), const_cast<pmem::Pool*>(&pool_),
                 opts_.use_undo_log, opts_.eager_coalesce, metrics_);
}

unsigned PoolShard::pick_subheap() const noexcept {
  switch (opts_.policy) {
    case SubheapPolicy::kPerCpu:
      return current_cpu() % sb_->nsubheaps;
    case SubheapPolicy::kPerThread:
      return thread_ordinal() % sb_->nsubheaps;
    case SubheapPolicy::kFixed0:
      return 0;
  }
  return 0;
}

bool PoolShard::ensure_subheap(unsigned idx) {
  {
    const auto st = pmem::nv_load_acquire(sb_->subheap_state[idx]);
    if (st == kSubheapReady) return true;
    // Quarantined / repairing sub-heaps take no new allocations; only an
    // absent one may be formatted — and never through a read-only mapping.
    if (st != kSubheapAbsent || pool_.read_only()) return false;
  }
  std::lock_guard<std::mutex> lk(admin_mu_);
  {
    const auto st = pmem::nv_load_acquire(sb_->subheap_state[idx]);
    if (st == kSubheapReady) return true;
    if (st != kSubheapAbsent) return false;
  }
  mpk::WriteWindow w(prot_.get());
  const Geometry geo{sb_->file_size,
                     sb_->meta_size,
                     sb_->subheap_meta_off,
                     sb_->subheap_meta_stride,
                     sb_->hash_region_off,
                     sb_->hash_region_stride,
                     sb_->user_region_off,
                     sb_->user_size,
                     sb_->level0_slots,
                     static_cast<std::uint32_t>(sb_->levels_max),
                     sb_->cache_log_off,
                     sb_->cache_log_stride,
                     sb_->flight_off,
                     sb_->flight_stride};
  // Formatting is made atomic by the state flag: a crash mid-format leaves
  // state=absent and the next use re-formats from scratch.
  const unsigned cpu = current_cpu();
  Subheap::format(meta_of(idx), base(), geo, idx, cpu);
  // Paper §4.1: the whole shard lives on one NUMA node (node_), so every
  // sub-heap's pages carry the same placement hint and accesses from the
  // node's CPUs stay local.  Best-effort; a no-op on single-node machines.
  if (!numa_bind_region(base() + sb_->user_region_off + idx * sb_->user_size,
                        sb_->user_size, node_)) {
    metrics_->numa_bind_fails.inc();
    // One flight event per shard on the first refusal — enough to make a
    // misplaced shard diagnosable without flooding the ring.
    if (!numa_bind_failed_.exchange(true, std::memory_order_relaxed)) {
      flight(obs::FlightOp::kNumaBindFail, idx, 0, node_);
    }
  }
  pmem::nv_store_release_persist(sb_->subheap_state[idx], kSubheapReady);
  return true;
}

NvPtr PoolShard::alloc(std::uint64_t size) {
  if (pool_.read_only()) return NvPtr::null();
  if (!caches_.empty() && size != 0 && size <= sb_->user_size) {
    const unsigned cls = std::max(kMinBlockShift, log2_ceil(size));
    if (ThreadCache::cacheable(cls)) {
      ThreadCache& tc = cache_for_thread();
      {
        Guard<Spinlock> g(tc.mu());
        const NvPtr p = tc.pop_locked(cls);
        // Hit path stays bare beyond the two counters: no flight event, no
        // size-class sample — it is the operation the overhead budget is
        // measured against.
        if (!p.is_null()) {
          metrics_->cache_hits.inc();
          return p;
        }
      }
      metrics_->cache_misses.inc();
      const NvPtr p = cache_refill(tc, cls);
      if (!p.is_null()) {
        metrics_->alloc_size_class.add(cls);
        return p;
      }
      // Refill could not pop a single block (class dry everywhere the
      // batch looked, or the log is full): the slow path below still gets
      // to defragment and fall back across sub-heaps.
    }
  }
  const unsigned start = pick_subheap();
  const unsigned attempts = opts_.allow_fallback ? sb_->nsubheaps : 1;
  for (unsigned a = 0; a < attempts; ++a) {
    const unsigned idx = (start + a) % sb_->nsubheaps;
    if (!ensure_subheap(idx)) continue;  // quarantined: serve from the rest
    mpk::WriteWindow w(prot_.get());
    Guard<Spinlock> g(subs_[idx]->lock);
    Subheap sh = subheap(idx);
    if (const auto off = sh.alloc(size)) {
      const unsigned cls = std::max(kMinBlockShift, log2_ceil(size));
      metrics_->alloc_size_class.add(cls);
      flight(obs::FlightOp::kAlloc, idx, static_cast<std::uint16_t>(cls),
             *off);
      return NvPtr::make(sb_->heap_id, static_cast<std::uint16_t>(idx), *off);
    }
  }
  return NvPtr::null();
}

bool PoolShard::tx_active_here() const noexcept {
  return tl_tx.active && tl_tx.owner == this;
}

NvPtr PoolShard::tx_alloc(std::uint64_t size, bool is_end) {
  if (pool_.read_only()) return NvPtr::null();
  TxState& tx = tl_tx;
  if (tx.active && tx.owner != this) {
    if (tx.heap_id != sb_->heap_id) {
      // One open transaction per thread; refuse a second shard's tx (the
      // front-end routes a pinned thread back to its shard first, so this
      // only triggers for a transaction open on a different heap).
      return NvPtr::null();
    }
    // Same persistent heap id but a different PoolShard instance: the
    // pinning object is gone (e.g. a simulated crash destroyed it).  The
    // stale transaction's micro log was (or will be) replayed by recovery,
    // so the thread may simply start fresh.
    tx = TxState{};
  }
  // A transaction pinned before this call may already hold logged
  // allocations, so its commit must run even if this final alloc fails;
  // a transaction both opened and ended here logged nothing on failure.
  const bool was_pinned = tx.active;
  if (!tx.active) {
    // Pin a sub-heap for this transaction: its micro log records the
    // allocation history until commit.  Prefer an uncontended one.
    const unsigned start = pick_subheap();
    for (unsigned a = 0; a < sb_->nsubheaps; ++a) {
      const unsigned idx = (start + a) % sb_->nsubheaps;
      if (!ensure_subheap(idx)) continue;  // never pin a quarantined sub-heap
      if (subs_[idx]->tx_mu.try_lock()) {
        tx = TxState{sb_->heap_id, this, idx, true};
        break;
      }
    }
    if (!tx.active) {
      // Every healthy sub-heap is pinned by another thread: block on the
      // first healthy one (a quarantined sub-heap must never be pinned).
      for (unsigned a = 0; a < sb_->nsubheaps; ++a) {
        const unsigned idx = (start + a) % sb_->nsubheaps;
        if (!ensure_subheap(idx)) continue;
        subs_[idx]->tx_mu.lock();
        tx = TxState{sb_->heap_id, this, idx, true};
        break;
      }
    }
    if (!tx.active) return NvPtr::null();  // the whole shard is quarantined
  }

  NvPtr result = NvPtr::null();
  try {
    {
      mpk::WriteWindow w(prot_.get());
      Guard<Spinlock> g(subs_[tx.sub]->lock);
      Subheap sh = subheap(tx.sub);
      const TxHook hook{true, sb_->heap_id,
                        static_cast<std::uint16_t>(tx.sub)};
      if (const auto off = sh.alloc(size, hook)) {
        result = NvPtr::make(sb_->heap_id, static_cast<std::uint16_t>(tx.sub),
                             *off);
        const unsigned cls = std::max(kMinBlockShift, log2_ceil(size));
        metrics_->alloc_size_class.add(cls);
        flight(obs::FlightOp::kTxAlloc, tx.sub,
               static_cast<std::uint16_t>(cls), *off);
      }
    }
    if (is_end && (was_pinned || !result.is_null())) {
      // An empty single-op transaction (fresh pin, alloc failed) wrote
      // nothing to the micro log: no truncate, and counting it as a
      // commit would inflate tx_commits once per shard the front-end's
      // exhaustion fallback walks.
      POSEIDON_CRASH_POINT("tx.before_commit_truncate");
      {
        mpk::WriteWindow w(prot_.get());
        micro_truncate(meta_of(tx.sub)->micro);
      }
      POSEIDON_CRASH_POINT("tx.after_commit_truncate");
      metrics_->tx_commits.inc();
      flight(obs::FlightOp::kTxCommit, tx.sub, 0, 0);
    }
  } catch (...) {
    // A simulated crash (or any other exception) must not leave the
    // transaction pin behind: the micro log stays non-empty, so recovery
    // reclaims the allocations, exactly as after a real crash.
    subs_[tx.sub]->tx_mu.unlock();
    tx = TxState{};
    throw;
  }
  if (is_end) {
    subs_[tx.sub]->tx_mu.unlock();
    tx = TxState{};
  }
  return result;
}

void PoolShard::tx_commit() {
  TxState& tx = tl_tx;
  if (!tx.active || tx.owner != this) return;
  {
    mpk::WriteWindow w(prot_.get());
    micro_truncate(meta_of(tx.sub)->micro);
  }
  metrics_->tx_commits.inc();
  flight(obs::FlightOp::kTxCommit, tx.sub, 0, 0);
  subs_[tx.sub]->tx_mu.unlock();
  tx = TxState{};
}

void PoolShard::tx_leak_open_transaction_for_test() {
  TxState& tx = tl_tx;
  if (!tx.active || tx.owner != this) return;
  subs_[tx.sub]->tx_mu.unlock();
  tx = TxState{};
}

FreeResult PoolShard::free(NvPtr ptr) {
  if (pool_.read_only() || ptr.is_null() || ptr.heap_id != sb_->heap_id) {
    return FreeResult::kInvalidPointer;
  }
  const unsigned idx = ptr.subheap();
  if (idx >= sb_->nsubheaps) {
    return FreeResult::kInvalidPointer;
  }
  const auto st = pmem::nv_load_acquire(sb_->subheap_state[idx]);
  if (st == kSubheapQuarantined || st == kSubheapRepairing) {
    // Degraded mode: the block's metadata is untrusted, so the free is
    // refused (typed, not silently dropped).  The data stays readable.
    return FreeResult::kQuarantined;
  }
  if (st != kSubheapReady) {
    return FreeResult::kInvalidPointer;
  }
  if (!caches_.empty()) {
    if (const auto r = cache_free(ptr, idx)) {
      return *r;
    }
  }
  mpk::WriteWindow w(prot_.get());
  Guard<Spinlock> g(subs_[idx]->lock);
  Subheap sh = subheap(idx);
  const FreeResult r = sh.free_block(ptr.offset());
  if (r == FreeResult::kOk) {
    flight(obs::FlightOp::kFree, idx, 0, ptr.offset());
  }
  return r;
}

void PoolShard::stamp_owner_tag(NvPtr ptr, std::uint64_t tag) {
  if (pool_.read_only() || ptr.is_null() || ptr.heap_id != sb_->heap_id) return;
  const unsigned idx = ptr.subheap();
  if (idx >= sb_->nsubheaps || !subheap_ready(idx)) return;
  mpk::WriteWindow w(prot_.get());
  Guard<Spinlock> g(subs_[idx]->lock);
  Subheap sh = subheap(idx);
  MemblockRec* rec = sh.table().find(ptr.offset());
  if (rec != nullptr && rec->status == kBlockAllocated) {
    pmem::nv_store(rec->next_free, tag);
  }
}

FreeResult PoolShard::free_if_owner(NvPtr ptr, std::uint32_t nonce32) {
  if (pool_.read_only() || ptr.is_null() || ptr.heap_id != sb_->heap_id) {
    return FreeResult::kInvalidPointer;
  }
  const unsigned idx = ptr.subheap();
  if (idx >= sb_->nsubheaps) return FreeResult::kInvalidPointer;
  const auto st = pmem::nv_load_acquire(sb_->subheap_state[idx]);
  if (st == kSubheapQuarantined || st == kSubheapRepairing) {
    return FreeResult::kQuarantined;
  }
  if (st != kSubheapReady) return FreeResult::kInvalidPointer;
  // No thread-cache leg: the tag check and the free must be one step under
  // the sub-heap lock, or a re-allocation could slip between them.
  mpk::WriteWindow w(prot_.get());
  Guard<Spinlock> g(subs_[idx]->lock);
  Subheap sh = subheap(idx);
  const MemblockRec* rec = sh.table().find(ptr.offset());
  if (rec == nullptr) return FreeResult::kInvalidFree;
  if (rec->status != kBlockAllocated) return FreeResult::kDoubleFree;
  if (static_cast<std::uint32_t>(rec->next_free >> 32) != nonce32) {
    return FreeResult::kInvalidFree;  // freed and re-issued since: not ours
  }
  const FreeResult r = sh.free_block(ptr.offset());
  if (r == FreeResult::kOk) {
    flight(obs::FlightOp::kFree, idx, 0, ptr.offset());
  }
  return r;
}

unsigned PoolShard::reclaim_tagged(const std::uint64_t* tags, unsigned n) {
  if (pool_.read_only() || n == 0) return 0;
  unsigned freed = 0;
  for (unsigned idx = 0; idx < sb_->nsubheaps; ++idx) {
    if (!subheap_ready(idx)) continue;
    std::vector<std::uint64_t> offs;
    mpk::WriteWindow w(prot_.get());
    Guard<Spinlock> g(subs_[idx]->lock);
    Subheap sh = subheap(idx);
    sh.visit_records([&](const MemblockRec& rec) {
      if (rec.status != kBlockAllocated) return;
      for (unsigned t = 0; t < n; ++t) {
        if (rec.next_free == tags[t]) {
          offs.push_back(rec.key - 1);
          break;
        }
      }
    });
    // Free after the walk: free_block rewrites the table being iterated.
    for (const std::uint64_t off : offs) {
      if (sh.free_block(off) == FreeResult::kOk) {
        flight(obs::FlightOp::kFree, idx, 0, off);
        ++freed;
      }
    }
  }
  return freed;
}

unsigned PoolShard::reclaim_orphans(const std::uint64_t* pairs,
                                    unsigned npairs) {
  if (pool_.read_only() || npairs == 0) return 0;
  unsigned freed = 0;
  for (unsigned idx = 0; idx < sb_->nsubheaps; ++idx) {
    if (!subheap_ready(idx)) continue;
    std::vector<std::uint64_t> offs;
    mpk::WriteWindow w(prot_.get());
    Guard<Spinlock> g(subs_[idx]->lock);
    Subheap sh = subheap(idx);
    sh.visit_records([&](const MemblockRec& rec) {
      if (rec.status != kBlockAllocated) return;
      const std::uint64_t tag = rec.next_free;
      if ((tag >> 63) == 0) return;  // no owner tag parked here
      const auto nonce = static_cast<std::uint32_t>(tag >> 32);
      const auto req = static_cast<std::uint32_t>(tag);
      for (unsigned k = 0; k < npairs; ++k) {
        // Sessions complete strictly in FIFO request order, so every req
        // id at or below the watermark was consumed by the (now dead)
        // client; ids past it can never have been handed out.
        if (nonce == static_cast<std::uint32_t>(pairs[2 * k]) &&
            req > static_cast<std::uint32_t>(pairs[2 * k + 1])) {
          offs.push_back(rec.key - 1);
          break;
        }
      }
    });
    // Free after the walk: free_block rewrites the table being iterated.
    for (const std::uint64_t off : offs) {
      if (sh.free_block(off) == FreeResult::kOk) {
        flight(obs::FlightOp::kFree, idx, 0, off);
        ++freed;
      }
    }
  }
  if (freed != 0) flight(obs::FlightOp::kOrphanReclaim, 0, 0, freed);
  return freed;
}

NvPtr PoolShard::cache_refill(ThreadCache& tc, unsigned cls) {
  // Lock order: cache before sub-heap (the only place both are held).
  Guard<Spinlock> g(tc.mu());
  const unsigned room = tc.room_locked(cls);
  if (room == 0) return NvPtr::null();
  const unsigned want = std::min(room, ThreadCache::kRefillBatch);
  const unsigned idx = pick_subheap();
  // Quarantined home sub-heap: skip the batch; the slow path falls back.
  if (!ensure_subheap(idx)) return NvPtr::null();
  std::uint64_t offs[ThreadCache::kRefillBatch];
  Subheap::RefillResult r;
  {
    mpk::WriteWindow w(prot_.get());
    Guard<Spinlock> sg(subs_[idx]->lock);
    Subheap sh = subheap(idx);
    r = sh.alloc_batch(cls, want, offs, [&](std::uint64_t off) {
      tc.refill_append_locked(
          NvPtr::make(sb_->heap_id, static_cast<std::uint16_t>(idx), off));
    });
  }
  if (r.rolled_back || r.n == 0) {
    // The pops never committed (or nothing was popped): erase whatever
    // entries were staged so recovery has nothing stale to chew on.
    tc.refill_abort_locked();
    return NvPtr::null();
  }
  // The batch's undo commit fenced the staged entries; without a log
  // nothing else would.
  if (!opts_.use_undo_log) pmem::fence();
  tc.refill_publish_locked(cls);
  // Hand the caller one of the batch; the alloc path already counted this
  // call as a miss, so no hit is recorded for it.
  return tc.pop_locked(cls);
}

std::optional<FreeResult> PoolShard::cache_free(NvPtr ptr, unsigned idx) {
  // Validate first (read-only, under the sub-heap lock but without a write
  // window or undo log) so the cache preserves the paper's invalid- and
  // double-free detection.  A block cached by ANOTHER thread's magazine
  // still reads as allocated here; that cross-thread double free is only
  // caught when the other cache flushes — the metadata never corrupts.
  unsigned cls = 0;
  {
    Guard<Spinlock> g(subs_[idx]->lock);
    const auto c = subheap(idx).classify(ptr.offset());
    if (c.result != FreeResult::kOk) return c.result;
    cls = c.size_class;
  }
  if (!ThreadCache::cacheable(cls)) return std::nullopt;
  ThreadCache& tc = cache_for_thread();
  bool flush = false;
  {
    Guard<Spinlock> g(tc.mu());
    switch (tc.push_locked(ptr, cls)) {
      case ThreadCache::PushResult::kDoubleFree:
        return FreeResult::kDoubleFree;
      case ThreadCache::PushResult::kFull:
        return std::nullopt;  // log exhausted: slow validated free
      case ThreadCache::PushResult::kCached:
        break;
    }
    flush = tc.over_watermark_locked(cls);
  }
  if (flush) cache_flush(tc, cls);
  return FreeResult::kOk;
}

void PoolShard::cache_flush(ThreadCache& tc, unsigned cls) {
  NvPtr ptrs[ThreadCache::kMagazineCap];
  std::uint32_t lis[ThreadCache::kMagazineCap];
  unsigned n = 0;
  {
    Guard<Spinlock> g(tc.mu());
    n = tc.flush_take_locked(cls, ThreadCache::kMagazineCap / 2, ptrs, lis);
  }
  if (n == 0) return;
  // Group by owning sub-heap so each gets one batched (single-commit) free.
  bool done[ThreadCache::kMagazineCap] = {};
  for (unsigned i = 0; i < n; ++i) {
    if (done[i]) continue;
    const unsigned idx = ptrs[i].subheap();
    std::uint64_t offs[ThreadCache::kMagazineCap];
    unsigned cnt = 0;
    for (unsigned j = i; j < n; ++j) {
      if (!done[j] && ptrs[j].subheap() == idx) {
        offs[cnt++] = ptrs[j].offset();
        done[j] = true;
      }
    }
    mpk::WriteWindow w(prot_.get());
    Guard<Spinlock> sg(subs_[idx]->lock);
    (void)subheap(idx).free_batch(offs, cnt);
    flight(obs::FlightOp::kCacheFlush, idx, static_cast<std::uint16_t>(cls),
           cnt);
  }
  metrics_->cache_flushes.inc();
  Guard<Spinlock> g(tc.mu());
  tc.flush_erase_locked(lis, n);
}

void* PoolShard::raw(NvPtr ptr) const noexcept {
  if (ptr.is_null() || ptr.heap_id != sb_->heap_id) return nullptr;
  const unsigned idx = ptr.subheap();
  if (idx >= sb_->nsubheaps || ptr.offset() >= sb_->user_size) return nullptr;
  return base() + sb_->user_region_off + idx * sb_->user_size + ptr.offset();
}

NvPtr PoolShard::from_raw(const void* p) const noexcept {
  if (!contains(p)) return NvPtr::null();
  const auto rel = static_cast<std::uint64_t>(
      static_cast<const std::byte*>(p) - (base() + sb_->user_region_off));
  const unsigned idx = static_cast<unsigned>(rel / sb_->user_size);
  return NvPtr::make(sb_->heap_id, static_cast<std::uint16_t>(idx),
                     rel % sb_->user_size);
}

bool PoolShard::contains(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  // Bound by the end of the user data, not file_size: the file tail is
  // padded for huge-page alignment, and an address in that padding would
  // otherwise let from_raw fabricate an NvPtr with an out-of-range
  // sub-heap index.
  return b >= base() + sb_->user_region_off &&
         b < base() + sb_->user_region_off + sb_->nsubheaps * sb_->user_size;
}

std::pair<const void*, std::size_t> PoolShard::user_range() const noexcept {
  return {base() + sb_->user_region_off,
          static_cast<std::size_t>(sb_->nsubheaps * sb_->user_size)};
}

NvPtr PoolShard::root() const noexcept {
  std::lock_guard<std::mutex> lk(admin_mu_);
  return sb_->root;
}

void PoolShard::set_root(NvPtr ptr) {
  if (pool_.read_only()) {
    throw Error(ErrorCode::kInvalidArgument,
                pool_.path() + ": heap is open read-only");
  }
  std::lock_guard<std::mutex> lk(admin_mu_);
  mpk::WriteWindow w(prot_.get());
  // The 16-byte root cannot be stored atomically; undo-log it so a crash
  // mid-update preserves the old root (paper §2.2 requires the root be
  // always recoverable).
  UndoLogger undo(sb_->undo_gen, sb_->undo, base(), opts_.use_undo_log,
                  metrics_);
  undo.save_obj(sb_->root);
  undo.seal();
  POSEIDON_CRASH_POINT("root.after_log");
  pmem::nv_store(sb_->root, ptr);
  // The commit writes the root back; without a log nothing else would.
  if (!opts_.use_undo_log) pmem::persist(&sb_->root, sizeof(NvPtr));
  POSEIDON_CRASH_POINT("root.before_commit");
  undo.commit();
}

mpk::ProtectMode PoolShard::protect_mode() const noexcept {
  return prot_ != nullptr ? prot_->mode() : mpk::ProtectMode::kNone;
}

HeapStats PoolShard::stats() const {
  HeapStats s;
  s.nsubheaps = sb_->nsubheaps;
  s.user_capacity = user_capacity();
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    const auto st = pmem::nv_load_acquire(sb_->subheap_state[i]);
    if (st == kSubheapQuarantined || st == kSubheapRepairing) {
      ++s.subheaps_quarantined;
      continue;
    }
    if (st != kSubheapReady) continue;
    Guard<Spinlock> g(subs_[i]->lock);
    const SubheapMeta* m = meta_of(i);
    s.live_blocks += m->live_blocks;
    s.free_blocks += m->free_blocks;
    s.allocated_bytes += m->allocated_bytes;
    s.splits += m->stat_splits;
    s.merges += m->stat_merges;
    s.window_merges += m->stat_window_merges;
    s.hash_extensions += m->stat_extensions;
    s.hash_shrinks += m->stat_shrinks;
    ++s.subheaps_materialized;
  }
  // The metrics-derived cache hit/miss/flush counters are heap-wide (the
  // registry is shared across shards); the front-end fills them in once.
  for (const auto& c : caches_) {
    Guard<Spinlock> g(c->mu());
    const ThreadCache::Stats cs = c->stats_locked();
    s.cache_cached_blocks += cs.cached_blocks;
    // Cached blocks read as allocated in the sub-heap counters but are
    // really available inventory; report them as free.
    s.live_blocks -= cs.cached_blocks;
    s.free_blocks += cs.cached_blocks;
    s.allocated_bytes -= cs.cached_bytes;
  }
  return s;
}

std::pair<void*, std::size_t> PoolShard::metadata_region() const noexcept {
  return {base(), sb_->meta_size};
}

std::pair<void*, std::size_t> PoolShard::crashsim_region() const noexcept {
  return {base(), sb_->flight_off};
}

bool PoolShard::check_invariants(std::string* why) const {
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    if (!subheap_ready(i)) continue;
    Guard<Spinlock> g(subs_[i]->lock);
    Subheap sh = subheap(i);
    std::string reason;
    if (!sh.check_invariants(&reason)) {
      if (why != nullptr) {
        *why = "subheap " + std::to_string(i) + ": " + reason;
      }
      return false;
    }
  }
  return true;
}

void PoolShard::recover() {
  // Paper §5.8.  Runs before the protection domain exists (plain RW
  // mapping) and before the heap is registered, so it is single-threaded.
  UndoLogger::replay(sb_->undo_gen, sb_->undo, base());
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    if (!subheap_ready(i)) continue;
    subheap(i).recover_undo();
    flight(obs::FlightOp::kRecover, i, 0, 0);
  }
  // Micro logs: a non-empty log is an uncommitted transaction; free every
  // address it allocated.  The validated free path makes replay idempotent
  // (already-freed entries are rejected as double frees).
  for (unsigned i = 0; i < sb_->nsubheaps; ++i) {
    if (!subheap_ready(i)) continue;
    MicroLog& micro = meta_of(i)->micro;
    const std::uint64_t n = micro_count(micro);
    for (std::uint64_t k = 0; k < n; ++k) {
      const NvPtr e = micro.entries[k];
      if (e.heap_id != sb_->heap_id || e.subheap() >= sb_->nsubheaps) continue;
      if (!subheap_ready(e.subheap())) continue;
      Subheap sh = subheap(e.subheap());
      (void)sh.free_block(e.offset());
      POSEIDON_CRASH_POINT("recover.after_micro_free");
    }
    if (n != 0) micro_truncate(micro);
  }
  // Cache logs: every logged block was parked in a volatile magazine that
  // died with the crash.  Hand each back through the validated free path
  // (idempotent: already-free entries are rejected) and clear the slot.
  // Slot clears are idempotent (a re-replayed entry bounces off the
  // validated free path), so one fence covers every cleared slot.
  pmem::FlushBatch batch;
  for (unsigned s = 0; s < sb_->cache_slots; ++s) {
    CacheLogSlot* slot = cache_slot(s);
    bool any = false;
    for (std::size_t k = 0; k < kCacheLogCap; ++k) {
      const NvPtr e = slot->entries[k];
      if (e.is_null()) continue;
      any = true;
      if (e.heap_id != sb_->heap_id || e.subheap() >= sb_->nsubheaps) continue;
      if (!subheap_ready(e.subheap())) continue;
      (void)subheap(e.subheap()).free_block(e.offset());
      POSEIDON_CRASH_POINT("recover.after_cache_free");
    }
    if (any) {
      pmem::nv_memset(slot->entries, 0, sizeof(slot->entries));
      batch.add(slot->entries, sizeof(slot->entries));
    }
  }
  batch.commit();
}

}  // namespace poseidon::core
