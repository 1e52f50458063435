// Crash-state exploration (--crashcheck, DESIGN.md "Crash-state
// exploration").
//
// For each operation family the harness runs ONE live operation against a
// single-shard heap while the crashcheck recorder captures its
// persistence-event stream over the recovery surface (crashsim_region():
// superblock + shadow + sub-heap metadata + hash tables + cache logs).
// The explorer then enumerates fence-level crash images offline; every
// distinct image is materialized into the heap file (with the owner
// record aged so the reopen takes over instead of refusing kHeapBusy),
// reopened through normal recovery, and audited against the slot-table
// model:
//
//   * prior publications must survive every image, payloads intact;
//   * the op's own effect may be absent at mid-op instants (rolled back)
//     but MUST be present at the final instant — the op returned, so
//     everything it promised durable must be durable;
//   * leaked blocks are tolerated mid-op (bounded leak, same contract as
//     the kill torture) but are violations at the final instant;
//   * strict fsck and the structural invariants must hold everywhere.
//
// The flush lint runs over the same traces: a line still dirty (or
// flushed-but-unfenced) when the op returns is a missing persist at its
// last store (flush) site; a flush of a clean line is a wasted
// write-back.  `--cc-sabotage N` elides the Nth persist() of the recorded
// op (`sweep` tries them all) and demands that BOTH the explorer and the
// lint catch the hole — the self-test that keeps the checker honest.
// A violation shrinks to a minimal lost-line set and is saved as a replay
// file; `--replay FILE` re-runs exactly that state.

#include <fstream>
#include <functional>

#include "core/layout.hpp"
#include "core/snapshot.hpp"
#include "crashcheck/explorer.hpp"
#include "crashcheck/lint.hpp"
#include "crashcheck/recorder.hpp"
#include "crashcheck/replay.hpp"
#include "torture.hpp"

namespace poseidon::torture {

namespace {

enum class CcOp {
  kTxPublish,     // tx_alloc -> persist payload -> persist slot -> tx_commit
  kTxBatch,       // tx_alloc_batch of 4, all published
  kFreeSlot,      // persist cleared slot, then free
  kCacheAlloc,    // magazine-hit publish (warmed cache)
  kCacheRefill,   // magazine-miss publish (cold cache: refill batch)
  kCacheFree,     // free into a magazine (cache log append)
  kRoot,          // set_root to an already-published block
  kSnapFull,      // online snapshot (neutral: must not perturb recovery)
  kSnapIncr,      // incremental snapshot after a full one
};

struct CcFamily {
  const char* name;
  int variant;        // distinguishes size variants of one op
  CcOp op;
  std::uint64_t size; // payload size for the op's own block (0 = n/a)
  bool cache;         // thread_cache on for this heap
};

constexpr CcFamily kCcFamilies[] = {
    {"alloc", 0, CcOp::kTxPublish, 48, false},
    {"alloc", 1, CcOp::kTxPublish, 512, false},
    {"alloc", 2, CcOp::kTxPublish, 2000, false},
    {"batch", 0, CcOp::kTxBatch, 96, false},
    {"free", 0, CcOp::kFreeSlot, 512, false},
    {"cache-alloc", 0, CcOp::kCacheAlloc, 64, true},
    {"cache-refill", 0, CcOp::kCacheRefill, 64, true},
    {"cache-free", 0, CcOp::kCacheFree, 64, true},
    {"root", 0, CcOp::kRoot, 256, false},
    {"snapshot", 0, CcOp::kSnapFull, 0, false},
    {"snapshot-incr", 0, CcOp::kSnapIncr, 0, false},
};

constexpr std::uint64_t kCcCapacity = 4ull << 20;
constexpr std::uint64_t kCcSlots = 16;   // in-heap slot table entries
constexpr unsigned kCcPrior = 4;         // publications that predate the op

struct CcSlot {
  NvPtr ptr;
  std::uint64_t tag = 0;
  std::uint64_t size = 0;
};

// Everything one recorded family run needs to rebuild and audit images.
struct CcRun {
  const Cfg* cfg = nullptr;
  CcFamily fam{};
  std::string label;
  std::string hpath;
  std::string snapdir;
  core::Options opts;
  std::uint64_t region = 0;            // crashsim region size
  std::vector<std::byte> file_bytes;   // whole post-op heap file
  NvPtr table;                         // slot table block
  std::vector<CcSlot> prior;           // must survive every image
  std::vector<CcSlot> targets;         // the op's publications
  CcSlot freed;                        // kFreeSlot / kCacheFree target
  NvPtr root_old, root_new;            // kRoot
  std::uint64_t sab_nth = 0;           // elided persist (0 = none)
  crashcheck::Trace trace;
};

void cc_unlink(const CcRun& run) {
  (void)::unlink(run.hpath.c_str());
  if (!run.snapdir.empty()) remove_dir(run.snapdir);
}

// Run setup + the recorded op for one family.  On success run->trace
// holds the event stream and run->file_bytes the whole post-op file.
bool cc_record(const Cfg& cfg, const CcFamily& fam, std::uint64_t sab_nth,
               CcRun* run) {
  run->cfg = &cfg;
  run->fam = fam;
  run->sab_nth = sab_nth;
  run->label = std::string(fam.name) + "/" + std::to_string(fam.variant);
  run->hpath = cfg.path + ".cc";
  run->snapdir = (fam.op == CcOp::kSnapFull || fam.op == CcOp::kSnapIncr)
                     ? cfg.path + ".ccsnap"
                     : std::string();
  Cfg one;
  one.shards = 1;  // the recorder watches one contiguous region
  run->opts = base_opts(one);
  // Volatile flight ring: its traffic is diagnostic, not part of the
  // recovery contract the explorer perturbs.
  run->opts.flight = obs::FlightMode::kVolatile;
  run->opts.thread_cache = fam.cache;
  cc_unlink(*run);

  // In-heap slot table (user region — outside the traced surface, so slot
  // writes cost no events but keep the publish protocol faithful).
  std::unique_ptr<Heap> heap =
      create_heap(run->hpath, kCcCapacity, run->opts, kCcSlots, cfg.seed);
  if (heap == nullptr) return fail("crashcheck %s: setup", run->label.c_str());
  run->table = heap->root();
  SlotRec* slots = slots_of(static_cast<SlotTable*>(heap->raw(run->table)));

  // Deterministic per-family stream so --replay can re-derive the exact
  // same workload from (family, variant, seed).
  std::uint64_t x = cfg.seed ^ hash_bytes(fam.name, std::strlen(fam.name)) ^
                    static_cast<std::uint64_t>(fam.variant);
  unsigned si = 0;
  for (unsigned i = 0; i < kCcPrior; ++i) {
    const std::uint64_t tag = splitmix(x) | 1;
    const std::uint64_t size = 32 + splitmix(x) % 1500;
    const CcSlot s{tx_publish(*heap, slots[si++], tag, size), tag, size};
    if (s.ptr.is_null()) return fail("crashcheck %s: prior publish",
                                     run->label.c_str());
    run->prior.push_back(s);
  }

  // Family-specific setup (everything here predates the recording).
  std::string since_manifest;
  switch (fam.op) {
    case CcOp::kFreeSlot:
    case CcOp::kCacheFree: {
      const std::uint64_t tag = splitmix(x) | 1;
      run->freed = {tx_publish(*heap, slots[si], tag, fam.size), tag, fam.size};
      if (run->freed.ptr.is_null()) {
        return fail("crashcheck %s: target publish", run->label.c_str());
      }
      break;
    }
    case CcOp::kCacheAlloc: {
      // Warm the magazine so the recorded alloc is a pure cache hit.
      const NvPtr w = heap->alloc(fam.size);
      if (w.is_null()) return fail("crashcheck %s: warm", run->label.c_str());
      (void)heap->free(w);
      break;
    }
    case CcOp::kSnapIncr: {
      const core::SnapshotReport rep = heap->snapshot(run->snapdir);
      since_manifest = rep.manifest_path;
      // Dirty a page so the incremental has something to copy.
      const std::uint64_t tag = splitmix(x) | 1;
      const CcSlot s{tx_publish(*heap, slots[si++], tag, 128), tag, 128};
      if (s.ptr.is_null()) return fail("crashcheck %s: dirtier",
                                       run->label.c_str());
      run->prior.push_back(s);
      break;
    }
    default:
      break;
  }

  // Record exactly one operation.
  const auto [rbase, rsize] = heap->crashsim_region();
  run->region = rsize;
  crashcheck::Recorder rec(rbase, rsize);
  rec.begin(run->label);
  if (sab_nth != 0) pmem::arm_persist_sabotage(sab_nth);
  bool op_ok = true;
  std::string op_err;
  try {
    switch (fam.op) {
      case CcOp::kTxPublish: {
        const std::uint64_t tag = splitmix(x) | 1;
        const CcSlot s{tx_publish(*heap, slots[si], tag, fam.size), tag,
                       fam.size};
        op_ok = !s.ptr.is_null();
        if (op_ok) run->targets.push_back(s);
        break;
      }
      case CcOp::kTxBatch: {
        std::uint64_t sizes[4];
        NvPtr out[4];
        std::uint64_t tags[4];
        for (unsigned i = 0; i < 4; ++i) {
          tags[i] = splitmix(x) | 1;
          sizes[i] = fam.size + 32 * i;
        }
        const unsigned got = heap->tx_alloc_batch(sizes, 4, out);
        op_ok = got == 4;
        for (unsigned i = 0; op_ok && i < 4; ++i) {
          publish(heap->raw(out[i]), out[i], slots[si + i], tags[i], sizes[i]);
          run->targets.push_back({out[i], tags[i], sizes[i]});
        }
        heap->tx_commit();
        break;
      }
      case CcOp::kFreeSlot:
      case CcOp::kCacheFree: {
        op_ok = heap->free(unpublish(slots[si])) == core::FreeResult::kOk;
        break;
      }
      case CcOp::kCacheAlloc:
      case CcOp::kCacheRefill: {
        const std::uint64_t tag = splitmix(x) | 1;
        const NvPtr p = heap->alloc(fam.size);
        op_ok = !p.is_null();
        if (op_ok) {
          publish(heap->raw(p), p, slots[si], tag, fam.size);
          run->targets.push_back({p, tag, fam.size});
        }
        break;
      }
      case CcOp::kRoot: {
        run->root_old = run->table;
        run->root_new = run->prior[0].ptr;
        heap->set_root(run->root_new);
        break;
      }
      case CcOp::kSnapFull: {
        (void)heap->snapshot(run->snapdir);
        break;
      }
      case CcOp::kSnapIncr: {
        (void)heap->snapshot_incremental(run->snapdir, since_manifest);
        break;
      }
    }
  } catch (const std::exception& e) {
    op_ok = false;
    op_err = e.what();
  }
  if (sab_nth != 0) pmem::disarm_persist_sabotage();
  run->trace = rec.end();
  if (!op_ok) {
    return fail("crashcheck %s: op failed%s%s", run->label.c_str(),
                op_err.empty() ? "" : ": ", op_err.c_str());
  }

  // kRoot leaves the root pointing away from the table; put it back so
  // the post-run heap file stays inspectable.  The recorded trace is
  // already captured, so this mutation is invisible to the explorer.
  if (fam.op == CcOp::kRoot) heap->set_root(run->table);
  heap.reset();  // clean close

  // Whole-file snapshot: images rewrite [0, region) from the trace and
  // keep the tail (flight rings + user data) from the completed run —
  // user payloads never change after the op, so the tail is
  // instant-independent.
  std::ifstream f(run->hpath, std::ios::binary | std::ios::ate);
  run->file_bytes.resize(f ? static_cast<std::size_t>(f.tellg()) : 0);
  if (!f.seekg(0).read(reinterpret_cast<char*>(run->file_bytes.data()),
                       static_cast<std::streamsize>(run->file_bytes.size()))) {
    return fail("crashcheck %s: read back the heap file", run->label.c_str());
  }
  if (run->file_bytes.size() < run->region) {
    return fail("crashcheck %s: file smaller than the traced region",
                run->label.c_str());
  }
  return true;
}

// Materialize one crash image into the heap file and audit it through a
// normal recovery open.  Returns empty on pass, else the violation.
std::string cc_audit_image(const CcRun& run,
                           const std::vector<std::byte>& img,
                           bool final_instant) {
  std::vector<std::byte> buf = run.file_bytes;
  std::memcpy(buf.data(), img.data(), img.size());
  // Age the owner record: the image carries our own live stamp, and a
  // same-pid reopen must classify it as a stale incarnation (takeover),
  // not as kHeapBusy.  The owner csum is self-contained, so this cannot
  // mask real superblock damage.
  auto* sb = reinterpret_cast<core::SuperBlock*>(buf.data());
  if (sb->magic == core::kSuperMagic && sb->owner.pid != 0) {
    sb->owner.start_time += 1;
    sb->owner.csum = core::owner_csum(sb->owner);
  }
  {
    // In place: the file keeps its size, so nothing past the image moves.
    std::fstream f(run.hpath, std::ios::binary | std::ios::in | std::ios::out);
    if (!f.write(reinterpret_cast<const char*>(buf.data()),
                 static_cast<std::streamsize>(buf.size()))) {
      return "materialize: write failed";
    }
  }

  std::unique_ptr<Heap> h;
  try {
    h = Heap::open(run.hpath, run.opts);
  } catch (const std::exception& e) {
    return std::string("recovery refused the image: ") + e.what();
  }
  std::string why;
  if (!h->check_invariants(&why)) return "invariants after recovery: " + why;
  LiveSet live;
  if (!live_blocks(*h, &live, &why)) return why;
  if (live.erase(key_of(run.table)) != 1) return "slot table block lost";
  for (std::size_t i = 0; i < run.prior.size(); ++i) {
    const CcSlot& s = run.prior[i];
    if (live.erase(key_of(s.ptr)) != 1) {
      return "prior publication " + std::to_string(i) +
             " not allocated after recovery";
    }
    if (!payload_matches(h->raw(s.ptr), s.size, s.tag)) {
      return "prior publication " + std::to_string(i) + " payload corrupt";
    }
  }
  switch (run.fam.op) {
    case CcOp::kTxPublish:
    case CcOp::kTxBatch:
    case CcOp::kCacheAlloc:
    case CcOp::kCacheRefill:
      for (std::size_t i = 0; i < run.targets.size(); ++i) {
        const CcSlot& tgt = run.targets[i];
        const auto it = live.find(key_of(tgt.ptr));
        if (it != live.end()) {
          if (!payload_matches(h->raw(tgt.ptr), tgt.size, tgt.tag)) {
            return "published payload " + std::to_string(i) + " corrupt";
          }
          live.erase(it);
        } else if (final_instant) {
          return "committed publish " + std::to_string(i) +
                 " lost (block not allocated after recovery)";
        }
      }
      break;
    case CcOp::kFreeSlot:
    case CcOp::kCacheFree: {
      const auto it = live.find(key_of(run.freed.ptr));
      if (it != live.end()) {
        if (final_instant) {
          return "completed free still allocated after recovery";
        }
        live.erase(it);  // mid-op: a bounded leak recovery may keep briefly
      }
      break;
    }
    case CcOp::kRoot: {
      const bool old_r = key_of(h->root()) == key_of(run.root_old);
      const bool new_r = key_of(h->root()) == key_of(run.root_new);
      if (!old_r && !new_r) return "root is neither the old nor the new value";
      if (final_instant && !new_r) return "committed set_root lost";
      break;
    }
    case CcOp::kSnapFull:
    case CcOp::kSnapIncr:
      break;
  }
  if (final_instant && !live.empty()) {
    return std::to_string(live.size()) +
           " block(s) leaked after a completed op";
  }
  const std::string dirty = fsck_dirty(h->fsck());
  if (!dirty.empty()) return "fsck not clean after recovery " + dirty;
  if (!h->check_invariants(&why)) return "invariants after fsck: " + why;
  return {};
}

// Forked verification (--cc-fork): a recovery crash (not just a wrong
// answer) is contained in the child and reported as a violation.
std::string cc_audit(const CcRun& run, const std::vector<std::byte>& img,
                     bool final_instant) {
  if (!run.cfg->cc_fork) return cc_audit_image(run, img, final_instant);
  int pfd[2];
  if (::pipe(pfd) != 0) return "audit fork: pipe failed";
  Children kids;
  const pid_t pid = kids.spawn([&] {
    const std::string why = cc_audit_image(run, img, final_instant);
    (void)!::write(pfd[1], why.data(), why.size());
    ::_exit(why.empty() ? 0 : 1);
  });
  ::close(pfd[1]);
  if (pid < 0) {
    ::close(pfd[0]);
    return "audit fork failed";
  }
  std::string why;
  char tmp[512];
  ssize_t n;
  while ((n = ::read(pfd[0], tmp, sizeof tmp)) > 0) {
    why.append(tmp, static_cast<std::size_t>(n));
  }
  ::close(pfd[0]);
  const int st = kids.wait(pid);
  if (WIFSIGNALED(st)) {
    return "recovery crashed with signal " + std::to_string(WTERMSIG(st));
  }
  if (WIFEXITED(st) && WEXITSTATUS(st) == 0) return {};
  return why.empty() ? "audit child failed without a reason" : why;
}

// Human name for a lost line's home within the metadata region.
std::string cc_segment_name(const CcRun& run, std::uint32_t line) {
  const std::uint64_t off = std::uint64_t{line} * kCacheLineSize;
  const auto* sb =
      reinterpret_cast<const core::SuperBlock*>(run.file_bytes.data());
  if (off < sizeof(core::SuperBlock)) return "superblock";
  if (off >= core::super_shadow_off() &&
      off < core::super_shadow_off() + core::kPageSize) {
    return "super-shadow";
  }
  // Per-sub-heap arrays, each running up to the next one's start.
  const struct {
    const char* name;
    std::uint64_t lo, hi, stride;
  } arrays[] = {
      {"subheap_meta", sb->subheap_meta_off, sb->hash_region_off,
       sb->subheap_meta_stride},
      {"hash", sb->hash_region_off, sb->cache_log_off, sb->hash_region_stride},
      {"cache_log", sb->cache_log_off, sb->flight_off, sb->cache_log_stride},
  };
  for (const auto& a : arrays) {
    if (off >= a.lo && off < a.hi) {
      return std::string(a.name) + "[" + std::to_string((off - a.lo) / a.stride) + "]";
    }
  }
  return "(gap)";
}

// Prints v; with `save`, also writes its replay file and returns the path
// ("" when nothing was saved).
std::string cc_report_violation(const Cfg& cfg, const CcRun& run,
                                const crashcheck::Violation& v, bool save) {
  std::fprintf(stderr,
               "VIOLATION %s at instant %zu%s: %s\n  lost lines:",
               v.label.c_str(), v.instant,
               v.final_instant ? " (final)" : "", v.why.c_str());
  for (const std::uint32_t l : v.lost) {
    std::fprintf(stderr, " %u(%s)", l, cc_segment_name(run, l).c_str());
  }
  std::fprintf(stderr, "\n");
  if (!save) return {};
  crashcheck::ReplayFile rf;
  rf.family = run.fam.name;
  rf.variant = run.fam.variant;
  rf.seed = cfg.seed;
  rf.sabotage = run.sab_nth;
  rf.label = v.label;
  rf.instant = v.instant;
  rf.lost = v.lost;
  for (const std::uint32_t l : v.lost) {
    rf.segments.emplace_back(l, cc_segment_name(run, l));
  }
  rf.why = v.why;
  const std::string out =
      cfg.cc_out.empty() ? cfg.path + ".replay" : cfg.cc_out;
  std::string err;
  if (!rf.save(out, &err)) {
    std::fprintf(stderr, "replay save failed: %s\n", err.c_str());
    return {};
  }
  std::fprintf(stderr, "replay saved: %s\n", out.c_str());
  return out;
}

crashcheck::ExploreConfig cc_explore_cfg(const Cfg& cfg) {
  return {.exhaustive_max = cfg.cc_exhaustive, .random_tail = cfg.cc_rand,
          .seed = cfg.seed, .budget = cfg.cc_budget};
}

// --replay FILE: re-run the named family with the recorded seed and
// re-verify exactly the saved (instant, lost) state.
int cc_run_replay(const Cfg& cfg) {
  crashcheck::ReplayFile rf;
  std::string err;
  if (!crashcheck::ReplayFile::load(cfg.cc_replay, &rf, &err)) {
    fail("replay load: %s", err.c_str());
    return 2;
  }
  const CcFamily* fam = nullptr;
  for (const CcFamily& f : kCcFamilies) {
    if (rf.family == f.name && rf.variant == f.variant) fam = &f;
  }
  if (fam == nullptr) {
    fail("replay names unknown family %s/%d", rf.family.c_str(), rf.variant);
    return 2;
  }
  Cfg c2 = cfg;
  c2.seed = rf.seed;
  CcRun run;
  if (!cc_record(c2, *fam, rf.sabotage, &run)) return 1;
  crashcheck::Explorer ex(cc_explore_cfg(c2));
  const std::string why = ex.replay(run.trace, rf.instant, rf.lost,
                                    std::bind_front(cc_audit, std::cref(run)));
  if (!cfg.keep) cc_unlink(run);
  if (why.empty()) {
    std::printf("replay %s instant %zu: PASS (image verifies clean)\n",
                rf.label.c_str(), rf.instant);
    return 0;
  }
  std::printf("replay %s instant %zu: VIOLATION reproduced: %s\n",
              rf.label.c_str(), rf.instant, why.c_str());
  return 1;
}

// --cc-sabotage: elide the Nth persist() of the alloc op (or sweep all of
// them) and demand BOTH detectors catch the hole.
int cc_run_sabotage(const Cfg& cfg) {
  const CcFamily& fam = kCcFamilies[0];  // alloc/0: the canonical publish
  std::uint64_t lo = 1, hi = 1;
  if (cfg.cc_sabotage > 0) {
    lo = hi = static_cast<std::uint64_t>(cfg.cc_sabotage);
  } else {
    // Sweep bound: one clean recording counts the op's persists (each
    // persist contributes exactly one fence; explicit fences only add
    // slack to the bound).
    CcRun probe;
    if (!cc_record(cfg, fam, 0, &probe)) return 1;
    hi = probe.trace.fence_count();
    cc_unlink(probe);
    if (hi == 0) {
      fail("sabotage sweep: the op recorded no fences");
      return 1;
    }
  }
  for (std::uint64_t nth = lo; nth <= hi; ++nth) {
    CcRun run;
    if (!cc_record(cfg, fam, nth, &run)) return 1;
    const crashcheck::LintReport lint = crashcheck::lint_trace(run.trace);
    const std::uint64_t missing =
        lint.count(crashcheck::LintKind::kMissingFlush) +
        lint.count(crashcheck::LintKind::kMissingFence);
    crashcheck::Explorer ex(cc_explore_cfg(cfg));
    std::vector<crashcheck::Violation> viols;
    const crashcheck::ExploreStats st = ex.explore(
        run.trace, std::bind_front(cc_audit, std::cref(run)), &viols);
    std::printf("sabotage nth=%" PRIu64 ": lint missing=%" PRIu64
                " explorer violations=%" PRIu64 " (distinct=%" PRIu64 ")\n",
                nth, missing, st.violations, st.distinct);
    if (missing > 0 && !viols.empty()) {
      const std::string out =
          cc_report_violation(cfg, run, viols[0], /*save=*/true);
      std::printf("PASS: elided persist #%" PRIu64
                  " caught by both the lint and the explorer\n", nth);
      if (!cfg.keep) {
        cc_unlink(run);
        // The planted violation's replay file was expected; only one the
        // caller asked for by name (--cc-out) outlives a pass.
        if (cfg.cc_out.empty() && !out.empty()) (void)::unlink(out.c_str());
      }
      return 0;
    }
    if (!cfg.keep) cc_unlink(run);
  }
  fail("sabotage: no elided persist was caught by BOTH detectors");
  return 1;
}

}  // namespace

int run_crashcheck(Cfg& cfg) {
  if (!cfg.cc_replay.empty()) return cc_run_replay(cfg);
  if (cfg.cc_sabotage != 0) return cc_run_sabotage(cfg);

  crashcheck::Explorer ex(cc_explore_cfg(cfg));  // run-wide image dedup
  crashcheck::LintReport lint_all;
  std::uint64_t viol_total = 0;
  std::string replay;  // the first saved violation's replay file
  CcRun run;  // after the loop: the last family's, stamped below

  for (const CcFamily& fam : kCcFamilies) {
    if (!run.hpath.empty() && !cfg.keep) cc_unlink(run);
    run = CcRun{};
    if (!cc_record(cfg, fam, 0, &run)) return 1;
    std::vector<crashcheck::Violation> viols;
    const crashcheck::ExploreStats st = ex.explore(
        run.trace, std::bind_front(cc_audit, std::cref(run)), &viols);
    crashcheck::lint_merge(&lint_all, crashcheck::lint_trace(run.trace));
    std::printf("crashcheck %-14s events=%-6zu fences=%-4zu instants=%-5" PRIu64
                " at-risk<=%-3" PRIu64 " distinct=%-6" PRIu64 " viol=%" PRIu64
                "%s\n",
                run.label.c_str(), run.trace.events.size(),
                run.trace.fence_count(), st.instants, st.max_at_risk,
                st.distinct, st.violations, st.truncated != 0 ? " (budget)" : "");
    for (const crashcheck::Violation& v : viols) {
      const std::string out = cc_report_violation(cfg, run, v, replay.empty());
      if (replay.empty()) replay = out;
    }
    viol_total += st.violations;
  }

  // Lint verdict over every recorded trace.
  const std::uint64_t missing_flush =
      lint_all.count(crashcheck::LintKind::kMissingFlush);
  const std::uint64_t missing_fence =
      lint_all.count(crashcheck::LintKind::kMissingFence);
  for (const crashcheck::LintFinding& f : lint_all.findings) {
    if (f.kind == crashcheck::LintKind::kUntrackedStore) continue;
    std::printf("lint %-15s x%-5" PRIu64 " line %-6u at %s\n",
                crashcheck::lint_kind_name(f.kind), f.count, f.first_line,
                crashcheck::describe_site(f.site).c_str());
  }
  std::printf("crashcheck: %" PRIu64 " distinct persistent states, %" PRIu64
              " violation(s); lint: missing-flush=%" PRIu64
              " missing-fence=%" PRIu64 " redundant-flush=%" PRIu64
              " untracked-lines=%" PRIu64 "\n",
              ex.distinct_total(), viol_total, missing_flush, missing_fence,
              lint_all.count(crashcheck::LintKind::kRedundantFlush),
              lint_all.count(crashcheck::LintKind::kUntrackedStore));

  // Stamp the surviving heap file so a postmortem shows how much
  // exploration it lived through (flight event + counters).
  try {
    core::Options o = run.opts;
    o.flight = obs::FlightMode::kPersistent;
    auto h = Heap::open(run.hpath, o);
    h->note_flight(obs::FlightOp::kCrashCheck, ex.distinct_total());
#if POSEIDON_OBS_ENABLED
    h->metrics_mut().crashcheck_states.inc(ex.distinct_total());
    h->metrics_mut().crashcheck_violations.inc(viol_total);
#endif
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crashcheck stamp: %s\n", e.what());
  }
  if (!cfg.keep) cc_unlink(run);

  const bool ok = viol_total == 0 && missing_flush == 0 && missing_fence == 0;
  if (!ok) cfg.cc_replay = replay;  // the REPRODUCE line reruns that state
  std::printf("%s: crashcheck seed=%" PRIu64 "\n", ok ? "PASS" : "FAIL",
              cfg.seed);
  return ok ? 0 : 1;
}

}  // namespace poseidon::torture
