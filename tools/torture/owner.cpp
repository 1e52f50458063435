// Owner kill rounds (the default mode) and the online-snapshot kill matrix
// (--snapshot): a forked child owns the heap read-write and churns the
// slot table until it is SIGKILLed (or dies at a snapshot crash point);
// the parent proves exclusion while it lives and recovery after.

#include <poll.h>

#include <atomic>
#include <filesystem>
#include <sstream>

#include "core/layout.hpp"
#include "core/snapshot.hpp"
#include "pmem/crashpoint.hpp"
#include "pmem/fault_inject.hpp"
#include "torture.hpp"

namespace poseidon::torture {

namespace {

// ---- worker child ----------------------------------------------------------

// Same clause format as POSEIDON_FAULT, parsed here because the env var is
// read once per process and the parent (which must stay fault-free) has
// already consumed that read before the fork.
void arm_child_faults(const std::string& spec) {
  static const char* const kOps[pmem::fault::kSysOpCount] = {
      "open", "mmap", "ftruncate", "fstat", "fallocate"};  // SysOp order
  std::istringstream in(spec);
  for (std::string clause; std::getline(in, clause, ',');) {
    char op[16];
    long period = 0;
    long err = 0;
    if (std::sscanf(clause.c_str(), "%15[^:]:%ld:%ld", op, &period, &err) != 3 ||
        period <= 0 || err <= 0) {
      continue;  // malformed clauses are skipped, as for POSEIDON_FAULT
    }
    for (unsigned i = 0; i < pmem::fault::kSysOpCount; ++i) {
      if (std::strcmp(op, kOps[i]) != 0) continue;
      pmem::fault::arm_every(static_cast<pmem::fault::SysOp>(i),
                             static_cast<std::uint64_t>(period),
                             static_cast<int>(err));
    }
  }
}

// Pauses the workers around each snapshot call: slot and payload stores
// are raw stores that do not pass through the allocator's locks, so the
// application must stop its own writers for a payload-exact cut (the
// allocator's metadata cut needs no such help — DESIGN.md).
struct Gate {
  std::atomic<bool> pause{false};
  std::atomic<unsigned> paused{0};

  // Stop every worker at its loop top: no open transaction, no half-written
  // slot, every publish persisted — the exact state the image must show.
  void close(unsigned nthreads) {
    pause = true;
    while (paused != nthreads) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void open() {
    pause = false;
    pause.notify_all();
  }
  void wait_if_closed() {
    if (!pause) return;
    ++paused;
    pause.wait(true);
    --paused;
  }
};

// One worker thread: random publish/unpublish over its slot range plus
// cached scratch churn, until the parent's SIGKILL lands.
[[noreturn]] void worker(Heap* heap, SlotRec* slots, std::uint64_t n,
                         std::uint64_t x, Gate* gate) {
  for (;;) {
    gate->wait_if_closed();
    try {
      const std::uint64_t r = splitmix(x);
      SlotRec& s = slots[r % n];
      if (s.tag == 0) {
        const std::uint64_t tag = splitmix(x) | 1;
        if (tx_publish(*heap, s, tag, size_for_tag(tag)).is_null()) continue;
      } else {
        // A kill between the clear and the free leaves an unreferenced
        // live block — a leak the audit reclaims — never a slot pointing
        // at freed (reusable) memory, which would be an ABA false diff.
        (void)heap->free(unpublish(s));
      }
      if (r % 4 == 0) {
        // Scratch churn through the thread cache; a kill between the pair
        // leaks the block (reclaimed and reported by the audit).
        const NvPtr q = heap->alloc(16 + splitmix(x) % 1024);
        if (!q.is_null()) {
          *static_cast<unsigned char*>(heap->raw(q)) = 0x5a;
          (void)heap->free(q);
        }
      }
    } catch (const std::exception&) {
      // Only reachable with --fault armed; keep hammering.
    }
  }
}

// The round's child: open read-write, handshake 'O', churn from every
// thread.  With a snapshot plan it also takes a full then an incremental
// snapshot (handshake 'S'), or dies at the armed crash point inside one.
[[noreturn]] void child_main(const Cfg& cfg, std::uint64_t seed, int hs_fd,
                             const char* crash_point,
                             std::uint64_t crash_nth) {
  if (!cfg.fault.empty()) arm_child_faults(cfg.fault);
  core::Options o = base_opts(cfg);
  o.thread_cache = true;  // cache logs must survive the kill (and the image)
  std::unique_ptr<Heap> heap;
  try {
    heap = Heap::open(cfg.path, o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "child: open failed: %s\n", e.what());
    ::_exit(2);
  }
  SlotTable* table = as_table(heap->raw(heap->root()), cfg.nslots());
  if (table == nullptr) {
    std::fprintf(stderr, "child: slot table missing or malformed\n");
    ::_exit(3);
  }
  // Handshake AFTER the open: the parent uses this byte as proof that every
  // shard is locked and stamped with our pid.
  const char ok = 'O';
  (void)!::write(hs_fd, &ok, 1);

  Gate gate;
  const std::uint64_t per = cfg.slots_per_thread;
  std::vector<std::thread> ws;
  ws.reserve(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) {
    ws.emplace_back(worker, heap.get(), slots_of(table) + t * per, per,
                    seed ^ (0x9e37ull * (t + 1)), &gate);
  }
  if (cfg.snapshot) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));  // build state
    gate.close(cfg.threads);
    if (crash_point != nullptr) {
      pmem::crash_arm(crash_point, crash_nth, pmem::CrashAction::kExit);
      try {
        (void)heap->snapshot(snap_dir(cfg));
      } catch (const std::exception&) {
      }
      ::_exit(7);  // the armed point must have _exit(42)ed before here
    }
    try {
      (void)heap->snapshot(snap_dir(cfg));
      gate.open();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.close(cfg.threads);
      (void)heap->snapshot_incremental(snap_dir(cfg),
                                       snap_dir(cfg) + "/MANIFEST");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "snap child: snapshot failed: %s\n", e.what());
      ::_exit(8);
    }
    gate.open();
    const char done = 'S';
    (void)!::write(hs_fd, &done, 1);
  }
  for (auto& w : ws) w.join();  // workers never return; SIGKILL ends us
  ::_exit(0);
}

// ---- parent-side checks ----------------------------------------------------

// The round's handshake pipe; the child writes one byte per milestone.
struct Handshake {
  int fd[2] = {-1, -1};  // left at -1 when pipe() fails
  Handshake() { (void)!::pipe(fd); }
  ~Handshake() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
  Handshake(const Handshake&) = delete;
  Handshake& operator=(const Handshake&) = delete;

  void close_write() { ::close(std::exchange(fd[1], -1)); }
  // The next byte is `want`, arriving within timeout_ms (0: already there).
  bool expect(char want, int timeout_ms) {
    struct pollfd p {fd[0], POLLIN, 0};
    int rc;
    while ((rc = ::poll(&p, 1, timeout_ms)) < 0 && errno == EINTR) {}
    char c = 0;
    return rc > 0 && ::read(fd[0], &c, 1) == 1 && c == want;
  }
};

// A read-only open (which coexists with a live writer and mutates
// nothing) must find `pid`'s owner stamp on the superblock.
bool stamped_by(const Cfg& cfg, pid_t pid, const std::string& what) {
  try {
    const std::uint64_t owner =
        Heap::open(cfg.path, base_opts(cfg, true))->shard(0)->owner().pid;
    return owner == static_cast<std::uint64_t>(pid) ||
           fail("%s: owner pid %" PRIu64 ", expected %d", what.c_str(), owner,
                static_cast<int>(pid));
  } catch (const std::exception& e) {
    return fail("%s: read-only open failed: %s", what.c_str(), e.what());
  }
}

// While the child lives: a second writer must bounce with kHeapBusy and a
// reader must coexist, seeing the child's owner stamp.
bool verify_exclusion(const Cfg& cfg, pid_t child) {
  try {
    auto h = Heap::open(cfg.path, base_opts(cfg));
    return fail("concurrent read-write open SUCCEEDED against a live owner");
  } catch (const std::exception& e) {
    if (code_of(e) != ErrorCode::kHeapBusy) {
      return fail("concurrent open: expected heap-busy, got: %s", e.what());
    }
  }
  return stamped_by(cfg, child, "read-only open beside live writer");
}

// Reopen after the kill: the dead child's stamp is superseded by ours, then
// the slot audit under *a's kill-round policy, and a clean close.
bool check_round(const Cfg& cfg, pid_t child, bool handshook,
                 std::uint64_t round, Audit* a, std::uint64_t* takeovers) {
  // Media-level evidence first: before recovery runs, the dead child's
  // stamp must still be on the superblock (read-only opens don't mutate).
  if (handshook &&
      !stamped_by(cfg, child, "round " + std::to_string(round) +
                                  ": dead child's owner stamp")) {
    return false;
  }

  std::unique_ptr<Heap> heap;
  try {
    heap = Heap::open(cfg.path, base_opts(cfg));
  } catch (const std::exception& e) {
    return fail("round %" PRIu64 ": reopen after kill failed: %s", round,
                e.what());
  }

  *takeovers = heap->metrics().owner_takeovers.read();
#if POSEIDON_OBS_ENABLED
  if (handshook) {
    if (*takeovers != cfg.shards) {
      return fail("round %" PRIu64 ": expected %u owner takeovers, got %" PRIu64,
                  round, cfg.shards, *takeovers);
    }
    if (flight_count(*heap, {obs::FlightOp::kOwnerTakeover}) == 0) {
      return fail("round %" PRIu64 ": no owner-takeover flight event", round);
    }
  }
#endif
  if (heap->shard(0)->owner().pid != static_cast<std::uint64_t>(::getpid())) {
    return fail("round %" PRIu64 ": reopened heap not stamped with our pid",
                round);
  }

  if (!audit_slots(*heap, cfg.nslots(), a)) return false;
  SlotTable* table = as_table(heap->raw(heap->root()), cfg.nslots());
  table->round = round;
  pmem::persist(table, sizeof *table);
  return true;  // ~Heap seals and clears the owner record
}

// A crash-armed round's directory must be refused wholesale.
bool check_snapshot_refused(const Cfg& cfg, std::uint64_t round,
                            const char* point) {
  const std::string dir = snap_dir(cfg);
  if (std::filesystem::exists(dir + "/MANIFEST")) {
    return fail("round %" PRIu64 ": manifest exists after a kill at %s",
                round, point);
  }
  const std::string head = snap_head(cfg);
  const bool head_exists = std::filesystem::exists(head);
  try {
    auto h = Heap::open(head, base_opts(cfg, true));
    return fail("round %" PRIu64 ": half-written snapshot (killed at %s) "
                "opened successfully",
                round, point);
  } catch (const std::exception& e) {
    // Before the head image exists any failure will do; once it is on disk
    // its zeroed magic must make the refusal a crisp "not a pool".
    if (head_exists && code_of(e) != ErrorCode::kNotAPool) {
      return fail("round %" PRIu64 ": expected not-a-pool for the "
                  "uncommitted image, got: %s",
                  round, e.what());
    }
  }
  return true;
}

// A committed round's image: manifest sane and O(dirty), read-only open
// works, and a writable open (which replays the image's cache logs) passes
// the slot audit with zero diffs — the writers were paused, so there is no
// torn or aborted slot to excuse — then strict fsck.
bool check_snapshot_image(const Cfg& cfg, std::uint64_t round,
                          std::uint64_t* pages, std::uint64_t* published) {
  const std::string dir = snap_dir(cfg);
  core::SnapshotManifest man;
  try {
    man = core::read_snapshot_manifest(dir + "/MANIFEST");
  } catch (const std::exception& e) {
    return fail("round %" PRIu64 ": snapshot manifest: %s", round, e.what());
  }
  if (!man.incremental) {
    return fail("round %" PRIu64 ": manifest should record the incremental "
                "update, found a full snapshot",
                round);
  }
  if (man.shard_count != cfg.shards || man.shards.size() != cfg.shards) {
    return fail("round %" PRIu64 ": manifest shard count %u/%zu, want %u",
                round, man.shard_count, man.shards.size(), cfg.shards);
  }
  std::uint64_t full_pages = 0;
  *pages = 0;
  for (const auto& s : man.shards) {
    *pages += s.pages_copied;
    full_pages += s.size / core::kPageSize;
  }
  if (*pages == 0 || *pages >= full_pages) {
    return fail("round %" PRIu64 ": incremental copied %" PRIu64 " of %"
                PRIu64 " pages — dirty tracking is not O(dirty)",
                round, *pages, full_pages);
  }

  const std::string head = snap_head(cfg);
  if (!image_opens(cfg, head, cfg.nslots(), "round " + std::to_string(round))) {
    return false;
  }
  try {
    auto h = Heap::open(head, base_opts(cfg));
    // Leftovers are the child's scratch and magazine-parked remainders.
    Audit a{.where = "round " + std::to_string(round) + " image",
            .reclaim_leaks = true};
    if (!audit_slots(*h, cfg.nslots(), &a)) return false;
    *published = a.published;
  } catch (const std::exception& e) {
    return fail("round %" PRIu64 ": committed image writable open: %s",
                round, e.what());
  }
  return true;
}

class OwnerScenario final : public Scenario {
 public:
  using Scenario::Scenario;

 private:
  Audit total_;

  bool setup() override {
    // Closed again at once: the owner record is cleared for round 1.
    return create_heap(cfg.path, cfg.capacity, base_opts(cfg), cfg.nslots(),
                       cfg.seed) != nullptr;
  }

  bool round(std::uint64_t r) override {
    // The kill schedule: plain rounds SIGKILL at a seeded delay, some
    // racing the open itself; snapshot rounds cycle the crash point,
    // commit first so short runs still audit an image.
    static const char* const kPoints[4] = {nullptr, "snap.quiesce",
                                           "snap.copy", "snap.manifest"};
    if (cfg.snapshot) remove_dir(snap_dir(cfg));
    const std::uint64_t child_seed = rng();
    bool race_open = false;
    unsigned delay_us = 0;
    const char* point = nullptr;
    if (!cfg.snapshot) {
      race_open = rng() % 5 == 0;
      delay_us = static_cast<unsigned>(rng() % (race_open ? 15000 : 40000));
    } else {
      point = kPoints[(r - 1) % 4];
    }
    // "snap.copy" fires per shard; the second hit kills with the head image
    // already on disk (zeroed magic) — the interesting half-written state.
    const std::uint64_t nth =
        point != nullptr && std::strcmp(point, "snap.copy") == 0 &&
                cfg.shards > 1
            ? 2
            : 1;

    Handshake hs;
    if (hs.fd[0] < 0) return fail("pipe: %s", std::strerror(errno));
    const pid_t pid = kids.spawn([&] {
      child_main(cfg, child_seed, hs.fd[1], point, nth);
    });
    if (pid < 0) return fail("fork: %s", std::strerror(errno));
    hs.close_write();

    bool handshook = false;
    bool ok = true;
    if (!race_open) {
      handshook = hs.expect('O', 30000);
      ok = handshook ? verify_exclusion(cfg, pid)
                     : fail("round %" PRIu64 ": child never opened the heap", r);
    }
    Audit a{.where = "round " + std::to_string(r),
            .excuse_torn = true,
            .reclaim_leaks = true,
            .strict_fsck = cfg.fault.empty()};
    std::uint64_t snap_pages = 0;
    std::uint64_t snap_published = 0;
    if (!cfg.snapshot) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      const int status = kids.kill(pid, SIGKILL);
      // With faults armed the child may have died on its own; that is
      // fine — it still leaves a stamped owner and half-done work behind.
      if (!race_open && ok && cfg.fault.empty() &&
          !(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
        ok = fail("round %" PRIu64 ": child exited on its own (status 0x%x)",
                  r, status);
      }
      if (race_open) handshook = hs.expect('O', 0);  // did the open win?
    } else if (ok && point != nullptr) {
      const int status = kids.wait(pid);
      ok = WIFEXITED(status) && WEXITSTATUS(status) == 42
               ? check_snapshot_refused(cfg, r, point)
               : fail("round %" PRIu64 ": child did not die at %s "
                      "(status 0x%x)", r, point, status);
    } else if (ok) {
      ok = hs.expect('S', 30000)
               ? check_snapshot_image(cfg, r, &snap_pages, &snap_published)
               : fail("round %" PRIu64 ": snapshot child never committed", r);
    }
    if (cfg.snapshot) (void)kids.kill(pid, SIGKILL);  // reaps it either way
    // Either way the child died owning the heap: the source must recover
    // exactly like any other kill.
    std::uint64_t takeovers = 0;
    if (!ok || !check_round(cfg, pid, handshook, r, &a, &takeovers)) return false;
    if (cfg.snapshot) {
      std::printf("round %3" PRIu64 ": %-13s survivors=%-4" PRIu64
                  " aborted=%-3" PRIu64 " leaks=%-3" PRIu64 " torn=%-2" PRIu64
                  " snap_pages=%-5" PRIu64 " published=%" PRIu64 "\n",
                  r, point != nullptr ? point : "committed", a.published,
                  a.aborted, a.leaks, a.torn, snap_pages, snap_published);
    } else {
      std::printf("round %3" PRIu64 ": kill@%5uus%s  survivors=%-4" PRIu64
                  " aborted=%-3" PRIu64 " leaks=%-3" PRIu64 " torn=%-2" PRIu64
                  " takeovers=%" PRIu64 "\n",
                  r, delay_us, race_open ? " (racing open)" : "              ",
                  a.published, a.aborted, a.leaks, a.torn, takeovers);
    }
    total_.published = a.published;  // point-in-time, not cumulative
    total_.aborted += a.aborted;
    total_.leaks += a.leaks;
    total_.torn += a.torn;
    return true;
  }

  bool finish() override {
    std::printf("PASS: %" PRIu64 " rounds (surviving=%" PRIu64 " aborted=%"
                PRIu64 " leaks=%" PRIu64 " torn=%" PRIu64 "), seed=%" PRIu64
                "\n",
                cfg.rounds, total_.published, total_.aborted, total_.leaks,
                total_.torn, cfg.seed);
    return true;
  }
};

}  // namespace

std::unique_ptr<Scenario> owner_scenario(const Cfg& cfg) {
  return std::make_unique<OwnerScenario>(cfg);
}

}  // namespace poseidon::torture
