// Allocation-service torture (--svc): clients die (reclaim), the server
// dies (--kill-server: failover), or both die in one window (--kill-both:
// the successor's start-sweep).

#include "pmem/shm.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "torture.hpp"

namespace poseidon::torture {

namespace {

constexpr unsigned kSvcInflight = 8;  // unconsumed completions per victim
constexpr unsigned kSvcHeldClaims = 3;

// f(header, sessions) over the heap's public svc segment; false while the
// segment is absent or not yet initialised.
template <class F>
bool read_segment(const std::string& heap_path, F f) {
  try {
    pmem::ShmSegment seg =
        pmem::ShmSegment::attach(svc::svc_path(heap_path), true);
    const svc::SvcHeader* h = svc::header_of(seg.data());
    return h->magic == svc::kSvcMagic && f(*h, svc::sessions_of(seg.data()));
  } catch (const std::exception&) {
    return false;
  }
}

// The svc segment's server identity; false while no serving server has
// published one.
bool serving_incumbent(const std::string& heap_path, pid_t* pid,
                       std::uint64_t* gen) {
  return read_segment(heap_path, [&](const svc::SvcHeader& h,
                                     const svc::SessionSlot*) {
    if (h.state.load(std::memory_order_acquire) !=
        static_cast<std::uint32_t>(svc::SvcState::kServing)) {
      return false;
    }
    *pid = static_cast<pid_t>(h.server_pid);
    *gen = h.generation;
    return true;
  });
}

// True while an active session of `pid` sits in the segment (in phase 2
// when asked: the svc victim's in-flight handles and wedged claims).
bool session_of(const std::string& heap_path, pid_t pid, bool phase2) {
  return read_segment(heap_path, [&](const svc::SvcHeader& h,
                                     const svc::SessionSlot* s) {
    for (unsigned i = 0; i < h.nsessions; ++i) {
      if (s[i].state.load(std::memory_order_acquire) == svc::kSessActive &&
          s[i].pid == static_cast<std::uint64_t>(pid) &&
          (!phase2 || s[i].phase.load(std::memory_order_acquire) == 2)) {
        return true;
      }
    }
    return false;
  });
}

// Connects, retrying for up to retry_ms (0: one attempt) while the
// service turns the session away; null, with *err, if it never takes it.
std::unique_ptr<svc::SvcClient> connect_svc(
    const Cfg& cfg, unsigned retry_ms, std::string* err,
    const svc::ClientOptions& co = {}) {
  std::unique_ptr<svc::SvcClient> c;
  (void)poll_until(retry_ms, 2, [&] {
    try {
      c = svc::SvcClient::connect(cfg.path, co);
    } catch (const std::exception& e) {
      *err = e.what();
    }
    return c != nullptr;
  });
  return c;
}

// The victim client: strictly synchronous batch traffic (every batch
// allocated, payload-verified, freed before the next — so it never *owns*
// a consumed handle), then the wedge: allocations whose completions it
// never dequeues (in-flight handles), submission slots it claims but never
// publishes (dead-producer wedge), phase 2 advertised, and a spin until
// the SIGKILL.
[[noreturn]] void svc_victim_main(const Cfg& cfg, std::uint64_t seed) {
  std::string err;
  const auto c = connect_svc(cfg, 0, &err);
  if (c == nullptr) {
    std::fprintf(stderr, "victim: connect failed: %s\n", err.c_str());
    ::_exit(2);
  }
  std::uint64_t x = seed;
  std::uint64_t sizes[4];
  NvPtr ptrs[4];
  core::FreeResult fr[4];
  for (unsigned it = 0; it < 40; ++it) {
    for (auto& sz : sizes) sz = 32 + splitmix(x) % 1024;
    if (c->alloc(sizes, 4, ptrs) != ErrorCode::kOk) ::_exit(3);
    for (unsigned i = 0; i < 4; ++i) {
      if (ptrs[i].is_null()) ::_exit(4);  // 32 MiB can't be exhausted here
      fill_payload(c->raw(ptrs[i]), sizes[i], seed ^ (it * 4 + i + 1));
      if (!payload_matches(c->raw(ptrs[i]), sizes[i], seed ^ (it * 4 + i + 1))) {
        ::_exit(5);
      }
    }
    if (c->free_blocks(ptrs, 4, fr) != ErrorCode::kOk) ::_exit(6);
    for (unsigned i = 0; i < 4; ++i) {
      if (fr[i] != core::FreeResult::kOk) ::_exit(7);
    }
  }
  c->set_phase(1);
  // In-flight handles: allocations whose completions are never dequeued.
  // The reclaimer must free every one of them.
  for (unsigned i = 0; i < kSvcInflight; ++i) {
    if (c->submit_alloc_no_wait_for_test(64 + 32 * i) != ErrorCode::kOk) {
      ::_exit(8);
    }
  }
  // Die mid-submit: claimed-but-never-published slots wedge the ring until
  // the server proves us dead and discards them.
  if (c->hold_claims_for_test(kSvcHeldClaims) != kSvcHeldClaims) ::_exit(9);
  c->set_phase(2);
  for (;;) ::pause();  // SIGKILL lands here
}

bool svc_probe_roundtrip(svc::SvcClient& probe, std::uint64_t tag) {
  if (probe.ping() != ErrorCode::kOk) return fail("survivor ping failed");
  std::uint64_t sizes[2] = {96, 512};
  NvPtr ptrs[2];
  if (probe.alloc(sizes, 2, ptrs) != ErrorCode::kOk) {
    return fail("survivor alloc failed");
  }
  for (unsigned i = 0; i < 2; ++i) {
    if (ptrs[i].is_null()) return fail("survivor alloc exhausted");
    fill_payload(probe.raw(ptrs[i]), sizes[i], tag + i);
    if (!payload_matches(probe.raw(ptrs[i]), sizes[i], tag + i)) {
      return fail("survivor payload mismatch");
    }
  }
  core::FreeResult fr[2];
  if (probe.free_blocks(ptrs, 2, fr) != ErrorCode::kOk ||
      fr[0] != core::FreeResult::kOk || fr[1] != core::FreeResult::kOk) {
    return fail("survivor free failed");
  }
  return true;
}

// Waits for a serving server of generation >= min_gen: its pid and gen.
bool wait_serving(const Cfg& cfg, unsigned timeout_ms, std::uint64_t min_gen,
                  pid_t* pid, std::uint64_t* gen) {
  return poll_until(timeout_ms, 2, [&] {
    return serving_incumbent(cfg.path, pid, gen) && *gen >= min_gen;
  });
}

volatile sig_atomic_t g_svc_term = 0;
void svc_term_handler(int) { g_svc_term = 1; }

// A forked server candidate.  A loser (another candidate won the heap's
// owner lock first) exits 2; the winner serves until SIGTERM.
[[noreturn]] void server_main(const Cfg& cfg) {
  struct sigaction sa {};
  sa.sa_handler = svc_term_handler;
  (void)::sigaction(SIGTERM, &sa, nullptr);
  try {
    svc::ServerOptions so;
    so.heap_opts = base_opts(cfg);
    so.create_capacity = cfg.capacity;
    auto server = svc::SvcServer::start(cfg.path, so);
    while (g_svc_term == 0) ::usleep(2000);
    server->stop();
  } catch (...) {
    ::_exit(2);
  }
  ::_exit(0);
}

// The control session: the slot table is built in heap user memory
// through the service and published as the root.  *gen: the serving
// generation.
bool svc_create_table(const Cfg& cfg, std::uint64_t* gen) {
  std::string err;
  const auto ctl = connect_svc(cfg, 10000, &err);
  if (ctl == nullptr) return fail("control connect: %s", err.c_str());
  const std::uint64_t bytes = table_bytes(cfg.nslots());
  NvPtr t;
  if (ctl->alloc(&bytes, 1, &t) != ErrorCode::kOk || t.is_null()) {
    return fail("slot table allocation through the service failed");
  }
  init_table(ctl->raw(t), cfg.nslots(), cfg.seed);
  if (ctl->set_root(t) != ErrorCode::kOk) {
    return fail("set_root through the service failed");
  }
  *gen = ctl->generation();
  return true;
}

SlotTable* client_table(svc::SvcClient& c, const Cfg& cfg) {
  NvPtr root;
  if (c.get_root(&root) != ErrorCode::kOk || root.is_null()) return nullptr;
  return as_table(c.raw(root), cfg.nslots());
}

// One step of slot traffic through a client: publish into an empty slot
// (the handle is recorded only after alloc_one returns it, so
// reconcile-on-failover keeps alloc/slot exact) or check and unpublish a
// full one (a free cut down by a failover is replayed idempotently).  With
// `churn`, every 4th step also cycles a scratch block through the
// magazines.  Null on success, else what failed.
const char* client_step(svc::SvcClient& c, SlotRec* slots, std::uint64_t n,
                        std::uint64_t& x, bool churn) {
  const std::uint64_t r = splitmix(x);
  SlotRec& s = slots[r % n];
  ErrorCode e = ErrorCode::kOk;
  if (s.tag == 0) {
    const std::uint64_t tag = splitmix(x) | 1;
    const std::uint64_t size = size_for_tag(tag);
    const NvPtr p = c.alloc_one(size, &e);
    if (e != ErrorCode::kOk || p.is_null()) return "publish failed";
    publish(c.raw(p), p, s, tag, size);
  } else {
    if (!payload_matches(c.raw(s.ptr), 8, s.tag)) {
      return "published payload rotted";
    }
    if (c.free_one(unpublish(s)) != ErrorCode::kOk) return "unpublish failed";
  }
  if (churn && r % 4 == 0) {
    const NvPtr q = c.alloc_one(16 + splitmix(x) % 512, &e);
    if (e != ErrorCode::kOk || q.is_null()) return "scratch alloc failed";
    *static_cast<unsigned char*>(c.raw(q)) = 0x5a;
    if (c.free_one(q) != ErrorCode::kOk) return "scratch free failed";
  }
  return nullptr;
}

// Retires the serving server (SIGTERM, so the heap's owner record is
// released), takes the heap in-process and audits it exactly — no client
// died holding anything, so live blocks must be precisely {slot table} +
// {published slots}: zero leaks, zero double-allocs (two slots naming one
// block), zero double-frees (a re-freed block gets re-allocated under
// another slot and diffs there).  Counts the flight events of `ops` still
// in the ring.
bool exact_audit(Children& kids, const Cfg& cfg, const char* where,
                 [[maybe_unused]] std::initializer_list<obs::FlightOp> ops,
                 [[maybe_unused]] const char* events,
                 [[maybe_unused]] std::uint64_t min_events,
                 std::uint64_t* published) {
  pid_t last = -1;
  std::uint64_t last_gen = 0;
  if (wait_serving(cfg, 10000, 0, &last, &last_gen)) {
    (void)kids.kill(last, SIGTERM);
  }
  std::unique_ptr<Heap> heap;
  std::string err;
  (void)poll_until(10000, 2, [&] {
    try {
      heap = Heap::open(cfg.path, base_opts(cfg));
    } catch (const std::exception& e) {
      if (code_of(e) == ErrorCode::kHeapBusy) return false;
      err = e.what();
    }
    return true;
  });
  if (!err.empty()) return fail("audit open: %s", err.c_str());
  if (heap == nullptr) {
    return fail("heap still owned long after the final server was retired");
  }
  Audit a{.where = where};
  bool ok = audit_slots(*heap, cfg.nslots(), &a);
  *published = a.published;
#if POSEIDON_OBS_ENABLED
  const std::uint64_t seen = flight_count(*heap, ops);
  // Informational unless a minimum is set: the flight ring wraps under
  // heavy traffic, so old events may have been overwritten.
  std::printf("flight: %" PRIu64 " %s event(s) still in the ring\n", seen,
              events);
  if (ok && seen < min_events) {
    ok = fail("expected >= %" PRIu64 " %s flight events, found %" PRIu64,
              min_events, events, seen);
  }
#endif
  return ok;
}

// ---- client kills (--svc) --------------------------------------------------
//
// Each round forks a victim client and SIGKILLs it in phase 2.  The epoch
// reclaimer must free the session (discarding the wedged claims and every
// in-flight handle the victim provably never saw), the server must keep
// serving a surviving client, and at the end the heap's live_blocks is
// exactly zero (magazine-parked blocks are excluded by stats()).

class SvcScenario final : public Scenario {
 public:
  using Scenario::Scenario;

 private:
  std::unique_ptr<svc::SvcServer> server_;
  std::unique_ptr<svc::SvcClient> probe_;  // the survivor

  bool setup() override {
    svc::ServerOptions so;
    so.heap_opts = base_opts(cfg);
    so.create_capacity = cfg.capacity;
    try {
      server_ = svc::SvcServer::start(cfg.path, so);
      probe_ = svc::SvcClient::connect(cfg.path);
    } catch (const std::exception& e) {
      return fail("svc server start / probe connect: %s", e.what());
    }
    return true;
  }

  bool round(std::uint64_t r) override {
    const std::uint64_t reclaimed_before = server_->sessions_reclaimed();
    const std::uint64_t victim_seed = rng();
    const pid_t pid = kids.spawn([&] { svc_victim_main(cfg, victim_seed); });
    if (pid < 0) return fail("fork: %s", std::strerror(errno));
    if (!poll_until(30000, 1, [&] { return session_of(cfg.path, pid, true); })) {
      return fail("round %" PRIu64 ": timed out waiting for victim phase 2", r);
    }
    const int status = kids.kill(pid, SIGKILL);
    if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
      return fail("round %" PRIu64 ": victim exited on its own (status 0x%x)",
                  r, status);
    }
    // The reclaimer must notice the death, wait out the epoch grace, and
    // free the session.
    if (!poll_until(30000, 1, [&] {
          return server_->sessions_reclaimed() > reclaimed_before;
        })) {
      return fail("round %" PRIu64 ": timed out waiting for session reclaim",
                  r);
    }
    if (!svc_probe_roundtrip(*probe_, victim_seed)) return false;
    if (cfg.snapshot && !backup(r)) return false;
    std::printf("round %3" PRIu64 ": victim pid %-6d reclaimed "
                "(in-flight=%u held-claims=%u served=%" PRIu64 ")\n",
                r, static_cast<int>(pid), kSvcInflight, kSvcHeldClaims,
                server_->requests_served());
    return true;
  }

  // Online backup through the control op: full the first round, the
  // incremental path (proving the manifest baseline chain) after.
  bool backup(std::uint64_t r) {
    std::uint64_t pages = 0;
    const ErrorCode rc =
        probe_->snapshot(snap_dir(cfg), /*incremental=*/r > 1, &pages);
    if (rc != ErrorCode::kOk) {
      return fail("round %" PRIu64 ": svc snapshot failed (%d)", r,
                  static_cast<int>(rc));
    }
    if (pages == 0) return fail("round %" PRIu64 ": svc snapshot copied nothing", r);
    // The server's heap is registered in this very process, so the audit
    // stays read-only (a writable open would re-register the same heap
    // ids).  This heap has no slot table.
    return image_opens(cfg, snap_head(cfg), 0,
                       "round " + std::to_string(r) + " svc snapshot");
  }

  bool finish() override {
#if POSEIDON_OBS_ENABLED
    // The wedge was real: the server must have discarded the dead victims'
    // claimed-but-unpublished slots, every round.
    const std::uint64_t discarded =
        server_->heap().metrics().svc_claims_discarded.read();
    if (discarded < cfg.rounds * kSvcHeldClaims) {
      return fail("expected >= %" PRIu64 " discarded claims, saw %" PRIu64,
                  cfg.rounds * kSvcHeldClaims, discarded);
    }
#endif
    // Nothing leaked: victims owned no consumed handles at kill time, their
    // in-flight handles were freed by the reclaimer, and the survivor freed
    // everything it allocated.
    probe_.reset();  // clean disconnect
    const core::HeapStats st = server_->heap().stats();
    if (st.live_blocks != 0) {
      return fail("%" PRIu64 " block(s) leaked through the service "
                  "(orphans_reclaimed=%" PRIu64 ")",
                  st.live_blocks,
                  server_->heap().metrics().svc_orphans_reclaimed.read());
    }
    std::string why;
    if (!server_->heap().check_invariants(&why)) {
      return fail("invariants after svc torture: %s", why.c_str());
    }
    const std::uint64_t served = server_->requests_served();
    const std::uint64_t reclaimed = server_->sessions_reclaimed();
    server_->stop();
    std::printf("PASS: %" PRIu64 " svc rounds (served=%" PRIu64
                " reclaimed=%" PRIu64 "), seed=%" PRIu64 "\n",
                cfg.rounds, served, reclaimed, cfg.seed);
    return true;
  }
};

// ---- server kills (--svc --kill-server) ------------------------------------
//
// The clients are immortal and the server is the victim.  N worker
// processes run slot-table traffic through SvcClient with auto-failover;
// each round the parent SIGKILLs whichever process serves the segment and
// measures MTTR as the time until a fresh probe session round-trips a ping
// through the successor.  Workers detect the death, re-elect (forking
// replacement servers — the heap's OFD owner lock picks one winner),
// reconnect at the new generation and reconcile their in-flight handles,
// so the final audit is exact.

// Its existence tells the kill-server workers to wind down.
std::string stop_path(const Cfg& cfg) { return cfg.path + ".stop"; }

[[noreturn]] void kill_worker_main(const Cfg& cfg, unsigned rank,
                                   std::uint64_t seed) {
  // Election forks server candidates this worker never waits on; let the
  // kernel reap them (the parent kills them through the segment's pid).
  (void)::signal(SIGCHLD, SIG_IGN);
  svc::ClientOptions co;
  co.server_stale_ns = 150'000'000;       // call the kill fast
  co.reconnect_attempts = 2000;           // rides out back-to-back kills
  co.reconnect_backoff_ns = 1'000'000;
  co.reconnect_backoff_max_ns = 30'000'000;
  co.elect = [&cfg] {
    if (::fork() == 0) server_main(cfg);
  };
  std::string err;
  auto c = connect_svc(cfg, 10000, &err, co);
  if (c == nullptr) ::_exit(10);
  SlotTable* table = client_table(*c, cfg);
  if (table == nullptr) ::_exit(11);
  SlotRec* mine = slots_of(table) + rank * cfg.slots_per_thread;
  std::uint64_t x = seed;
  while (::access(stop_path(cfg).c_str(), F_OK) != 0) {
    if (const char* why = client_step(*c, mine, cfg.slots_per_thread, x, true)) {
      std::fprintf(stderr, "worker %u: %s\n", rank, why);
      ::_exit(13);
    }
  }
  if (c->flush_caches() != ErrorCode::kOk) ::_exit(20);
  c.reset();  // clean session close
  ::_exit(0);
}

class KillServerScenario final : public Scenario {
 public:
  using Scenario::Scenario;

 private:
  std::vector<pid_t> workers_;
  double mttr_sum_ms_ = 0.0;
  double mttr_max_ms_ = 0.0;

  bool setup() override {
    (void)::unlink(stop_path(cfg).c_str());
    if (kids.spawn([&] { server_main(cfg); }) < 0) {
      return fail("fork server: %s", std::strerror(errno));
    }
    std::uint64_t gen = 0;
    if (!svc_create_table(cfg, &gen)) return false;
    for (unsigned w = 0; w < cfg.threads; ++w) {
      const std::uint64_t seed = rng();
      const pid_t pid = kids.spawn([&] { kill_worker_main(cfg, w, seed); });
      if (pid < 0) return fail("fork worker: %s", std::strerror(errno));
      workers_.push_back(pid);
    }
    return true;
  }

  bool round(std::uint64_t r) override {
    // Let traffic flow so the kill lands mid-batch somewhere.
    std::this_thread::sleep_for(std::chrono::milliseconds(30 + rng() % 90));
    pid_t victim = -1;
    std::uint64_t gen = 0;
    if (!wait_serving(cfg, 30000, 0, &victim, &gen)) {
      return fail("round %" PRIu64 ": no serving incumbent to kill", r);
    }
    const auto t0 = std::chrono::steady_clock::now();
    // Reaped here when it is ours; workers' candidates are auto-reaped.
    (void)kids.kill(victim, SIGKILL);

    // MTTR: from the kill to the first fresh session whose ping round-trips
    // through a *successor* generation.
    const bool recovered = poll_until(60000, 2, [&] {
      pid_t cur = -1;
      std::uint64_t cur_gen = 0;
      if (!serving_incumbent(cfg.path, &cur, &cur_gen) || cur_gen <= gen) {
        return false;
      }
      try {
        svc::ClientOptions pco;
        pco.map_data = false;
        pco.auto_failover = false;  // the probe measures, never heals
        auto probe = svc::SvcClient::connect(cfg.path, pco);
        return probe->generation() > gen && probe->ping() == ErrorCode::kOk;
      } catch (const std::exception&) {
        return false;
      }
    });
    if (!recovered) {
      return fail("round %" PRIu64 ": service never recovered from the kill", r);
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    mttr_sum_ms_ += ms;
    if (ms > mttr_max_ms_) mttr_max_ms_ = ms;
    std::printf("round %3" PRIu64 ": killed server pid %-6d gen %" PRIu64
                " -> recovered in %7.1f ms\n",
                r, static_cast<int>(victim), gen, ms);
    return true;
  }

  bool finish() override {
    // Stop: workers flush their magazines and free-stashes through the ring
    // and close their sessions cleanly.
    if (std::FILE* f = std::fopen(stop_path(cfg).c_str(), "w")) std::fclose(f);
    bool ok = true;
    for (const pid_t w : workers_) {
      const int st = kids.wait(w);
      if (!(WIFEXITED(st) && WEXITSTATUS(st) == 0)) {
        ok = fail("worker pid %d failed (status 0x%x)", static_cast<int>(w), st);
      }
    }
    std::uint64_t published = 0;
    ok = exact_audit(kids, cfg, "after kill-server", {obs::FlightOp::kSvcFailover},
                     "svc-failover", 0, &published) && ok;
    (void)::unlink(stop_path(cfg).c_str());
    if (!ok) return false;
    std::printf("PASS: %" PRIu64 " server kills (published=%" PRIu64
                " mttr avg=%.1f ms max=%.1f ms), seed=%" PRIu64 "\n",
                cfg.rounds, published, mttr_sum_ms_ / cfg.rounds,
                mttr_max_ms_, cfg.seed);
    return true;
  }
};

// ---- kill-both (--svc --kill-both) -----------------------------------------
//
// The hardest reclaim story: a wedged victim client AND the serving server
// die in the same window — server FIRST, so no live reclaimer ever
// witnesses the client's death.  The next server's start-sweep must prove
// the old sessions dead from the stale segment alone: drain the victim's
// never-consumed completions (freeing those blocks if still owned) and
// reclaim the orphaned allocations past the session's consumed watermark
// (allocs the dead server committed but never published into the ring).
// A probe round-trip proves the service recovered; parent-driven slot
// traffic between kills keeps a persistent model alive for the exact
// final audit.

class KillBothScenario final : public Scenario {
 public:
  using Scenario::Scenario;

 private:
  pid_t server_ = -1;
  std::uint64_t gen_ = 0;

  bool setup() override {
    server_ = kids.spawn([&] { server_main(cfg); });
    if (server_ < 0) return fail("fork server: %s", std::strerror(errno));
    return svc_create_table(cfg, &gen_);
  }

  bool round(std::uint64_t r) override {
    const std::uint64_t vseed = rng();
    const pid_t vic = kids.spawn([&] { svc_victim_main(cfg, vseed); });
    if (vic < 0) return fail("fork victim: %s", std::strerror(errno));
    if (!poll_until(30000, 2, [&] { return session_of(cfg.path, vic, true); })) {
      return fail("round %" PRIu64 ": timed out waiting for victim phase 2", r);
    }
    // Server first — the live reclaimer must never see the client die.
    (void)kids.kill(server_, SIGKILL);
    const int vst = kids.kill(vic, SIGKILL);
    if (!(WIFSIGNALED(vst) && WTERMSIG(vst) == SIGKILL)) {
      return fail("round %" PRIu64 ": victim exited on its own (status 0x%x)",
                  r, vst);
    }

    // The successor's start-sweep must reclaim the dead pair's session.
    server_ = kids.spawn([&] { server_main(cfg); });
    if (server_ < 0) return fail("fork successor: %s", std::strerror(errno));
    // The dead server's header still reads kServing until the successor
    // takes over, so poll until the generation actually advances.
    pid_t now = -1;
    std::uint64_t now_gen = 0;
    if (!wait_serving(cfg, 30000, gen_ + 1, &now, &now_gen)) {
      return fail("round %" PRIu64 ": successor never served (gen %" PRIu64 ")",
                  r, now_gen);
    }
    gen_ = now_gen;
    if (session_of(cfg.path, vic, false)) {
      return fail("round %" PRIu64 ": dead victim's session survived the "
                  "start-sweep", r);
    }

    // Fresh probe: the service works, and the slot-table traffic keeps the
    // persistent model moving between kills.
    std::string err;
    auto probe = connect_svc(cfg, 0, &err);
    if (probe == nullptr) {
      return fail("round %" PRIu64 ": probe connect: %s", r, err.c_str());
    }
    if (!svc_probe_roundtrip(*probe, vseed)) return false;
    SlotTable* table = client_table(*probe, cfg);
    if (table == nullptr) return fail("round %" PRIu64 ": slot table lost", r);
    std::uint64_t x = vseed ^ 0xb0a710adull;
    for (unsigned step = 0; step < 3; ++step) {
      if (const char* why =
              client_step(*probe, slots_of(table), cfg.nslots(), x, false)) {
        return fail("round %" PRIu64 ": control %s", r, why);
      }
    }
    probe.reset();  // clean session close
    std::printf("round %3" PRIu64 ": killed server+client (victim %-6d) -> "
                "gen %" PRIu64 " swept and serving\n",
                r, static_cast<int>(vic), gen_);
    return true;
  }

  bool finish() override {
    // Dead victims owned nothing, so live blocks must be exactly the slot
    // table plus the parent's published slots.  Every round put one dead
    // session in front of the successor's start-sweep; the persistent
    // ring must still hold those markers.
    std::uint64_t published = 0;
    if (!exact_audit(kids, cfg, "after kill-both",
                     {obs::FlightOp::kSvcReclaim, obs::FlightOp::kOrphanReclaim},
                     "reclaim", cfg.rounds, &published)) {
      return false;
    }
    std::printf("PASS: %" PRIu64 " kill-both rounds (published=%" PRIu64
                "), seed=%" PRIu64 "\n",
                cfg.rounds, published, cfg.seed);
    return true;
  }
};

}  // namespace

std::unique_ptr<Scenario> svc_scenario(const Cfg& cfg) {
  if (cfg.kill_server) return std::make_unique<KillServerScenario>(cfg);
  if (cfg.kill_both) return std::make_unique<KillBothScenario>(cfg);
  return std::make_unique<SvcScenario>(cfg);
}

}  // namespace poseidon::torture
