// larson-tc: Larson cross-thread handoff (paper §7.3) at low heap fill with
// the thread cache on.  Its traced run also probes the allocation service's
// shared-memory rings (SvcClient::ping and batched SvcClient::alloc against
// a forked server), the one place the benchmark measures the svc layer.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/heap.hpp"
#include "layers.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace pb {

using poseidon::ErrorCode;
using poseidon::core::FreeResult;
using poseidon::core::Heap;
using poseidon::core::NvPtr;

namespace {

constexpr std::uint64_t kCapacity = 128ull << 20;
constexpr std::size_t kSlotsPerThread = 2048;
constexpr unsigned kFillRounds = 24;
constexpr unsigned kSlices = 20;
constexpr unsigned kTcThreads = 3;
// svc probe: its own small heap, and this many rounds of one ping plus one
// batched alloc of kMaxOpsPerReq blocks (freed in one batch).
constexpr std::uint64_t kSvcCapacity = 32ull << 20;
constexpr unsigned kSvcRounds = 2000;

poseidon::core::Options heap_options(const WindowSpec& spec) {
  poseidon::core::Options o;
  o.thread_cache = true;
  return window_options(spec, o);
}

struct HeapAlloc {
  Heap* h;
  void* alloc(std::size_t s) { return h->raw(h->alloc(s)); }
  bool free(void* p) { return h->free(h->from_raw(p)) == FreeResult::kOk; }
};

// The shared slot array plus the phases of a Larson run.
struct Larson {
  unsigned nthreads;
  std::vector<std::atomic<void*>> slots;
  std::vector<LarsonTally> tally;

  explicit Larson(unsigned n)
      : nthreads(n), slots(n * kSlotsPerThread), tally(n) {
    for (auto& s : slots) s.store(nullptr, std::memory_order_relaxed);
  }

  std::atomic<void*>* range(unsigned tid) {
    return slots.data() + tid * kSlotsPerThread;
  }

  // Fills every thread's own slot range; returns the fill rate (allocs/s).
  template <typename A>
  double fill(std::vector<A>& allocs, std::uint64_t seed) {
    return parallel_rate(nthreads, [&](unsigned tid) -> std::uint64_t {
      poseidon::Xoshiro256 rng = thread_rng(seed, tid);
      LarsonTally& t = tally[tid];
      std::atomic<void*>* mine = range(tid);
      for (std::size_t i = 0; i < kSlotsPerThread; ++i) {
        const std::size_t size =
            kLarsonMin + rng.next_below(kLarsonMax - kLarsonMin + 1);
        void* p = allocs[tid].alloc(size);
        ++t.ops;
        if (p == nullptr) {
          ++t.failed;
        } else {
          stamp_block(p, size, (std::uint64_t{tid} << 40) ^ ++t.seq);
        }
        mine[i].store(p, std::memory_order_relaxed);
      }
      return kSlotsPerThread;
    });
  }

  // Checks and frees every block in a slot range.
  template <typename A>
  static void drain_range(A& a, std::atomic<void*>* r, std::size_t n,
                          LarsonTally& t) {
    for (std::size_t i = 0; i < n; ++i) {
      void* p = r[i].exchange(nullptr, std::memory_order_relaxed);
      if (p == nullptr) continue;
      std::size_t sz = 0;
      if (!verify_and_poison(p, &sz)) ++t.bad_stamps;
      ++t.ops;
      if (!a.free(p)) ++t.bad_frees;
    }
  }

  template <typename A>
  void drain_parallel(std::vector<A>& allocs) {
    parallel_rate(nthreads, [&](unsigned tid) -> std::uint64_t {
      drain_range(allocs[tid], range(tid), kSlotsPerThread, tally[tid]);
      return kSlotsPerThread;
    });
  }

  // Fill/drain rounds (the load phase whose median rate is insert_per_s),
  // leaving the array filled for the window.
  template <typename A>
  double load(std::vector<A>& allocs, std::uint64_t seed) {
    std::vector<double> rates;
    for (unsigned round = 0; round < kFillRounds; ++round) {
      rates.push_back(fill(allocs, seed + round));
      if (round + 1 < kFillRounds) drain_parallel(allocs);
    }
    return median(std::move(rates));
  }

  // User bytes live in the slot array (read from the stamps' size field).
  std::uint64_t live_bytes() const {
    std::uint64_t b = 0;
    for (const auto& s : slots) {
      if (void* p = s.load(std::memory_order_relaxed)) {
        std::uint64_t head;
        std::memcpy(&head, p, sizeof head);
        b += head & 0xffff;
      }
    }
    return b;
  }

  LarsonTally total() const {
    LarsonTally s;
    for (const auto& t : tally) {
      s.ops += t.ops;
      s.failed += t.failed;
      s.bad_stamps += t.bad_stamps;
      s.bad_frees += t.bad_frees;
    }
    return s;
  }

  // Folds the tallies into the result: refused frees and overwritten
  // stamps are check failures, null allocations failed operations.
  void conclude(Result& r) const {
    const LarsonTally s = total();
    r.attempted += s.ops;
    r.failed += s.failed + s.bad_frees;
    if (s.bad_stamps != 0) {
      r.fail(std::to_string(s.bad_stamps) +
             " blocks had their stamp overwritten while live (overlap)");
    }
    if (s.bad_frees != 0) {
      r.fail(std::to_string(s.bad_frees) + " frees of live blocks refused");
    }
  }
};

void finish_drained(Result& r, const std::string& path,
                    const poseidon::core::Options& o) {
  double fsck_s = 0;
  std::unique_ptr<Heap> h = timed_reopen(path, o, r);
  std::string why;
  if (!check_drained(*h, &fsck_s, &why)) r.fail(why);
  r.set("recover.fsck_s", fsck_s);
}


volatile sig_atomic_t g_term = 0;
void on_term(int) { g_term = 1; }

// The forked allocation server: creates the heap and serves until SIGTERM.
// Never returns.
[[noreturn]] void server_child(const std::string& path,
                               const poseidon::core::Options& opts) {
  struct sigaction sa {};
  sa.sa_handler = on_term;
  (void)::sigaction(SIGTERM, &sa, nullptr);
  try {
    poseidon::svc::ServerOptions so;
    so.heap_opts = opts;
    so.create_capacity = kSvcCapacity;
    auto server = poseidon::svc::SvcServer::start(path, so);
    while (g_term == 0) ::usleep(1'000);
    server->stop();
    server.reset();
  } catch (...) {
    ::_exit(2);
  }
  ::_exit(0);
}

// A forked server, SIGKILLed and reaped under a timeout unless stopped.
class Server {
 public:
  Server(const std::string& path, const poseidon::core::Options& opts) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork allocation server");
    if (pid_ == 0) server_child(path, opts);
  }
  ~Server() {
    if (pid_ > 0) {
      (void)::kill(pid_, SIGKILL);
      int st = 0;
      (void)reap(pid_, 10, &st);
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // SIGTERM, then reap under a timeout; true when it exited cleanly.
  bool stop() {
    (void)::kill(pid_, SIGTERM);
    int st = 0;
    const bool reaped = reap(pid_, 30, &st);
    pid_ = -1;
    return reaped && WIFEXITED(st) && WEXITSTATUS(st) == 0;
  }

 private:
  pid_t pid_ = -1;
};

std::unique_ptr<poseidon::svc::SvcClient> connect(const std::string& path) {
  const std::uint64_t deadline = now_ns() + 20'000'000'000ull;
  for (;;) {
    try {
      return poseidon::svc::SvcClient::connect(path, {});
    } catch (const poseidon::Error& e) {
      if (now_ns() > deadline ||
          (e.poseidon_code() != ErrorCode::kSvcUnavailable &&
           e.poseidon_code() != ErrorCode::kSvcRetry)) {
        throw;
      }
      ::usleep(1'000);
    }
  }
}

// The svc probe of the traced run: one client session against a forked
// server, kSvcRounds rounds of a timed ping and a timed batched alloc whose
// blocks are stamped, checked and freed in one batch.  Every call is
// synchronous (one request in flight), so the probe times the ring round
// trip itself.
void svc_probe(const WindowSpec& spec, Result& r) {
  const std::string path = spec.dir + "/svc.heap";
  const poseidon::core::Options opts = heap_options(spec);
  constexpr unsigned kN = poseidon::svc::kMaxOpsPerReq;
  Window w(1, true, spec.seed);
  Server server(path, opts);
  std::unique_ptr<poseidon::svc::SvcClient> c = connect(path);
  LarsonTally t;
  const bool ok = w.run(0, 0, 0.01, [&](unsigned) {
    poseidon::Xoshiro256 rng = thread_rng(spec.seed ^ 0x5c, 0);
    ThreadRec& rec = w.rec(0);
    for (unsigned round = 0; round < kSvcRounds; ++round) {
      ++t.ops;
      if (rec.timed(kPing, [&] { return c->ping(); }) != ErrorCode::kOk) ++t.failed;
      std::uint64_t sizes[kN];
      NvPtr out[kN];
      FreeResult res[kN];
      for (auto& s : sizes) s = kLarsonMin + rng.next_below(kLarsonMax - kLarsonMin + 1);
      t.ops += 2 * kN;
      if (rec.timed(kBatchAlloc, [&] { return c->alloc(sizes, kN, out); }) !=
          ErrorCode::kOk) {
        t.failed += 2 * kN;
        continue;
      }
      for (unsigned i = 0; i < kN; ++i) {
        void* p = c->raw(out[i]);
        if (p != nullptr) stamp_block(p, sizes[i], (std::uint64_t{round} << 8) | i);
      }
      for (unsigned i = 0; i < kN; ++i) {
        std::size_t sz = 0;
        void* p = c->raw(out[i]);
        if (p != nullptr && !verify_and_poison(p, &sz)) ++t.bad_stamps;
      }
      if (c->free_blocks(out, kN, res) != ErrorCode::kOk) {
        t.failed += kN;
        continue;
      }
      for (unsigned i = 0; i < kN; ++i) {
        if (out[i].is_null()) ++t.failed;
        else if (res[i] != FreeResult::kOk) ++t.bad_frees;
      }
    }
  });
  if (!ok) r.fail("svc probe: " + w.error());
  save_spans(spec, w);
  r.set("svc.ping_p50_ns", w.quantile_all(kPing, 0.5));
  r.set("svc.ping_p99_ns", w.quantile_all(kPing, 0.99));
  r.set("svc.batch_alloc_p50_ns", w.quantile_all(kBatchAlloc, 0.5));
  r.attempted += t.ops;
  r.failed += t.failed + t.bad_frees;
  if (t.bad_stamps != 0) {
    r.fail(std::to_string(t.bad_stamps) + " svc blocks overlapped within a batch");
  }
  if (t.bad_frees != 0) {
    r.fail(std::to_string(t.bad_frees) + " svc frees of live blocks refused");
  }
  c.reset();
  if (!server.stop()) r.fail("allocation server did not exit cleanly");
}

}  // namespace

Result run_larson_tc(const WindowSpec& spec) {
  Result r;
  const poseidon::core::Options opts = heap_options(spec);
  const std::string path = spec.dir + "/larson.heap";

  Larson L(kTcThreads);
  Window w(kTcThreads, spec.traced, spec.seed);
  const double rss0 = rss_anon_mb();
  std::unique_ptr<Heap> heap = timed_create(path, kCapacity, opts, r);

  std::vector<HeapAlloc> allocs(kTcThreads, HeapAlloc{heap.get()});
  r.set("insert_per_s", L.load(allocs, spec.seed));

  const Counters before = Counters::read(*heap);
  const bool ok = w.run(spec.seconds, kSlices, 0, [&](unsigned tid) {
    poseidon::Xoshiro256 rng = thread_rng(spec.seed ^ 0x77, tid);
    HeapAlloc a{heap.get()};
    ThreadRec& rec = w.rec(tid);
    while (!w.stopping()) {
      const std::uint64_t before_ops = L.tally[tid].ops;
      larson_step(a, rng, L.slots.data(), L.slots.size(), rec, tid, L.tally[tid]);
      w.add_ops(tid, L.tally[tid].ops - before_ops);
    }
  });
  if (!ok) r.fail("worker: " + w.error());
  const Counters delta = Counters::read(*heap).minus(before);
  save_spans(spec, w);

  const double backing = static_cast<double>(heap_backing_bytes(path));
  r.set("ops_per_s", w.median_rate());
  report_latency(r, w, kAlloc, "alloc");
  report_latency(r, w, kFree, "free");
  r.set("space_amp", backing / static_cast<double>(L.live_bytes()));
  r.set("rss_anon_mb", rss_anon_mb() - rss0);
  set_layer_metrics(r, delta, {&w, w.total_ops(), backing / 1e6});

  HeapAlloc main_alloc{heap.get()};
  Larson::drain_range(main_alloc, L.slots.data(), L.slots.size(), L.tally[0]);
  L.conclude(r);
  const Counters all = Counters::read(*heap);
  if (all.free_rejects != 0) {
    r.fail(std::to_string(all.free_rejects) + " frees rejected by the heap");
  }
  heap.reset();
  finish_drained(r, path, opts);
  if (spec.traced) svc_probe(spec, r);
  r.note("window: " + std::to_string(w.total_ops()) + " ops in " +
         std::to_string(w.elapsed_s()) + " s");
  return r;
}

}  // namespace pb
