// churn-tx: private alloc/free churn at high heap fill with the thread
// cache off, a fixed fraction of it in small multi-block transactions,
// ended by a SIGKILL with one transaction open per thread and timed crash
// reopens (that one and six more crashes of the loaded heap).  Every call crosses the MPK window, the sub-heap lock, the
// undo and micro logs, the hash table and the persist barriers; recovery
// is exercised on every run.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/heap.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace pb {

using poseidon::core::FreeResult;
using poseidon::core::Heap;
using poseidon::core::NvPtr;

namespace {

// The heap file is about four times the capacity (its hash tables are sized
// for one record per 32 B block), so 128 MiB makes a 514 MiB file.
constexpr std::uint64_t kCapacity = 128ull << 20;
constexpr unsigned kThreads = 3;
// Workers are pinned to CPUs of their own (harness.hpp), so with per-CPU
// sub-heaps (the default policy) each allocates from one sub-heap.  Sizes are
// log-uniform over 64 B..64 KiB (mean ~9.4 KB requested, ~13.6 KB once
// rounded to a size class), so a worker's live blocks fill about 80% of
// its 32 MiB sub-heap: splits run every few thousand operations and every
// pinned transaction stays servable.  (Class-dry defragmentation did not
// run within a window at any fill tried, up to 88%.)
constexpr std::size_t kBlocksPerThread = 1885;
constexpr unsigned kTxEvery = 8;     // every 8th step is a transaction
constexpr unsigned kTxBlocks = 3;    // blocks per transaction
constexpr unsigned kOpenBlocks = 2;  // blocks of the transaction left open
constexpr unsigned kFillRounds = 48;
constexpr unsigned kSlices = 20;
// Crash reopens timed per run: the one after the window, then more crashes
// of the same loaded heap (crash_again); recover_s is their median.
constexpr unsigned kCrashReopens = 7;

std::uint64_t churn_size(poseidon::Xoshiro256& rng) {
  const double s = 64.0 * std::exp2(10.0 * rng.next_double());
  return s >= 65536.0 ? 65536 : static_cast<std::uint64_t>(s);
}

struct alignas(64) ThreadState {
  std::vector<ModelBlock> blocks;  // committed live blocks (null = empty)
  LarsonTally t;                   // ops / failed / bad_frees
  std::uint64_t open_blocks = 0;   // allocated by the transaction left open
};

struct Churn {
  Heap* heap = nullptr;  // set once the heap is open
  ThreadState st[kThreads];

  Churn() {
    for (auto& s : st) s.blocks.resize(kBlocksPerThread);
  }

  void put(ThreadState& s, std::size_t i, NvPtr p, std::uint64_t size) {
    if (p.is_null()) {
      ++s.t.failed;
      s.blocks[i] = ModelBlock{};
      return;
    }
    s.blocks[i] = ModelBlock{p, size};
    stamp_churn(heap->raw(p), s.blocks[i]);
  }

  void release(ThreadState& s, std::size_t i, ThreadRec* rec) {
    ModelBlock& b = s.blocks[i];
    if (b.ptr.is_null()) return;
    ++s.t.ops;
    const FreeResult r = rec != nullptr
                             ? rec->timed(kFree, [&] { return heap->free(b.ptr); })
                             : heap->free(b.ptr);
    if (r != FreeResult::kOk) ++s.t.bad_frees;
    b = ModelBlock{};
  }

  // Allocation rate of one fill of every thread's live set.
  double fill(std::uint64_t seed) {
    return parallel_rate(kThreads, [&](unsigned tid) -> std::uint64_t {
      poseidon::Xoshiro256 rng = thread_rng(seed, tid);
      ThreadState& s = st[tid];
      for (std::size_t i = 0; i < kBlocksPerThread; ++i) {
        const std::uint64_t size = churn_size(rng);
        ++s.t.ops;
        put(s, i, heap->alloc(size), size);
      }
      return kBlocksPerThread;
    });
  }

  void drain() {
    parallel_rate(kThreads, [&](unsigned tid) -> std::uint64_t {
      for (std::size_t i = 0; i < kBlocksPerThread; ++i) release(st[tid], i, nullptr);
      return kBlocksPerThread;
    });
  }

  // One step: replace a random live block, or every kTxEvery-th step,
  // replace kTxBlocks neighbours with one transaction.
  std::uint64_t step(ThreadState& s, poseidon::Xoshiro256& rng, ThreadRec& rec,
                     unsigned n) {
    const std::size_t i = rng.next_below(kBlocksPerThread);
    const std::uint64_t before = s.t.ops;
    if (n % kTxEvery != 0) {
      release(s, i, &rec);
      const std::uint64_t size = churn_size(rng);
      ++s.t.ops;
      put(s, i, rec.timed(kAlloc, [&] { return heap->alloc(size); }), size);
      return s.t.ops - before;
    }
    for (unsigned j = 0; j < kTxBlocks; ++j) {
      release(s, (i + j) % kBlocksPerThread, &rec);
    }
    for (unsigned j = 0; j < kTxBlocks; ++j) {
      const std::uint64_t size = churn_size(rng);
      const bool last = j + 1 == kTxBlocks;
      ++s.t.ops;
      put(s, (i + j) % kBlocksPerThread,
          rec.timed(kTxAlloc, [&] { return heap->tx_alloc(size, last); }), size);
    }
    return s.t.ops - before;
  }

  // Leaves one transaction open: kOpenBlocks allocated, never committed.
  void open_transaction(ThreadState& s, poseidon::Xoshiro256& rng) {
    for (unsigned j = 0; j < kOpenBlocks; ++j) {
      ++s.t.ops;
      if (heap->tx_alloc(churn_size(rng), false).is_null()) {
        ++s.t.failed;
      } else {
        ++s.open_blocks;
      }
    }
  }

  std::uint64_t live_bytes() const {
    std::uint64_t b = 0;
    for (const auto& s : st) {
      for (const auto& m : s.blocks) b += m.size;
    }
    return b;
  }
};

// The crashing child: opens the heap, loads it, runs the window, leaves one
// transaction open per thread, writes its result and committed-block model
// to `out` and SIGKILLs itself.  Never returns.
[[noreturn]] void churn_child(const WindowSpec& spec, const std::string& path,
                              const poseidon::core::Options& opts,
                              const std::string& out) {
  Result r;
  try {
    // The benchmark's own structures exist before the heap opens, so the
    // growth of anonymous memory from here on is the allocator's.
    Churn c;
    Window w(kThreads, spec.traced, spec.seed);
    const double rss0 = rss_anon_mb();
    std::unique_ptr<Heap> heap = Heap::open(path, opts);
    c.heap = heap.get();
    std::vector<double> rates;
    for (unsigned round = 0; round < kFillRounds; ++round) {
      rates.push_back(c.fill(spec.seed + round));
      if (round + 1 < kFillRounds) c.drain();
    }
    r.set("insert_per_s", median(std::move(rates)));

    std::atomic<unsigned> parked{0};
    const Counters before = Counters::read(*heap);
    const bool ok = w.run(
        spec.seconds, kSlices, 0,
        [&](unsigned tid) {
          poseidon::Xoshiro256 rng = thread_rng(spec.seed ^ 0x77, tid);
          ThreadState& s = c.st[tid];
          ThreadRec& rec = w.rec(tid);
          unsigned n = 0;
          while (!w.stopping()) w.add_ops(tid, c.step(s, rng, rec, ++n));
          c.open_transaction(s, rng);
          parked.fetch_add(1, std::memory_order_release);
          for (;;) ::pause();  // holds the transaction open until SIGKILL
        },
        [&] {
          const std::uint64_t deadline = now_ns() + 30'000'000'000ull;
          while (parked.load(std::memory_order_acquire) < kThreads) {
            if (now_ns() > deadline) ::_exit(3);
            ::usleep(100);
          }
          const Counters at_crash = Counters::read(*heap);
          save_spans(spec, w);
          const double backing = static_cast<double>(heap_backing_bytes(path));
          r.set("ops_per_s", w.median_rate());
          report_latency(r, w, kAlloc, "alloc");
          report_latency(r, w, kFree, "free");
          r.set("space_amp", backing / static_cast<double>(c.live_bytes()));
          r.set("rss_anon_mb", rss_anon_mb() - rss0);
          set_layer_metrics(r, at_crash.minus(before),
                            {&w, w.total_ops(), backing / 1e6});
          r.set("live_at_crash", static_cast<double>(at_crash.live_blocks));
          std::uint64_t open = 0;
          for (const auto& s : c.st) {
            r.attempted += s.t.ops;
            r.failed += s.t.failed + s.t.bad_frees;
            open += s.open_blocks;
            if (s.t.bad_frees != 0) {
              r.fail(std::to_string(s.t.bad_frees) + " frees of live blocks refused");
            }
          }
          r.set("open_blocks", static_cast<double>(open));
          if (at_crash.alloc_fails != 0) {
            r.note(std::to_string(at_crash.alloc_fails) +
                   " singleton allocations fell through every sub-heap");
          }
          r.note("window: " + std::to_string(w.total_ops()) + " ops");
          std::ofstream f(out + ".tmp");
          f << r.serialize();
          for (const auto& s : c.st) {
            for (const auto& b : s.blocks) {
              if (!b.ptr.is_null()) {
                f << "b " << b.ptr.heap_id << ' ' << b.ptr.packed << ' ' << b.size
                  << "\n";
              }
            }
          }
          f.close();
          (void)std::rename((out + ".tmp").c_str(), out.c_str());
          (void)::kill(::getpid(), SIGKILL);
        });
    (void)ok;
  } catch (...) {
  }
  ::_exit(4);  // the window ended some other way than the planned crash
}

// One more crash of the loaded heap: a child opens it, leaves a
// kOpenBlocks-block transaction open on each of kThreads pinned threads and
// SIGKILLs itself.  False, with *why, if the child ended any other way.
bool crash_again(const std::string& path, const poseidon::core::Options& opts,
                 std::uint64_t seed, std::string* why) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork crash child");
  if (pid == 0) {
    try {
      std::unique_ptr<Heap> heap = Heap::open(path, opts);
      std::atomic<unsigned> parked{0};
      std::atomic<bool> failed{false};
      std::vector<std::thread> threads;
      for (unsigned tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&, tid] {
          pin_to_cpu(tid + 1);
          poseidon::Xoshiro256 rng = thread_rng(seed, tid);
          for (unsigned j = 0; j < kOpenBlocks; ++j) {
            if (heap->tx_alloc(churn_size(rng), false).is_null()) failed = true;
          }
          parked.fetch_add(1, std::memory_order_release);
          for (;;) ::pause();
        });
      }
      while (parked.load(std::memory_order_acquire) < kThreads) ::usleep(100);
      if (!failed) (void)::kill(::getpid(), SIGKILL);
    } catch (...) {
    }
    ::_exit(4);  // an open failed or a transactional allocation returned null
  }
  int st = 0;
  if (!reap(pid, 60, &st)) {
    *why = "crash child hung; killed after the timeout";
    return false;
  }
  if (!WIFSIGNALED(st) || WTERMSIG(st) != SIGKILL) {
    *why = "crash child ended without the planned SIGKILL (status " +
           std::to_string(st) + ")";
    return false;
  }
  return true;
}

}  // namespace

Result run_churn_tx(const WindowSpec& spec) {
  Result r;
  const poseidon::core::Options opts = window_options(spec);
  const std::string path = spec.dir + "/churn.heap";
  const std::string out = spec.dir + "/churn.model";
  // Created (and timed) here, closed, and opened by the crashing child.
  timed_create(path, kCapacity, opts, r).reset();

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork churn child");
  if (pid == 0) churn_child(spec, path, opts, out);
  int st = 0;
  if (!reap(pid, spec.seconds + 120, &st)) {
    r.fail("churn child hung; killed after the timeout");
    return r;
  }
  if (!WIFSIGNALED(st) || WTERMSIG(st) != SIGKILL) {
    r.fail("churn child ended without the planned SIGKILL (status " +
           std::to_string(st) + ")");
    return r;
  }

  std::ifstream in(out);
  std::stringstream text;
  text << in.rdbuf();
  Result child = Result::parse(text.str());
  std::vector<ModelBlock> model;
  {
    std::istringstream is(text.str());
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind("b ", 0) != 0) continue;
      std::istringstream ls(line.substr(2));
      ModelBlock b;
      ls >> b.ptr.heap_id >> b.ptr.packed >> b.size;
      model.push_back(b);
    }
  }
  if (!child.has("ops_per_s")) {
    r.fail("churn child left no result");
    return r;
  }
  for (const auto& [n, v] : child.metrics) r.set(n, v);
  for (const auto& n : child.notes) r.notes.push_back(n);
  r.correct = r.correct && child.correct;
  r.attempted += child.attempted;
  r.failed += child.failed;

  std::vector<double> reopen_s;
  std::uint64_t t0 = now_ns();
  std::unique_ptr<Heap> heap = Heap::open(path, opts);
  reopen_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  const std::uint64_t live = heap->stats().live_blocks;
  const double reclaimed = r.get("live_at_crash") - static_cast<double>(live);
  r.set("recover.blocks_reclaimed", reclaimed);
  if (reclaimed != r.get("open_blocks")) {
    r.fail("recovery reclaimed " + std::to_string(reclaimed) +
           " blocks; the open transactions held " +
           std::to_string(r.get("open_blocks")));
  }
  // Each further crash leaves kThreads * kOpenBlocks blocks open, and
  // recovery must take the heap back to the same live count.
  for (unsigned i = 1; i < kCrashReopens; ++i) {
    heap.reset();
    std::string why;
    if (!crash_again(path, opts, spec.seed ^ (0x99 + i), &why)) {
      r.fail(why);
      return r;
    }
    t0 = now_ns();
    heap = Heap::open(path, opts);
    reopen_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (heap->stats().live_blocks != live) {
      r.fail("crash " + std::to_string(i + 1) + ": " +
             std::to_string(heap->stats().live_blocks) +
             " live blocks after recovery, " + std::to_string(live) + " before");
    }
  }
  r.set("recover_s", median(std::move(reopen_s)));
  double fsck_s = 0;
  std::string why;
  if (!check_recovered(*heap, model, &fsck_s, &why)) r.fail(why);
  r.set("recover.fsck_s", fsck_s);
  r.note("model: " + std::to_string(model.size()) + " committed blocks");
  return r;
}

}  // namespace pb
