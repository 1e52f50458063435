// ycsb-tree: a FAST-FAIR tree over the heap with default Options, loaded
// with N keys (insert only) and then driven with YCSB-A (50% reads, 50%
// updates, zipfian θ = 0.99).  Reads never enter the allocator and each
// update allocates one value and frees one, so allocator changes show here
// diluted by the index's own work.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "alloc_iface/allocator.hpp"
#include "core/heap.hpp"
#include "index/fastfair.hpp"
#include "layers.hpp"
#include "workloads.hpp"
#include "workloads/zipf.hpp"

namespace pb {

using poseidon::core::FreeResult;
using poseidon::core::Heap;
using poseidon::index::FastFairTree;

namespace {

constexpr std::uint64_t kCapacity = 128ull << 20;  // a 514 MiB file
constexpr std::uint64_t kKeys = 500'000;
constexpr unsigned kThreads = 3;
constexpr unsigned kSlices = 20;
constexpr double kLoadSlice = 0.02;  // s; the load is fixed work
constexpr double kTheta = 0.99;
constexpr unsigned kAdvanceEvery = 64;  // updates between epoch advances
// Retired values a thread may hold before a grace period ends.  Reserved
// up front, and a thread that reaches it waits for the grace period, so a
// preempted worker neither grows the benchmark's memory nor piles up live
// values in the heap.
constexpr std::size_t kLimboCap = 1 << 14;

std::uint64_t key_of(std::uint64_t i, std::uint64_t salt) {
  return poseidon::mix64(i ^ salt);  // a bijection: N distinct keys
}

thread_local ThreadRec* tl_rec = nullptr;

// The timing allocator beneath the tree: every call the tree (or the
// workload) makes into the heap is timed on the calling thread's recorder.
class TimedHeap final : public poseidon::iface::PAllocator {
 public:
  explicit TimedHeap(Heap& h) : h_(h) {}
  void* alloc(std::size_t size) override {
    if (size == FastFairTree::kNodeSize) nodes_.fetch_add(1, std::memory_order_relaxed);
    if (tl_rec == nullptr) return h_.raw(h_.alloc(size));
    return tl_rec->timed(kAlloc, [&] { return h_.raw(h_.alloc(size)); });
  }
  bool free(void* p) override {
    auto f = [&] { return h_.free(h_.from_raw(p)) == FreeResult::kOk; };
    return tl_rec == nullptr ? f() : tl_rec->timed(kFree, f);
  }
  void set_root(void* p) override { h_.set_root(h_.from_raw(p)); }
  void* root() const override { return h_.raw(h_.root()); }
  const char* name() const noexcept override { return "poseidon+timed"; }
  std::uint64_t nodes() const noexcept { return nodes_.load(); }

 private:
  Heap& h_;
  std::atomic<std::uint64_t> nodes_{0};
};

// Quiescent-state reclamation for replaced values: a value swapped out of
// the tree is freed only once every thread has passed an operation
// boundary after the swap, so no reader still holds it.
class Epochs {
 public:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  explicit Epochs(unsigned n) : local_(n) {
    for (auto& l : local_) l.v.store(kIdle);
  }
  std::uint64_t now() const { return global_.load(); }
  void advance() { global_.fetch_add(1); }
  void quiesce(unsigned tid) { local_[tid].v.store(global_.load()); }
  void idle(unsigned tid) { local_[tid].v.store(kIdle); }
  // Values retired at epoch e are free once this exceeds e.
  std::uint64_t safe_below() const {
    std::uint64_t m = kIdle;
    for (const auto& l : local_) m = std::min(m, l.v.load());
    return m;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::atomic<std::uint64_t> global_{1};
  std::vector<Slot> local_;
};

struct Retired {
  void* value;
  std::uint64_t epoch;
};

struct alignas(64) Tally {
  std::uint64_t ops = 0, failed = 0, bad_values = 0, bad_frees = 0;
  std::vector<Retired> limbo;
};

// Frees retired values whose epoch every thread has moved past (all of
// them when `all`), checking that each still carries its key's stamp.
void reclaim(TimedHeap& a, Tally& t, std::uint64_t safe_below, bool all) {
  std::size_t keep = 0;
  for (const Retired& r : t.limbo) {
    if (!all && r.epoch >= safe_below) {
      t.limbo[keep++] = r;
      continue;
    }
    ++t.ops;
    if (!a.free(r.value)) ++t.bad_frees;
  }
  t.limbo.resize(keep);
}

// The benchmark's own state of one run, built before the heap is created
// so that the growth of anonymous memory after it is the allocator's.
struct Recorders {
  Window load;
  Window w;
  std::vector<Tally> tally;
  double rss0 = 0;

  explicit Recorders(const WindowSpec& spec)
      : load(kThreads, spec.traced, spec.seed),
        w(kThreads, spec.traced, spec.seed),
        tally(kThreads) {
    for (Tally& t : tally) {
      // Written once so its pages are resident before the reading below.
      t.limbo.resize(kLimboCap);
      t.limbo.clear();
    }
    rss0 = rss_anon_mb();
  }
};

// Loads the tree and runs YCSB-A over it; the tree and its allocator end
// with this function, before the heap is closed.
void load_and_run(Heap& heap, const std::string& path, const WindowSpec& spec,
                  std::uint64_t salt, Recorders& rs, Result& r) {
  TimedHeap alloc(heap);
  FastFairTree tree(&alloc);
  std::vector<Tally>& tally = rs.tally;
  Window& load = rs.load;
  Window& w = rs.w;

  // Load: thread t inserts keys i ≡ t (mod kThreads).
  if (!load.run(0, 0, kLoadSlice, [&](unsigned tid) {
        ThreadRec& rec = load.rec(tid);
        tl_rec = &rec;
        Tally& t = tally[tid];
        for (std::uint64_t i = tid; i < kKeys; i += kThreads) {
          const std::uint64_t key = key_of(i, salt);
          void* v = alloc.alloc(kValueSize);
          ++t.ops;
          if (v == nullptr) {
            ++t.failed;
            continue;
          }
          stamp_value(v, key);
          const bool ok = rec.timed(kInsert, [&] {
            return tree.insert(key, reinterpret_cast<std::uint64_t>(v));
          });
          if (!ok) ++t.failed;
          load.add_ops(tid);
        }
        tl_rec = nullptr;
      })) {
    r.fail("load: " + load.error());
  }
  r.set("insert_per_s", load.median_rate());
  save_spans(spec, load);
  std::string why;
  if (!check_tree(tree, kKeys, key_of, salt, &why)) r.fail("after load: " + why);

  // YCSB-A.
  Epochs epochs(kThreads);
  const Counters before = Counters::read(heap);
  const bool ok = w.run(spec.seconds, kSlices, 0, [&](unsigned tid) {
    ThreadRec& rec = w.rec(tid);
    tl_rec = &rec;
    Tally& t = tally[tid];
    poseidon::Xoshiro256 rng = thread_rng(spec.seed ^ 0x77, tid);
    poseidon::workloads::ZipfGenerator zipf(kKeys, kTheta, rng.next());
    epochs.quiesce(tid);
    unsigned updates = 0;
    while (!w.stopping()) {
      const std::uint64_t key = key_of(zipf.next_scrambled(), salt);
      ++t.ops;
      if (rng.next_below(2) == 0) {
        const auto v = rec.timed(kSearch, [&] { return tree.search(key); });
        if (!v || !value_has_key(reinterpret_cast<const void*>(*v), key)) {
          ++t.bad_values;
        }
      } else {
        void* fresh = alloc.alloc(kValueSize);
        if (fresh == nullptr) {
          ++t.failed;
        } else {
          stamp_value(fresh, key);
          const auto old = rec.timed(kUpdate, [&] {
            return tree.exchange(key, reinterpret_cast<std::uint64_t>(fresh));
          });
          void* oldp = old ? reinterpret_cast<void*>(*old) : nullptr;
          if (oldp == nullptr || !value_has_key(oldp, key)) {
            ++t.bad_values;
          } else {
            t.limbo.push_back({oldp, epochs.now()});
          }
        }
        if (++updates % kAdvanceEvery == 0) {
          epochs.advance();
          reclaim(alloc, t, epochs.safe_below(), false);
          while (t.limbo.size() >= kLimboCap - kAdvanceEvery) {
            epochs.quiesce(tid);
            std::this_thread::yield();
            reclaim(alloc, t, epochs.safe_below(), false);
          }
        }
      }
      epochs.quiesce(tid);
      w.add_ops(tid);
    }
    epochs.idle(tid);
    tl_rec = nullptr;
  });
  if (!ok) r.fail("worker: " + w.error());
  const Counters delta = Counters::read(heap).minus(before);
  save_spans(spec, w);
  for (auto& t : tally) reclaim(alloc, t, 0, true);

  const double backing = static_cast<double>(heap_backing_bytes(path));
  const double live = static_cast<double>(kKeys * kValueSize +
                                          alloc.nodes() * FastFairTree::kNodeSize);
  r.set("ops_per_s", w.median_rate());
  report_latency(r, w, kAlloc, "alloc");
  report_latency(r, w, kFree, "free");
  r.set("space_amp", backing / live);
  r.set("rss_anon_mb", rss_anon_mb() - rs.rss0);
  set_layer_metrics(r, delta, {&w, w.total_ops(), backing / 1e6});
  r.set("index.insert_p50_ns", load.quantile_all(kInsert, 0.5));

  if (!check_tree(tree, kKeys, key_of, salt, &why)) r.fail("after YCSB-A: " + why);
  for (const Tally& t : tally) {
    r.attempted += t.ops;
    r.failed += t.failed + t.bad_frees;
    if (t.bad_values != 0) {
      r.fail(std::to_string(t.bad_values) + " reads or updates met a value "
             "stamped for another key");
    }
    if (t.bad_frees != 0) {
      r.fail(std::to_string(t.bad_frees) + " frees of replaced values refused");
    }
  }
  if (Counters::read(heap).free_rejects != 0) r.fail("heap rejected frees");
  r.note("window: " + std::to_string(w.total_ops()) + " YCSB-A ops");
}

}  // namespace

Result run_ycsb_tree(const WindowSpec& spec) {
  Result r;
  const poseidon::core::Options opts = window_options(spec);
  const std::string path = spec.dir + "/ycsb.heap";
  const std::uint64_t salt = poseidon::mix64(spec.seed);

  Recorders rs(spec);
  std::unique_ptr<Heap> heap = timed_create(path, kCapacity, opts, r);
  load_and_run(*heap, path, spec, salt, rs, r);

  // Clean reopen, then a full fsck of the tree's heap.
  heap.reset();
  heap = timed_reopen(path, opts, r);
  double fsck_s = 0;
  std::string why;
  if (!check_clean(*heap, &fsck_s, &why)) r.fail(why);
  r.set("recover.fsck_s", fsck_s);
  return r;
}

}  // namespace pb
