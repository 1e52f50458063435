// Measurement harness of the allocator benchmark: closed-loop windows cut
// into time slices, sampled per-call latencies, in-memory spans for the
// traced run, the metric sink, and run hygiene (heap directories, child
// reaping, resident-memory and file-backing probes).
//
// Every timing here is taken in the benchmark's own code, around calls into
// the program's public functions; nothing inside the program is changed.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pb {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- inputs -----------------------------------------------------------------

// What one measurement window runs with.  `seconds` is the window length;
// `eadr` selects the eADR persistence domain instead of the detected one
// (the write-back share rerun); `traced` records a span around every call.
struct WindowSpec {
  std::uint64_t seed = 1;
  double seconds = 1;
  bool traced = false;
  bool eadr = false;
  std::string dir;         // private directory for this window's heap files
  std::string trace_path;  // traced windows append their spans here
};

// ---- results ----------------------------------------------------------------

// Named metrics of one window, plus the correctness verdict and op counts.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> notes;  // printed as "# ..." lines

  void set(const std::string& name, double v);
  double get(const std::string& name) const;  // 0 when absent
  bool has(const std::string& name) const;
  // Marks the result incorrect and records why.
  void fail(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }

  // Line-oriented text form, so a forked child can hand its result over
  // through a file.
  std::string serialize() const;
  static Result parse(const std::string& text);
};

// ---- statistics ---------------------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank quantile of unsorted samples (q in [0,1]).
double quantile(std::vector<std::uint32_t> v, double q);

// Fixed-capacity uniform sample (Vitter's algorithm R): memory does not
// grow with throughput, so resident memory stays a property of the
// workload rather than of how fast the machine ran it.
class Reservoir {
 public:
  static constexpr unsigned kCap = 1024;
  void add(std::uint32_t v, std::uint64_t rnd) noexcept {
    ++seen_;
    if (n_ < kCap) {
      buf_[n_++] = v;
    } else if (rnd % seen_ < kCap) {
      buf_[rnd % kCap] = v;
    }
  }
  const std::uint32_t* begin() const noexcept { return buf_; }
  const std::uint32_t* end() const noexcept { return buf_ + n_; }

 private:
  std::uint32_t buf_[kCap] = {};
  unsigned n_ = 0;
  std::uint64_t seen_ = 0;
};

// ---- windows ------------------------------------------------------------------

// Operations timed around the calls into the program's layers.
enum Kind : unsigned {
  kAlloc,       // Heap::alloc / PAllocator::alloc
  kFree,        // Heap::free / PAllocator::free
  kTxAlloc,     // Heap::tx_alloc
  kInsert,      // FastFairTree::insert
  kSearch,      // FastFairTree::search
  kUpdate,      // FastFairTree::exchange
  kPing,        // SvcClient::ping
  kBatchAlloc,  // SvcClient::alloc (one batched ring round-trip)
  kKinds
};

inline constexpr unsigned kMaxSlices = 64;
inline constexpr unsigned kMaxDepth = 4;

// One span of the traced run: a call into a layer, with the span that
// caused it (0 = none).  Ids are per thread; tid disambiguates.
struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint32_t tid;
  std::uint32_t kind;
};

struct KindTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t child_ns = 0;   // time covered by nested spans
  std::uint64_t over_100us = 0;
};

class Window;

// Per-thread recorder.  Untraced, one call in kSampleEvery of each kind is
// timed into the current slice's reservoir.  Traced, every call is a span:
// it lands in the reservoirs and totals and in a bounded in-memory ring
// that save_spans() writes out when the window ends.
class ThreadRec {
 public:
  static constexpr unsigned kSampleEvery = 8;
  static constexpr std::size_t kRingSpans = 1 << 16;

  ThreadRec(Window* w, unsigned tid, bool traced, std::uint64_t seed);

  struct Token {
    std::uint64_t t0;
    Kind kind;
    bool on;      // timed at all
    bool pushed;  // opened a span on the nesting stack
  };
  Token begin(Kind k) noexcept;
  void end(const Token& t) noexcept;

  // Times f() as one call of kind k.
  template <typename F>
  auto timed(Kind k, F&& f) {
    Token t = begin(k);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      end(t);
    } else {
      auto r = f();
      end(t);
      return r;
    }
  }

  const Reservoir& slice_sample(Kind k, unsigned slice) const noexcept {
    return res_[k][slice];
  }
  const KindTotals& totals(Kind k) const noexcept { return totals_[k]; }
  const std::vector<Span>& ring() const noexcept { return ring_; }
  std::uint64_t spans_recorded() const noexcept { return next_id_ - 1; }

 private:
  Window* w_;
  unsigned tid_;
  bool traced_;
  std::uint64_t rnd_;
  unsigned tick_[kKinds] = {};
  Reservoir res_[kKinds][kMaxSlices];
  KindTotals totals_[kKinds];
  std::vector<Span> ring_;
  std::uint64_t next_id_ = 1;
  unsigned depth_ = 0;
  std::uint64_t stack_id_[kMaxDepth] = {};
  std::uint64_t stack_child_[kMaxDepth] = {};
};

// A closed-loop measurement window over `nthreads` workers.  The driving
// thread cuts it into equal time slices and counts each slice's
// operations; rates and latency medians are reported as the median over
// slices, so a burst of interference from outside shifts one slice, not
// the figure.
class Window {
 public:
  Window(unsigned nthreads, bool traced, std::uint64_t seed);

  ThreadRec& rec(unsigned tid) noexcept { return *recs_[tid]; }
  bool stopping() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  unsigned slice() const noexcept {
    return slice_.load(std::memory_order_relaxed);
  }
  void add_ops(unsigned tid, std::uint64_t n = 1) noexcept {
    ops_[tid].v.store(ops_[tid].v.load(std::memory_order_relaxed) + n,
                      std::memory_order_relaxed);
  }
  std::uint64_t ops(unsigned tid) const noexcept {
    return ops_[tid].v.load(std::memory_order_relaxed);
  }
  std::uint64_t total_ops() const noexcept;

  // Runs body(tid) on nthreads threads, worker tid pinned to CPU tid + 1
  // so the driving thread keeps CPU 0 and a worker's per-CPU sub-heap is
  // the same in every phase.  With seconds > 0 the window lasts
  // that long (nslices slices) and then raises stop; with seconds == 0 it
  // runs slices of slice_s until every body returned (fixed work).  Only
  // full slices count.  Returns false when a body threw (the message is
  // in error()).
  // after_stop, when given, runs on the driving thread once stop is raised
  // and before the workers are joined.
  bool run(double seconds, unsigned nslices, double slice_s,
           const std::function<void(unsigned)>& body,
           const std::function<void()>& after_stop = nullptr);

  // Median over full slices of the op rate (ops/s).
  double median_rate() const;
  double elapsed_s() const noexcept { return elapsed_s_; }
  unsigned full_slices() const noexcept { return full_slices_; }
  // Median over full slices of the q-quantile of kind k's samples (ns);
  // *samples receives the number of samples the figure rests on.
  double slice_quantile(Kind k, double q, std::uint64_t* samples) const;
  // q-quantile of every sample of kind k in the window, slices pooled (the
  // traced run's per-layer latencies and the svc probe).
  double quantile_all(Kind k, double q) const;
  // Sum over threads of kind k's span totals (traced windows).
  KindTotals totals(Kind k) const;
  const std::string& error() const noexcept { return error_; }
  // Appends this window's span rings to a binary trace file.
  void write_spans(std::FILE* f) const;

 private:
  struct alignas(64) Padded {
    std::atomic<std::uint64_t> v{0};
  };
  unsigned nthreads_;
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> slice_{0};
  std::unique_ptr<Padded[]> ops_;
  std::vector<std::unique_ptr<ThreadRec>> recs_;
  std::vector<double> rates_;
  unsigned full_slices_ = 0;
  double elapsed_s_ = 0;
  std::string error_;
};

// Runs body(tid) on nthreads threads released together (pinned as in
// Window::run); each body returns the operations it completed.  Returns
// the sum of the threads' own rates (ops over the thread's own seconds),
// so neither thread start-up nor a straggler's tail enters the figure.
double parallel_rate(unsigned nthreads,
                     const std::function<std::uint64_t(unsigned)>& body);

// Pins the calling thread to CPU `cpu` modulo the online CPUs.
void pin_to_cpu(unsigned cpu);

// Appends a traced window's span rings to spec.trace_path.
void save_spans(const WindowSpec& spec, const Window& w);

// Records the latency quantiles of kind k under `prefix` (alloc -> alloc_p50_ns,
// alloc_p99_ns) and notes the sample count.
void report_latency(Result& r, const Window& w, Kind k,
                    const std::string& prefix);

// ---- run hygiene --------------------------------------------------------------

// A private directory for one window's heap files, removed with everything
// in it (heap, .shardN members, .svc segment, model files) on destruction.
class HeapDir {
 public:
  explicit HeapDir(std::string path);
  ~HeapDir();
  HeapDir(const HeapDir&) = delete;
  HeapDir& operator=(const HeapDir&) = delete;
  const std::string& path() const noexcept { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// Removes a directory tree (best effort).
void remove_tree(const std::string& path);

// Waits for `pid` up to timeout_s; on timeout SIGKILLs and reaps it and
// returns false.  *status receives the wait status.
bool reap(pid_t pid, double timeout_s, int* status);

// Anonymous resident memory of this process (/proc/self/status RssAnon), MB,
// after malloc_trim hands free malloc memory back, so that what memory
// was freed before the reading does not count.
double rss_anon_mb();

// Bytes the filesystem backs for a heap: st_blocks of the head file and
// of every .shardN member that exists.
std::uint64_t heap_backing_bytes(const std::string& head_path);

// Unlinks a heap's files: head, .shardN members and the .svc segment.
void unlink_heap(const std::string& head_path);

// Free bytes on the filesystem holding `path`.
std::uint64_t free_bytes(const std::string& path);

}  // namespace pb
