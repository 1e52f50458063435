#include "harness.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace pb {

// ---- Result -------------------------------------------------------------------

void Result::set(const std::string& name, double v) {
  for (auto& [n, val] : metrics) {
    if (n == name) {
      val = v;
      return;
    }
  }
  metrics.emplace_back(name, v);
}

double Result::get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  return 0;
}

bool Result::has(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.first == name) return true;
  }
  return false;
}

void Result::fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

std::string Result::serialize() const {
  std::ostringstream os;
  os << "c " << (correct ? 1 : 0) << "\n"
     << "a " << attempted << "\n"
     << "f " << failed << "\n";
  char buf[64];
  for (const auto& [n, v] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << "m " << n << " " << buf << "\n";
  }
  for (const auto& n : notes) os << "n " << n << "\n";
  return os.str();
}

Result Result::parse(const std::string& text) {
  Result r;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 2) continue;
    const std::string rest = line.substr(2);
    switch (line[0]) {
      case 'c': r.correct = rest == "1"; break;
      case 'a': r.attempted = std::stoull(rest); break;
      case 'f': r.failed = std::stoull(rest); break;
      case 'n': r.notes.push_back(rest); break;
      case 'm': {
        const auto sp = rest.find(' ');
        if (sp != std::string::npos) {
          r.metrics.emplace_back(rest.substr(0, sp),
                                 std::strtod(rest.c_str() + sp + 1, nullptr));
        }
        break;
      }
      default: break;
    }
  }
  return r;
}

// ---- statistics ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double quantile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0;
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// ---- ThreadRec ------------------------------------------------------------------

ThreadRec::ThreadRec(Window* w, unsigned tid, bool traced, std::uint64_t seed)
    : w_(w), tid_(tid), traced_(traced), rnd_(seed | 1) {
  if (traced_) ring_.resize(kRingSpans);
}

ThreadRec::Token ThreadRec::begin(Kind k) noexcept {
  if (!traced_ && ++tick_[k] % kSampleEvery != 0) return {0, k, false, false};
  const bool push = traced_ && depth_ < kMaxDepth;
  if (push) {
    stack_id_[depth_] = next_id_++;
    stack_child_[depth_] = 0;
    ++depth_;
  }
  return {now_ns(), k, true, push};
}

void ThreadRec::end(const Token& t) noexcept {
  if (!t.on) return;
  const std::uint64_t t1 = now_ns();
  const std::uint64_t d = t1 - t.t0;
  // xorshift64 for the reservoir's replacement draw
  rnd_ ^= rnd_ << 13;
  rnd_ ^= rnd_ >> 7;
  rnd_ ^= rnd_ << 17;
  const unsigned s = w_->slice();
  if (s < kMaxSlices) {
    res_[t.kind][s].add(d > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(d),
                        rnd_);
  }
  if (!t.pushed) return;
  --depth_;
  const std::uint64_t id = stack_id_[depth_];
  const std::uint64_t parent = depth_ > 0 ? stack_id_[depth_ - 1] : 0;
  KindTotals& kt = totals_[t.kind];
  ++kt.count;
  kt.total_ns += d;
  kt.child_ns += stack_child_[depth_];
  if (d > 100'000) ++kt.over_100us;
  if (depth_ > 0) stack_child_[depth_ - 1] += d;
  ring_[(id - 1) % kRingSpans] = Span{id, parent, t.t0, t1, tid_, t.kind};
}

// ---- Window -------------------------------------------------------------------

Window::Window(unsigned nthreads, bool traced, std::uint64_t seed)
    : nthreads_(nthreads), ops_(new Padded[nthreads]) {
  for (unsigned t = 0; t < nthreads; ++t) {
    recs_.push_back(std::make_unique<ThreadRec>(this, t, traced,
                                                seed * 0x9e3779b97f4a7c15ull + t));
  }
}

std::uint64_t Window::total_ops() const noexcept {
  std::uint64_t s = 0;
  for (unsigned t = 0; t < nthreads_; ++t) s += ops(t);
  return s;
}

bool Window::run(double seconds, unsigned nslices, double slice_s,
                 const std::function<void(unsigned)>& body,
                 const std::function<void()>& after_stop) {
  std::atomic<unsigned> ready{0};
  std::atomic<unsigned> done{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::string err;
  std::atomic<bool> failed{false};
  for (unsigned t = 0; t < nthreads_; ++t) {
    threads.emplace_back([&, t] {
      pin_to_cpu(t + 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        body(t);
      } catch (const std::exception& e) {
        if (!failed.exchange(true)) err = e.what();
        stop_.store(true);
      }
      done.fetch_add(1);
    });
  }
  while (ready.load() < nthreads_) std::this_thread::yield();

  const bool timed = seconds > 0;
  const double len = timed ? seconds / nslices : slice_s;
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);
  std::uint64_t prev_t = start;
  std::uint64_t prev_ops = 0;
  for (unsigned i = 0; i < kMaxSlices; ++i) {
    if (timed && i >= nslices) break;
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>((i + 1) * len * 1e9);
    while (now_ns() < deadline && done.load() == 0) {
      const std::uint64_t left = deadline - std::min(deadline, now_ns());
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<std::uint64_t>(left, 2'000'000)));
    }
    if (done.load() != 0) break;  // a partial slice does not count
    const std::uint64_t t = now_ns();
    const std::uint64_t o = total_ops();
    rates_.push_back(static_cast<double>(o - prev_ops) * 1e9 /
                     static_cast<double>(t - prev_t));
    prev_t = t;
    prev_ops = o;
    ++full_slices_;
    slice_.store(i + 1, std::memory_order_relaxed);
  }
  if (timed) stop_.store(true);
  if (after_stop) after_stop();
  for (auto& th : threads) th.join();
  elapsed_s_ = static_cast<double>(now_ns() - start) / 1e9;
  if (failed.load()) {
    error_ = err;
    return false;
  }
  return true;
}

double Window::median_rate() const { return median(rates_); }

double Window::slice_quantile(Kind k, double q, std::uint64_t* samples) const {
  std::vector<double> per_slice;
  std::uint64_t n = 0;
  for (unsigned s = 0; s < full_slices_; ++s) {
    std::vector<std::uint32_t> merged;
    for (const auto& r : recs_) {
      const Reservoir& res = r->slice_sample(k, s);
      merged.insert(merged.end(), res.begin(), res.end());
    }
    if (merged.empty()) continue;
    n += merged.size();
    per_slice.push_back(quantile(std::move(merged), q));
  }
  if (samples != nullptr) *samples = n;
  return median(per_slice);
}

double Window::quantile_all(Kind k, double q) const {
  std::vector<std::uint32_t> merged;
  for (unsigned s = 0; s < kMaxSlices; ++s) {
    for (const auto& r : recs_) {
      const Reservoir& res = r->slice_sample(k, s);
      merged.insert(merged.end(), res.begin(), res.end());
    }
  }
  return quantile(std::move(merged), q);
}

KindTotals Window::totals(Kind k) const {
  KindTotals sum;
  for (const auto& r : recs_) {
    const KindTotals& t = r->totals(k);
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.child_ns += t.child_ns;
    sum.over_100us += t.over_100us;
  }
  return sum;
}

void Window::write_spans(std::FILE* f) const {
  for (const auto& r : recs_) {
    const auto& ring = r->ring();
    const std::uint64_t n =
        std::min<std::uint64_t>(r->spans_recorded(), ring.size());
    if (n > 0) std::fwrite(ring.data(), sizeof(Span), n, f);
  }
}

double parallel_rate(unsigned nthreads,
                     const std::function<std::uint64_t(unsigned)>& body) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> rate(nthreads, 0);
  std::vector<std::thread> threads;
  std::exception_ptr err;
  std::mutex err_mu;
  for (unsigned t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      pin_to_cpu(t + 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        const std::uint64_t t0 = now_ns();
        const std::uint64_t n = body(t);
        rate[t] = static_cast<double>(n) * 1e9 /
                  static_cast<double>(std::max<std::uint64_t>(now_ns() - t0, 1));
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  }
  while (ready.load() < nthreads) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  if (err) std::rethrow_exception(err);
  double sum = 0;
  for (double r : rate) sum += r;
  return sum;
}

void pin_to_cpu(unsigned cpu) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % static_cast<unsigned>(n > 0 ? n : 1), &set);
  (void)::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

void save_spans(const WindowSpec& spec, const Window& w) {
  if (!spec.traced || spec.trace_path.empty()) return;
  if (std::FILE* f = std::fopen(spec.trace_path.c_str(), "ab")) {
    w.write_spans(f);
    std::fclose(f);
  }
}

void report_latency(Result& r, const Window& w, Kind k,
                    const std::string& prefix) {
  std::uint64_t n = 0;
  r.set(prefix + "_p50_ns", w.slice_quantile(k, 0.50, &n));
  r.set(prefix + "_p99_ns", w.slice_quantile(k, 0.99, nullptr));
  r.note(prefix + " latency: " + std::to_string(n) + " sampled calls over " +
         std::to_string(w.full_slices()) + " slices");
}

// ---- run hygiene --------------------------------------------------------------

HeapDir::HeapDir(std::string path) : path_(std::move(path)) {
  remove_tree(path_);
  std::filesystem::create_directories(path_);
}

HeapDir::~HeapDir() { remove_tree(path_); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

bool reap(pid_t pid, double timeout_s, int* status) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return false;
    if (now_ns() >= deadline) {
      (void)::kill(pid, SIGKILL);
      while (::waitpid(pid, status, 0) < 0 && errno == EINTR) {
      }
      return false;
    }
    ::usleep(2'000);
  }
}

double rss_anon_mb() {
  (void)::malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::uint64_t heap_backing_bytes(const std::string& head_path) {
  std::uint64_t total = 0;
  struct stat st {};
  if (::stat(head_path.c_str(), &st) == 0) {
    total += static_cast<std::uint64_t>(st.st_blocks) * 512;
  }
  for (unsigned i = 1; i < 16; ++i) {
    const std::string m = head_path + ".shard" + std::to_string(i);
    if (::stat(m.c_str(), &st) == 0) {
      total += static_cast<std::uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

void unlink_heap(const std::string& head_path) {
  (void)::unlink(head_path.c_str());
  for (unsigned i = 1; i < 16; ++i) {
    (void)::unlink((head_path + ".shard" + std::to_string(i)).c_str());
  }
  (void)::unlink((head_path + ".svc").c_str());
}

std::uint64_t free_bytes(const std::string& path) {
  struct statvfs vs {};
  if (::statvfs(path.c_str(), &vs) != 0) return 0;
  return static_cast<std::uint64_t>(vs.f_bavail) * vs.f_frsize;
}

}  // namespace pb
