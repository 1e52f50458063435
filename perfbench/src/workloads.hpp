// The three workloads.  Each runs one measurement window on fresh heaps in
// spec.dir and returns every end-to-end and per-layer metric it measured,
// with its checks' verdict.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/heap.hpp"
#include "harness.hpp"

namespace pb {

Result run_larson_tc(const WindowSpec& spec);
Result run_churn_tx(const WindowSpec& spec);
Result run_ycsb_tree(const WindowSpec& spec);

// Set-ups timed per window; setup_s is their median.
inline constexpr unsigned kSetups = 9;
// Clean reopens timed per window; recover_s is their median (except on
// churn-tx, whose one crash reopen is the figure).
inline constexpr unsigned kReopens = 11;

// `base` with the persistence domain the window asks for: eADR for the
// write-back rerun, the detected one otherwise.
inline poseidon::core::Options window_options(const WindowSpec& spec,
                                              poseidon::core::Options base = {}) {
  base.persist_domain = spec.eadr ? poseidon::pmem::PersistDomainMode::kEadr
                                  : poseidon::pmem::PersistDomainMode::kDetect;
  return base;
}

// Creates the heap kSetups times, sets setup_s to the median create time
// and returns the last heap, open.
inline std::unique_ptr<poseidon::core::Heap> timed_create(
    const std::string& path, std::uint64_t capacity,
    const poseidon::core::Options& o, Result& r) {
  std::vector<double> t;
  std::unique_ptr<poseidon::core::Heap> h;
  for (unsigned i = 0; i < kSetups; ++i) {
    h.reset();
    unlink_heap(path);
    const std::uint64_t t0 = now_ns();
    h = poseidon::core::Heap::create(path, capacity, o);
    t.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.set("setup_s", median(std::move(t)));
  return h;
}

// Opens the closed heap kReopens times, sets recover_s to the median open
// time and returns the last heap, open.
inline std::unique_ptr<poseidon::core::Heap> timed_reopen(
    const std::string& path, const poseidon::core::Options& o, Result& r) {
  std::vector<double> t;
  std::unique_ptr<poseidon::core::Heap> h;
  for (unsigned i = 0; i < kReopens; ++i) {
    h.reset();
    const std::uint64_t t0 = now_ns();
    h = poseidon::core::Heap::open(path, o);
    t.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  r.set("recover_s", median(std::move(t)));
  return h;
}

// Per-thread generator stream of a workload seed.
inline poseidon::Xoshiro256 thread_rng(std::uint64_t seed, unsigned tid) {
  return poseidon::Xoshiro256(poseidon::mix64(seed) ^
                              poseidon::mix64(0x1a450ull + tid));
}

// ---- Larson (larson-tc) ---------------------------------------------------------

inline constexpr std::size_t kLarsonMin = 8;
inline constexpr std::size_t kLarsonMax = 1024;

// Cache-line aligned: each worker bumps its own tally on every operation.
struct alignas(64) LarsonTally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;      // allocations that returned null
  std::uint64_t bad_stamps = 0;  // blocks whose stamp was overwritten
  std::uint64_t bad_frees = 0;   // frees the allocator refused
  std::uint64_t seq = 0;
};

// One Larson step: allocate a fresh block of random size, stamp it, swap
// it into a random slot of the shared array and free what another thread
// left there after checking its stamp.  A: void* alloc(size_t),
// bool free(void*).
template <typename A>
void larson_step(A& a, poseidon::Xoshiro256& rng, std::atomic<void*>* slots,
                 std::size_t nslots, ThreadRec& rec, unsigned tid,
                 LarsonTally& t) {
  const std::size_t slot = rng.next_below(nslots);
  const std::size_t size =
      kLarsonMin + rng.next_below(kLarsonMax - kLarsonMin + 1);
  void* fresh = rec.timed(kAlloc, [&] { return a.alloc(size); });
  ++t.ops;
  if (fresh == nullptr) {
    ++t.failed;
  } else {
    stamp_block(fresh, size, (static_cast<std::uint64_t>(tid) << 40) ^ ++t.seq);
  }
  void* old = slots[slot].exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    std::size_t sz = 0;
    if (!verify_and_poison(old, &sz)) ++t.bad_stamps;
    ++t.ops;
    if (!rec.timed(kFree, [&] { return a.free(old); })) ++t.bad_frees;
  }
}

}  // namespace pb
