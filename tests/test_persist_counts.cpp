// Per-op persist-count gate: cache lines written back and fences issued by
// each allocator operation on one sub-heap, counted through the
// pmem::SimObserver tap and compared with the budget checked in beside this
// file (persist_budget.txt).  The counts are deterministic for a seed —
// they do not depend on the host's speed or on its persistence domain (an
// active observer keeps every write-back visible) — so unlike cycles or
// Mops/s they can gate CI.  A count above its budget fails; lower the
// budget when a change lowers the count.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/heap.hpp"
#include "pmem/persist.hpp"
#include "tests/test_util.hpp"

namespace poseidon {
namespace {

using core::Heap;
using core::NvPtr;
using test::TempHeapPath;

constexpr std::uint64_t kLine = 64;

// Counts the lines each flush covers and every fence.
class PersistCounter final : public pmem::SimObserver {
 public:
  void on_store(const void*, std::size_t, void*) noexcept override {}
  void on_flush(const void* addr, std::size_t len, void*) noexcept override {
    if (len == 0) return;
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    lines += (a + len - 1) / kLine - a / kLine + 1;
  }
  void on_fence() noexcept override { ++fences; }
  void on_crash_point(const char*) noexcept override {}

  std::uint64_t lines = 0;
  std::uint64_t fences = 0;
};

struct Tally {
  std::uint64_t ops = 0, lines = 0, fences = 0;
  double lines_per_op() const { return ops ? double(lines) / ops : 0; }
  double fences_per_op() const { return ops ? double(fences) / ops : 0; }
};

// Runs `op` with the counter attached; returns what it persisted.
template <typename F>
PersistCounter counted(F&& op) {
  PersistCounter c;
  pmem::sim_set_observer(&c);
  op();
  pmem::sim_set_observer(nullptr);
  return c;
}

void add(Tally* t, const PersistCounter& c) {
  ++t->ops;
  t->lines += c.lines;
  t->fences += c.fences;
}

core::Options one_subheap(bool thread_cache) {
  core::Options o;
  o.nsubheaps = 1;
  o.nshards = 1;
  o.protect = mpk::ProtectMode::kNone;
  o.thread_cache = thread_cache;
  return o;
}

// 64 B - 2 KiB, as the benchmark's small-object workloads use.
std::uint64_t pick_size(std::mt19937_64& rng) {
  return 64 + rng() % (2048 - 64 + 1);
}

// The seeded single-thread mix: 20 k live blocks, then measured rounds of
// alloc, free and two-op transactions that keep the live set steady.
void measure_subheap_ops(std::map<std::string, Tally>* out) {
  TempHeapPath path("persist_counts");
  auto h = Heap::create(path.str(), 64ull << 20, one_subheap(false));
  std::mt19937_64 rng(20241);
  std::vector<NvPtr> live;
  for (int i = 0; i < 20000; ++i) {
    const NvPtr p = h->alloc(pick_size(rng));
    ASSERT_FALSE(p.is_null());
    live.push_back(p);
  }
  auto free_random = [&](Tally* t) {
    const std::size_t k = rng() % live.size();
    const NvPtr p = live[k];
    live[k] = live.back();
    live.pop_back();
    core::FreeResult r{};
    const auto c = counted([&] { r = h->free(p); });
    ASSERT_EQ(r, core::FreeResult::kOk);
    if (t != nullptr) add(t, c);
  };
  // Churn first, so the measured rounds see a fragmented table.
  for (int i = 0; i < 5000; ++i) {
    free_random(nullptr);
    live.push_back(h->alloc(pick_size(rng)));
  }
  for (int round = 0; round < 600; ++round) {
    NvPtr p;
    const std::uint64_t size = pick_size(rng);
    add(&(*out)["alloc"], counted([&] { p = h->alloc(size); }));
    ASSERT_FALSE(p.is_null());
    live.push_back(p);
    free_random(&(*out)["free"]);
    if (round % 2 == 0) {
      // A two-allocation transaction; both calls count as tx_alloc.
      for (const bool is_end : {false, true}) {
        const std::uint64_t tsize = pick_size(rng);
        add(&(*out)["tx_alloc"],
            counted([&] { p = h->tx_alloc(tsize, is_end); }));
        ASSERT_FALSE(p.is_null());
        live.push_back(p);
      }
      free_random(&(*out)["free"]);
      free_random(&(*out)["free"]);
    }
  }
  std::string why;
  EXPECT_TRUE(h->check_invariants(&why)) << why;
}

// Thread-cache legs: an alloc served from a magazine (hit) and one that
// refills a batch from the sub-heap (miss).
void measure_cache_ops(std::map<std::string, Tally>* out) {
  TempHeapPath path("persist_counts_tc");
  auto h = Heap::create(path.str(), 64ull << 20, one_subheap(true));
  std::mt19937_64 rng(20242);
  std::vector<NvPtr> held;
  for (int round = 0; round < 120; ++round) {
    const std::uint64_t size = std::uint64_t{64} << (round % 6);
    for (int i = 0; i < 16; ++i) {
      const auto before = h->stats();
      NvPtr p;
      const auto c = counted([&] { p = h->alloc(size); });
      ASSERT_FALSE(p.is_null());
      const auto after = h->stats();
      if (after.cache_misses != before.cache_misses) {
        add(&(*out)["cache_refill"], c);
      } else if (after.cache_hits != before.cache_hits) {
        add(&(*out)["cache_hit"], c);
      }
      held.push_back(p);
    }
    // Give back a random half, so later rounds of this class both hit and
    // refill.
    for (int i = 0; i < 8; ++i) {
      const std::size_t k = rng() % held.size();
      ASSERT_EQ(h->free(held[k]), core::FreeResult::kOk);
      held[k] = held.back();
      held.pop_back();
    }
  }
}

struct Budget {
  double lines = 0, fences = 0;
};

std::map<std::string, Budget> load_budget() {
  std::map<std::string, Budget> b;
  std::ifstream in(POSEIDON_PERSIST_BUDGET);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string op;
    Budget v;
    if (ss >> op >> v.lines >> v.fences) b[op] = v;
  }
  return b;
}

TEST(PersistCounts, PerOpCountsStayWithinBudget) {
  std::map<std::string, Tally> t;
  measure_subheap_ops(&t);
  measure_cache_ops(&t);
  const auto budget = load_budget();
  ASSERT_FALSE(budget.empty()) << "cannot read " << POSEIDON_PERSIST_BUDGET;
  for (const auto& [op, b] : budget) {
    const auto it = t.find(op);
    ASSERT_NE(it, t.end()) << op << ": budgeted but never measured";
    const Tally& m = it->second;
    ASSERT_GT(m.ops, 0u) << op;
    std::printf("%-13s ops=%-5llu lines/op=%6.2f (budget %5.2f)  "
                "fences/op=%5.2f (budget %5.2f)\n",
                op.c_str(), static_cast<unsigned long long>(m.ops),
                m.lines_per_op(), b.lines, m.fences_per_op(), b.fences);
    // Budgets are written to two decimals.
    EXPECT_LE(m.lines_per_op(), b.lines + 0.005) << op << " lines per op rose";
    EXPECT_LE(m.fences_per_op(), b.fences + 0.005) << op << " fences per op rose";
  }
  for (const auto& [op, m] : t) {
    EXPECT_TRUE(budget.count(op) != 0) << op << ": measured but not budgeted";
  }
}

}  // namespace
}  // namespace poseidon
