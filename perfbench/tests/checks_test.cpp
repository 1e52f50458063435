// Each of the benchmark's output checks must fire on a planted fault and
// stay quiet on a correct allocator.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/heap.hpp"
#include "alloc_iface/allocator.hpp"
#include "index/fastfair.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using poseidon::core::Heap;

// A scratch heap in the test's working directory.
struct ScratchHeap {
  pb::HeapDir dir{"perfbench_test." + std::to_string(::getpid())};
  std::string path = dir.file("t.heap");
  std::unique_ptr<Heap> heap = Heap::create(path, 32ull << 20);
};

struct Malloc {
  void* alloc(std::size_t s) { return std::malloc(s); }
  bool free(void* p) {
    std::free(p);
    return true;
  }
};

// Planted fault: every 16th allocation returns a block starting 32 bytes
// into the previous one, which is still live.  Blocks come from an arena
// and are never reused, so only the planted overlap can clobber a stamp.
struct Overlapping {
  std::vector<char> arena = std::vector<char>(8000 * (kLarsonMax + 64));
  std::size_t used = 0;
  char* last = nullptr;
  unsigned n = 0;
  void* alloc(std::size_t) {
    if (++n % 16 == 0 && last != nullptr) return last + 32;
    last = arena.data() + used;
    used += kLarsonMax + 64;
    return last;
  }
  bool free(void*) { return true; }
};

template <typename A>
LarsonTally run_steps(A& a, unsigned steps) {
  std::vector<std::atomic<void*>> slots(256);
  for (auto& s : slots) s.store(nullptr);
  Window w(1, false, 1);
  poseidon::Xoshiro256 rng = thread_rng(7, 0);
  LarsonTally t;
  for (unsigned i = 0; i < steps; ++i) {
    larson_step(a, rng, slots.data(), slots.size(), w.rec(0), 0, t);
  }
  for (auto& s : slots) {
    if (void* p = s.exchange(nullptr)) a.free(p);
  }
  return t;
}

TEST(LarsonStamps, CorrectAllocatorPasses) {
  Malloc m;
  const LarsonTally t = run_steps(m, 20000);
  EXPECT_EQ(t.bad_stamps, 0u);
  EXPECT_EQ(t.bad_frees, 0u);
}

TEST(LarsonStamps, HeapPassesSingleThreaded) {
  ScratchHeap s;
  struct {
    Heap* h;
    void* alloc(std::size_t n) { return h->raw(h->alloc(n)); }
    bool free(void* p) {
      return h->free(h->from_raw(p)) == poseidon::core::FreeResult::kOk;
    }
  } a{s.heap.get()};
  const LarsonTally t = run_steps(a, 20000);
  EXPECT_EQ(t.bad_stamps, 0u);
  EXPECT_EQ(t.bad_frees, 0u);
}

TEST(LarsonStamps, OverlappingBlocksAreCaught) {
  Overlapping o;
  const LarsonTally t = run_steps(o, 8000);
  EXPECT_GT(t.bad_stamps, 0u);
}

TEST(LarsonStamps, SameBlockHandedOutTwiceIsCaught) {
  std::vector<char> mem(kLarsonMax);
  void* p = mem.data();
  stamp_block(p, 100, 1);
  // The second owner restamps the same block; the first owner's check
  // still passes, but poisoning makes the second owner's check fail.
  stamp_block(p, 100, 2);
  std::size_t sz = 0;
  EXPECT_TRUE(verify_and_poison(p, &sz));
  EXPECT_FALSE(verify_and_poison(p, &sz));
}

// ---- recovery model (churn-tx) ---------------------------------------------

struct ModelHeap : ScratchHeap {
  std::vector<ModelBlock> model;
  ModelHeap() {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const std::uint64_t size = 64 + 37 * i;
      ModelBlock b{heap->alloc(size), size};
      stamp_churn(heap->raw(b.ptr), b);
      model.push_back(b);
    }
  }
};

TEST(RecoveryModel, ExactModelPasses) {
  ModelHeap m;
  double fsck_s = 0;
  std::string why;
  EXPECT_TRUE(check_recovered(*m.heap, m.model, &fsck_s, &why)) << why;
}

TEST(RecoveryModel, DroppedBlockIsCaught) {
  ModelHeap m;
  m.model.pop_back();  // recovery "kept" a block the model does not own
  double fsck_s = 0;
  std::string why;
  EXPECT_FALSE(check_recovered(*m.heap, m.model, &fsck_s, &why));
  EXPECT_NE(why.find("live"), std::string::npos) << why;
}

TEST(RecoveryModel, AddedBlockIsCaught) {
  ModelHeap m;
  // A block the heap no longer holds: recovery "lost" a committed block.
  ModelBlock gone{m.heap->alloc(128), 128};
  stamp_churn(m.heap->raw(gone.ptr), gone);
  ASSERT_EQ(m.heap->free(gone.ptr), poseidon::core::FreeResult::kOk);
  m.model.push_back(gone);
  double fsck_s = 0;
  std::string why;
  EXPECT_FALSE(check_recovered(*m.heap, m.model, &fsck_s, &why));
}

TEST(RecoveryModel, OverwrittenBlockIsCaught) {
  ModelHeap m;
  std::memset(m.heap->raw(m.model[5].ptr), 0, 8);
  double fsck_s = 0;
  std::string why;
  EXPECT_FALSE(check_recovered(*m.heap, m.model, &fsck_s, &why));
  EXPECT_NE(why.find("stamp"), std::string::npos) << why;
}

// ---- tree values (ycsb-tree) --------------------------------------------------

std::uint64_t test_key(std::uint64_t i, std::uint64_t salt) { return 2 * i + 1 + salt; }

struct TreeHeap : ScratchHeap {
  struct Alloc final : poseidon::iface::PAllocator {
    Heap* h = nullptr;
    void* alloc(std::size_t n) override { return h->raw(h->alloc(n)); }
    bool free(void* p) override {
      return h->free(h->from_raw(p)) == poseidon::core::FreeResult::kOk;
    }
    void set_root(void*) override {}
    void* root() const override { return nullptr; }
    const char* name() const noexcept override { return "test"; }
  } alloc;
  std::unique_ptr<poseidon::index::FastFairTree> tree;
  std::vector<void*> values;
  static constexpr std::uint64_t kN = 2000;

  TreeHeap() {
    alloc.h = heap.get();
    tree = std::make_unique<poseidon::index::FastFairTree>(&alloc);
    for (std::uint64_t i = 0; i < kN; ++i) {
      void* v = alloc.alloc(kValueSize);
      stamp_value(v, test_key(i, 0));
      tree->insert(test_key(i, 0), reinterpret_cast<std::uint64_t>(v));
      values.push_back(v);
    }
  }
};

TEST(TreeCheck, CorrectTreePasses) {
  TreeHeap t;
  std::string why;
  EXPECT_TRUE(check_tree(*t.tree, TreeHeap::kN, test_key, 0, &why)) << why;
}

TEST(TreeCheck, ValueStampedWithWrongKeyIsCaught) {
  TreeHeap t;
  stamp_value(t.values[777], test_key(778, 0));
  std::string why;
  EXPECT_FALSE(check_tree(*t.tree, TreeHeap::kN, test_key, 0, &why));
  EXPECT_NE(why.find("another key"), std::string::npos) << why;
}

TEST(TreeCheck, MissingKeyIsCaught) {
  TreeHeap t;
  ASSERT_TRUE(t.tree->remove(test_key(10, 0)));
  std::string why;
  EXPECT_FALSE(check_tree(*t.tree, TreeHeap::kN, test_key, 0, &why));
}

TEST(TreeCheck, ExtraKeyIsCaught) {
  TreeHeap t;
  void* v = t.alloc.alloc(kValueSize);
  stamp_value(v, 4);  // an even key: not one of the n keys
  ASSERT_TRUE(t.tree->insert(4, reinterpret_cast<std::uint64_t>(v)));
  std::string why;
  EXPECT_FALSE(check_tree(*t.tree, TreeHeap::kN, test_key, 0, &why));
  EXPECT_NE(why.find("keys"), std::string::npos) << why;
}

}  // namespace
}  // namespace pb
