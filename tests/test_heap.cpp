// Heap-level API tests: creation/open, persistent pointers, pointer
// conversion, root object, sub-heap policies, fallback, stats, hole
// punching, the registry and the C API of Fig. 5.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/c_api.h"
#include "core/heap.hpp"
#include "core/registry.hpp"
#include "tests/test_util.hpp"

namespace poseidon::core {
namespace {

using test::small_opts;
using test::TempHeapPath;

TEST(Heap, CreateRejectsExistingFile) {
  TempHeapPath path("create_twice");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  EXPECT_THROW(Heap::create(path.str(), 1 << 20, small_opts()),
               std::system_error);
}

TEST(Heap, OpenRejectsGarbageFile) {
  TempHeapPath path("garbage");
  {
    pmem::Pool p = pmem::Pool::create(path.str(), 1 << 20);
    std::memset(p.data(), 0x5a, 4096);
  }
  EXPECT_THROW(Heap::open(path.str(), small_opts()), std::runtime_error);
}

TEST(Heap, OpenOrCreateIsIdempotent) {
  TempHeapPath path("ooc");
  std::uint64_t id;
  {
    auto h = Heap::open_or_create(path.str(), 1 << 20, small_opts());
    id = h->heap_id();
  }
  auto h = Heap::open_or_create(path.str(), 1 << 20, small_opts());
  EXPECT_EQ(h->heap_id(), id) << "reopened, not recreated";
}

TEST(Heap, CapacityAtLeastRequested) {
  TempHeapPath path("capacity");
  auto h = Heap::create(path.str(), 3 << 20, small_opts(2));
  EXPECT_GE(h->user_capacity(), 3u << 20);
  EXPECT_EQ(h->nsubheaps(), 2u);
}

TEST(Heap, OptionsValidated) {
  TempHeapPath path("badopts");
  Options bad = small_opts();
  bad.level0_slots = 100;  // not a power of two
  EXPECT_THROW(Heap::create(path.str(), 1 << 20, bad), std::invalid_argument);
  bad.level0_slots = 768;  // a multiple of 256, but not a power of two
  EXPECT_THROW(Heap::create(path.str(), 1 << 20, bad), std::invalid_argument);
  bad = small_opts();
  bad.nsubheaps = kMaxSubheaps + 1;
  EXPECT_THROW(Heap::create(path.str(), 1 << 20, bad), std::invalid_argument);
}

TEST(Heap, CreateBeyondFileSizeLimitThrowsEfbig) {
  // Growing a file past the soft RLIMIT_FSIZE raises SIGXFSZ, which kills
  // the process by default; create must report EFBIG instead.  Forked, so
  // the lowered limit stays in the child.
  TempHeapPath path("fsize_limit");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::signal(SIGXFSZ, SIG_DFL);
    const rlimit lim{4u << 20, RLIM_INFINITY};
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(3);
    try {
      Heap::create(path.str(), 8 << 20, small_opts());
    } catch (const Error& e) {
      const bool efbig = e.poseidon_code() == ErrorCode::kIo &&
                         e.code().value() == EFBIG;
      ::_exit(efbig ? 0 : 2);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(1);  // created a file beyond the limit
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // nothing left behind
}

TEST(Heap, AllocDistinctWritableBlocks) {
  TempHeapPath path("alloc");
  auto h = Heap::create(path.str(), 4 << 20, small_opts());
  std::set<void*> raws;
  for (int i = 0; i < 100; ++i) {
    NvPtr p = h->alloc(64);
    ASSERT_FALSE(p.is_null());
    void* raw = h->raw(p);
    ASSERT_NE(raw, nullptr);
    EXPECT_TRUE(raws.insert(raw).second) << "overlapping allocation";
    std::memset(raw, i, 64);
  }
  EXPECT_TRUE(h->check_invariants());
}

TEST(Heap, RawRoundTripsThroughFromRaw) {
  TempHeapPath path("roundtrip");
  auto h = Heap::create(path.str(), 4 << 20, small_opts(2));
  for (const std::uint64_t size : {32u, 300u, 5000u}) {
    NvPtr p = h->alloc(size);
    ASSERT_FALSE(p.is_null());
    EXPECT_EQ(h->from_raw(h->raw(p)), p);
  }
}

TEST(Heap, RawRejectsForeignAndNull) {
  TempHeapPath path("rawbad");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  EXPECT_EQ(h->raw(NvPtr::null()), nullptr);
  EXPECT_EQ(h->raw(NvPtr::make(h->heap_id() + 1, 0, 0)), nullptr);
  EXPECT_EQ(h->raw(NvPtr::make(h->heap_id(), 40, 0)), nullptr);  // bad subheap
  int x = 0;
  EXPECT_EQ(h->from_raw(&x), NvPtr::null());
}

TEST(Heap, FreeValidation) {
  TempHeapPath path("freeval");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  NvPtr p = h->alloc(128);
  EXPECT_EQ(h->free(NvPtr::null()), FreeResult::kInvalidPointer);
  EXPECT_EQ(h->free(NvPtr::make(h->heap_id() + 1, 0, 0)),
            FreeResult::kInvalidPointer);
  EXPECT_EQ(h->free(p), FreeResult::kOk);
  EXPECT_EQ(h->free(p), FreeResult::kDoubleFree);
}

TEST(Heap, PersistenceAcrossReopen) {
  TempHeapPath path("persist");
  NvPtr saved;
  std::uint64_t id;
  {
    auto h = Heap::create(path.str(), 2 << 20, small_opts());
    saved = h->alloc(256);
    std::memcpy(h->raw(saved), "durable data here", 18);
    h->set_root(saved);
    id = h->heap_id();
  }
  auto h = Heap::open(path.str(), small_opts());
  EXPECT_EQ(h->heap_id(), id);
  NvPtr root = h->root();
  EXPECT_EQ(root, saved);
  EXPECT_STREQ(static_cast<const char*>(h->raw(root)), "durable data here");
  // The block is still tracked as allocated: freeing works exactly once.
  EXPECT_EQ(h->free(root), FreeResult::kOk);
  EXPECT_EQ(h->free(root), FreeResult::kDoubleFree);
}

TEST(Heap, RootDefaultsToNull) {
  TempHeapPath path("rootnull");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  EXPECT_TRUE(h->root().is_null());
  NvPtr p = h->alloc(64);
  h->set_root(p);
  EXPECT_EQ(h->root(), p);
  h->set_root(NvPtr::null());
  EXPECT_TRUE(h->root().is_null());
}

TEST(Heap, FallbackSpillsToOtherSubheaps) {
  TempHeapPath path("fallback");
  Options o = small_opts(4);
  o.policy = SubheapPolicy::kFixed0;  // every alloc targets sub-heap 0
  o.allow_fallback = true;
  auto h = Heap::create(path.str(), 4 << 20, o);
  const std::uint64_t per_subheap = h->user_capacity() / 4;
  std::vector<NvPtr> ptrs;
  // Allocate more than one sub-heap can hold.
  for (std::uint64_t got = 0; got < 2 * per_subheap; got += 1 << 16) {
    NvPtr p = h->alloc(1 << 16);
    ASSERT_FALSE(p.is_null()) << "fallback should spill";
    ptrs.push_back(p);
  }
  std::set<unsigned> used;
  for (const auto& p : ptrs) used.insert(p.subheap());
  EXPECT_GT(used.size(), 1u);
  EXPECT_TRUE(h->check_invariants());
}

TEST(Heap, NoFallbackFailsWhenLocalFull) {
  TempHeapPath path("nofallback");
  Options o = small_opts(2);
  o.policy = SubheapPolicy::kFixed0;
  o.allow_fallback = false;
  auto h = Heap::create(path.str(), 2 << 20, o);
  const std::uint64_t per_subheap = h->user_capacity() / 2;
  NvPtr whole = h->alloc(per_subheap);
  ASSERT_FALSE(whole.is_null());
  EXPECT_TRUE(h->alloc(1 << 16).is_null());
}

TEST(Heap, PerThreadPolicySpreadsSubheaps) {
  TempHeapPath path("perthread");
  Options o = small_opts(4);
  o.policy = SubheapPolicy::kPerThread;
  auto h = Heap::create(path.str(), 4 << 20, o);
  std::set<unsigned> used;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      NvPtr p = h->alloc(64);
      std::lock_guard<std::mutex> lk(mu);
      used.insert(p.subheap());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(used.size(), 1u) << "threads should land on different sub-heaps";
}

TEST(Heap, StatsAggregateAcrossSubheaps) {
  TempHeapPath path("stats");
  Options o = small_opts(2);
  o.policy = SubheapPolicy::kPerThread;
  auto h = Heap::create(path.str(), 2 << 20, o);
  std::vector<NvPtr> ps;
  for (int i = 0; i < 10; ++i) ps.push_back(h->alloc(64));
  const auto s = h->stats();
  EXPECT_EQ(s.live_blocks, 10u);
  EXPECT_EQ(s.allocated_bytes, 640u);
  EXPECT_EQ(s.nsubheaps, 2u);
  for (const auto& p : ps) h->free(p);
  EXPECT_EQ(h->stats().live_blocks, 0u);
}

TEST(Heap, MetadataRegionIsPageAlignedPrefix) {
  TempHeapPath path("metaregion");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  auto [base, len] = h->metadata_region();
  EXPECT_NE(base, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(base) % kPageSize, 0u);
  EXPECT_EQ(len % kPageSize, 0u);
  EXPECT_GT(len, sizeof(SuperBlock));
}

TEST(Heap, HolePunchingShrinksMetadataFootprint) {
  TempHeapPath path("punch");
  Options o = small_opts(1);
  o.level0_slots = 256;  // tiny level 0 -> extensions happen quickly
  auto h = Heap::create(path.str(), 4 << 20, o);
  // Fill with min-size blocks to force hash levels to grow...
  std::vector<NvPtr> ps;
  for (int i = 0; i < 30000; ++i) {
    NvPtr p = h->alloc(32);
    if (p.is_null()) break;
    ps.push_back(p);
  }
  const std::uint64_t grown = h->file_allocated_bytes();
  // ...then free everything and allocate the whole region, which merges
  // all records away and lets the top levels be punched.
  for (const auto& p : ps) ASSERT_EQ(h->free(p), FreeResult::kOk);
  NvPtr whole = h->alloc(h->user_capacity());
  ASSERT_FALSE(whole.is_null());
  EXPECT_LT(h->file_allocated_bytes(), grown)
      << "empty hash levels should be hole-punched back";
  EXPECT_TRUE(h->check_invariants());
}

TEST(Heap, RegistryFindsHeapByIdAndAddress) {
  TempHeapPath path("registry");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  EXPECT_EQ(registry::by_id(h->heap_id()), h.get());
  EXPECT_EQ(registry::by_id(h->heap_id() + 1), nullptr);
  NvPtr p = h->alloc(64);
  EXPECT_EQ(registry::by_address(h->raw(p)), h.get());
  int stack_var = 0;
  EXPECT_EQ(registry::by_address(&stack_var), nullptr);
  h.reset();
  EXPECT_EQ(registry::by_id(h ? h->heap_id() : 0), nullptr);
}

TEST(Heap, TwoHeapsCoexist) {
  TempHeapPath pa("multi_a"), pb("multi_b");
  auto ha = Heap::create(pa.str(), 1 << 20, small_opts());
  auto hb = Heap::create(pb.str(), 1 << 20, small_opts());
  EXPECT_NE(ha->heap_id(), hb->heap_id());
  NvPtr a = ha->alloc(64);
  NvPtr b = hb->alloc(64);
  // Cross-heap operations are rejected.
  EXPECT_EQ(ha->free(b), FreeResult::kInvalidPointer);
  EXPECT_EQ(hb->free(a), FreeResult::kInvalidPointer);
  EXPECT_EQ(ha->raw(b), nullptr);
  EXPECT_EQ(ha->free(a), FreeResult::kOk);
  EXPECT_EQ(hb->free(b), FreeResult::kOk);
}

TEST(CApi, Fig5RoundTrip) {
  TempHeapPath path("capi");
  heap_t* heap = poseidon_init(path.c_str(), 1 << 20);
  ASSERT_NE(heap, nullptr);

  nvmptr_t p = poseidon_alloc(heap, 100);
  ASSERT_FALSE(nvmptr_is_null(p));
  void* raw = poseidon_get_rawptr(p);
  ASSERT_NE(raw, nullptr);
  std::memcpy(raw, "fig5", 5);

  const nvmptr_t back = poseidon_get_nvmptr(raw);
  EXPECT_EQ(back.heap_id, p.heap_id);
  EXPECT_EQ(back.packed, p.packed);

  poseidon_set_root(heap, p);
  const nvmptr_t root = poseidon_get_root(heap);
  EXPECT_EQ(root.packed, p.packed);

  EXPECT_EQ(poseidon_free(heap, p), 0);
  EXPECT_NE(poseidon_free(heap, p), 0);  // double free rejected
  poseidon_finish(heap);
}

TEST(CApi, InitFailureReturnsNull) {
  EXPECT_EQ(poseidon_init("/nonexistent_dir/x.heap", 1 << 20), nullptr);
}

TEST(CApi, TxAllocCommits) {
  TempHeapPath path("capitx");
  heap_t* heap = poseidon_init(path.c_str(), 1 << 20);
  ASSERT_NE(heap, nullptr);
  const nvmptr_t a = poseidon_tx_alloc(heap, 64, false);
  const nvmptr_t b = poseidon_tx_alloc(heap, 64, true);
  EXPECT_FALSE(nvmptr_is_null(a));
  EXPECT_FALSE(nvmptr_is_null(b));
  EXPECT_EQ(poseidon_free(heap, a), 0);
  EXPECT_EQ(poseidon_free(heap, b), 0);
  poseidon_finish(heap);
}

}  // namespace
}  // namespace poseidon::core
