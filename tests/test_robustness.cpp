// Robustness against malformed inputs and hostile on-disk state: truncated
// and corrupted pool files, corrupted undo-log fields, bad punch-hole
// arguments, null/garbage API inputs, and degenerate workload parameters.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <sstream>

#include "baselines/makalu_like/makalu_heap.hpp"
#include "baselines/pmdk_like/pmdk_heap.hpp"
#include "core/c_api.h"
#include "core/heap.hpp"
#include "core/undo_log.hpp"
#include "tests/test_util.hpp"
#include "workloads/kernels.hpp"
#include "workloads/trace.hpp"
#include "workloads/zipf.hpp"

namespace poseidon {
namespace {

using core::Heap;
using test::small_opts;
using test::TempHeapPath;

TEST(Robustness, TruncatedPoolFileIsRejected) {
  TempHeapPath path("truncated");
  {
    auto h = Heap::create(path.str(), 1 << 20, small_opts());
    (void)h->alloc(64);
  }
  // Chop the file: the stored file_size no longer matches.
  ASSERT_EQ(truncate(path.c_str(), 8192), 0);
  EXPECT_THROW(Heap::open(path.str(), small_opts()), std::runtime_error);
}

TEST(Robustness, VersionAndMagicAreChecked) {
  TempHeapPath path("badmagic");
  {
    auto h = Heap::create(path.str(), 1 << 20, small_opts());
  }
  {
    // Flip one magic byte: since the superblock shadow (layout v4) this is
    // repairable corruption, not a fatal mismatch.
    pmem::Pool p = pmem::Pool::open(path.str());
    p.data()[0] ^= std::byte{0x1};
  }
  {
    auto h = Heap::open(path.str(), small_opts());
    EXPECT_GE(h->metrics().corruption_detected.read(), 1u);
    EXPECT_FALSE(h->alloc(64).is_null());
  }
  {
    // Corrupt the primary AND its shadow: now nothing vouches for the
    // file being a pool at all.
    pmem::Pool p = pmem::Pool::open(path.str());
    p.data()[0] ^= std::byte{0x1};
    p.data()[core::super_shadow_off()] ^= std::byte{0x1};
  }
  EXPECT_THROW(Heap::open(path.str(), small_opts()), std::runtime_error);
}

TEST(Robustness, BaselineOpensRejectForeignFiles) {
  TempHeapPath path("foreign");
  {
    // A Poseidon heap is not a PMDK-like pool, nor a Makalu-like one.
    auto h = Heap::create(path.str(), 1 << 20, small_opts());
  }
  EXPECT_THROW(baselines::PmdkHeap::open(path.str()), std::runtime_error);
  EXPECT_THROW(baselines::MakaluHeap::open(path.str()), std::runtime_error);
}

TEST(Robustness, PunchHoleHandlesMisalignedRange) {
  // fallocate(PUNCH_HOLE) accepts arbitrary byte ranges: whole blocks are
  // deallocated and partial blocks zeroed, so the range reads as zero
  // either way and neighbours are preserved.
  TempHeapPath path("badpunch");
  pmem::Pool p = pmem::Pool::create(path.str(), 64 << 10);
  std::memset(p.data(), 0x7e, 64 << 10);
  EXPECT_TRUE(p.punch_hole(100, 4096));
  EXPECT_EQ(p.data()[99], std::byte{0x7e});
  EXPECT_EQ(p.data()[100], std::byte{0});
  EXPECT_EQ(p.data()[100 + 4095], std::byte{0});
  EXPECT_EQ(p.data()[100 + 4096], std::byte{0x7e});
}

TEST(Robustness, UndoReplayIgnoresCorruptedLength) {
  // A crazy `len` in a log entry must not make replay scribble: the
  // valid-prefix scan stops at the first implausible entry.
  struct Arena {
    std::uint64_t undo_gen;
    core::UndoEntry undo[4];
    std::uint64_t words[8];
  } arena{};
  auto* base = reinterpret_cast<std::byte*>(&arena);
  arena.words[0] = 1;
  {
    core::UndoLogger undo(arena.undo_gen, arena.undo, base, true);
    undo.save_obj(arena.words[0]);
    arena.words[0] = 2;
    // Corrupt the entry length beyond the format maximum.
    arena.undo[0].len = 5000;
  }
  core::UndoLogger::replay(arena.undo_gen, arena.undo, base);
  EXPECT_EQ(arena.words[0], 2u) << "implausible entry skipped, not applied";
}

TEST(Robustness, UndoReplayIgnoresForeignGeneration) {
  struct Arena {
    std::uint64_t undo_gen;
    core::UndoEntry undo[4];
    std::uint64_t words[8];
  } arena{};
  auto* base = reinterpret_cast<std::byte*>(&arena);
  arena.words[0] = 7;
  {
    core::UndoLogger undo(arena.undo_gen, arena.undo, base, true);
    undo.save_obj(arena.words[0]);
    arena.words[0] = 9;
    arena.undo[0].gen += 40;  // entry claims a future generation
  }
  core::UndoLogger::replay(arena.undo_gen, arena.undo, base);
  EXPECT_EQ(arena.words[0], 9u);
}

TEST(Robustness, BaselineFreesOfGarbagePointersAreIgnored) {
  TempHeapPath pm_path("pm_garbage"), mk_path("mk_garbage");
  auto pm = baselines::PmdkHeap::create(pm_path.str(), 4 << 20);
  auto mk = baselines::MakaluHeap::create(mk_path.str(), 4 << 20);
  int local = 0;
  pm->free(nullptr);
  pm->free(&local);  // outside the pool: ignored, not crashed
  mk->free(nullptr);
  mk->free(&local);
  // Heaps still work afterwards.
  EXPECT_NE(pm->alloc(64), nullptr);
  EXPECT_NE(mk->alloc(64), nullptr);
}

TEST(Robustness, CApiTxCommitIdempotent) {
  TempHeapPath path("capi_commit");
  heap_t* heap = poseidon_init(path.c_str(), 1 << 20);
  ASSERT_NE(heap, nullptr);
  poseidon_tx_commit(heap);  // no open tx: no-op
  const nvmptr_t a = poseidon_tx_alloc(heap, 64, false);
  ASSERT_FALSE(nvmptr_is_null(a));
  poseidon_tx_commit(heap);
  poseidon_tx_commit(heap);  // double commit: no-op
  EXPECT_EQ(poseidon_free(heap, a), 0) << "committed allocation stays live";
  poseidon_finish(heap);
}

TEST(Robustness, TraceReplayDetectsCorruptTraces) {
  std::stringstream overwrite(
      "a 0 64\n"
      "a 0 64\n");  // slot 0 overwritten while full
  const auto t1 = workloads::Trace::parse(overwrite);
  iface::AllocatorConfig cfg;
  cfg.capacity = 4ull << 20;
  auto alloc = iface::make_allocator(iface::AllocatorKind::kPoseidon, cfg);
  EXPECT_THROW(t1.replay(*alloc), std::logic_error);

  std::stringstream empty_free("f 3\n");  // free of a never-filled slot
  const auto t2 = workloads::Trace::parse(empty_free);
  auto alloc2 = iface::make_allocator(iface::AllocatorKind::kPoseidon, cfg);
  EXPECT_THROW(t2.replay(*alloc2), std::logic_error);
}

TEST(Robustness, ZipfDegenerateParameters) {
  workloads::ZipfGenerator one(1, 0.99, 3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(one.next_rank(), 0u);
    EXPECT_EQ(one.next_scrambled(), 0u);
  }
  workloads::ZipfGenerator two(2, 0.5, 3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(two.next_rank(), 2u);
}

TEST(Robustness, KruskalOtherOrdersFitTheBuffers) {
  alignas(8) unsigned char bufs[3][workloads::kKruskalBufBytes];
  for (unsigned order = 2; order <= 6; ++order) {
    const std::uint64_t w =
        workloads::kruskal_mst(bufs[0], bufs[1], bufs[2], order, order);
    EXPECT_GT(w, 0u) << order;
    EXPECT_LE(w, (order - 1) * 1000ull) << order;
  }
}

TEST(Robustness, NQueensDegenerateBoards) {
  unsigned char board[16];
  EXPECT_EQ(workloads::nqueens_solve(board, 1), 1u);
  EXPECT_EQ(workloads::nqueens_solve(board, 2), 0u);
  EXPECT_EQ(workloads::nqueens_solve(board, 3), 0u);
}

TEST(Robustness, HeapSurvivesUserScribblingEverywhere) {
  // Scribble over the ENTIRE user region (the worst heap overflow an
  // application can produce), then verify metadata integrity and that the
  // allocator keeps functioning.
  TempHeapPath path("scribble");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  core::NvPtr p = h->alloc(4096);
  ASSERT_FALSE(p.is_null());
  auto* user_base = static_cast<char*>(h->raw(core::NvPtr::make(
      h->heap_id(), 0, 0)));
  std::memset(user_base, 0xa5, h->user_capacity());
  EXPECT_TRUE(h->check_invariants()) << "metadata untouched by user writes";
  EXPECT_EQ(h->free(p), core::FreeResult::kOk);
  core::NvPtr q = h->alloc(h->user_capacity());
  EXPECT_FALSE(q.is_null());
}

}  // namespace
}  // namespace poseidon
