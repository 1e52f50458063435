// Sub-heap engine tests: buddy allocation, splitting, merging, validated
// frees, defragmentation, counters and the structural invariant checker.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "core/subheap.hpp"

namespace poseidon::core {
namespace {

constexpr std::uint64_t kUserSize = 1 << 20;  // 1 MiB sub-heap

struct SubheapFixture : ::testing::Test {
  void SetUp() override {
    geo = compute_geometry(/*nsubheaps=*/1, kUserSize, /*level0=*/256);
    buf = static_cast<std::byte*>(::aligned_alloc(kPageSize, geo.file_size));
    std::memset(buf, 0, geo.file_size);
    meta = reinterpret_cast<SubheapMeta*>(buf + geo.subheap_meta_off);
    Subheap::format(meta, buf, geo, /*index=*/0, /*cpu=*/0);
    sh = std::make_unique<Subheap>(meta, buf, nullptr, /*undo=*/true);
  }
  void TearDown() override { ::free(buf); }

  void expect_invariants() {
    std::string why;
    ASSERT_TRUE(sh->check_invariants(&why)) << why;
  }

  Geometry geo{};
  std::byte* buf = nullptr;
  SubheapMeta* meta = nullptr;
  std::unique_ptr<Subheap> sh;
};

TEST_F(SubheapFixture, FreshHeapIsOneFreeBlock) {
  EXPECT_EQ(meta->free_blocks, 1u);
  EXPECT_EQ(meta->live_blocks, 0u);
  EXPECT_EQ(sh->free_bytes(), kUserSize);
  EXPECT_EQ(sh->largest_free_class(), log2_floor(kUserSize));
  expect_invariants();
}

TEST_F(SubheapFixture, AllocSplitsDownToRequestedClass) {
  const auto off = sh->alloc(100);  // class 7 (128 B)
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(*off % 128, 0u);
  // Splitting 2^20 -> 2^7 creates one free buddy per level: 13 of them.
  EXPECT_EQ(meta->free_blocks, 13u);
  EXPECT_EQ(meta->live_blocks, 1u);
  EXPECT_EQ(meta->allocated_bytes, 128u);
  expect_invariants();
}

TEST_F(SubheapFixture, MinimumClassIs32Bytes) {
  const auto off = sh->alloc(1);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(meta->allocated_bytes, 32u);
}

TEST_F(SubheapFixture, WholeRegionAllocatable) {
  const auto off = sh->alloc(kUserSize);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(*off, 0u);
  EXPECT_EQ(meta->free_blocks, 0u);
  EXPECT_FALSE(sh->alloc(32).has_value());  // nothing left
  expect_invariants();
}

TEST_F(SubheapFixture, RejectsZeroAndOversized) {
  EXPECT_FALSE(sh->alloc(0).has_value());
  EXPECT_FALSE(sh->alloc(kUserSize + 1).has_value());
}

TEST_F(SubheapFixture, FreeRoundTrip) {
  const auto off = sh->alloc(4096);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(sh->free_block(*off), FreeResult::kOk);
  EXPECT_EQ(meta->live_blocks, 0u);
  expect_invariants();
}

TEST_F(SubheapFixture, DoubleFreeDetected) {
  const auto off = sh->alloc(64);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(sh->free_block(*off), FreeResult::kOk);
  EXPECT_EQ(sh->free_block(*off), FreeResult::kDoubleFree);
  expect_invariants();
}

TEST_F(SubheapFixture, InvalidFreeDetected) {
  const auto off = sh->alloc(64);
  ASSERT_TRUE(off.has_value());
  // 32-aligned but strictly interior to a block (the buddy layout after
  // one 64-byte allocation is blocks at 0, 64, 128, 256, ...; offset 96
  // lies inside the free block at 64).
  EXPECT_EQ(sh->free_block(*off + 96), FreeResult::kInvalidFree);
  expect_invariants();
}

TEST_F(SubheapFixture, MisalignedAndOutOfRangeFreeDetected) {
  EXPECT_EQ(sh->free_block(17), FreeResult::kInvalidPointer);
  EXPECT_EQ(sh->free_block(kUserSize), FreeResult::kInvalidPointer);
  EXPECT_EQ(sh->free_block(kUserSize + 64), FreeResult::kInvalidPointer);
}

TEST_F(SubheapFixture, FreedBlocksGoToListTail) {
  // Paper §5.5: tail insertion delays reuse, so allocations come back in
  // the order blocks were freed (FIFO).
  const auto a = sh->alloc(64);
  const auto b = sh->alloc(64);
  const auto c = sh->alloc(64);
  ASSERT_TRUE(a && b && c);
  sh->free_block(*b);
  sh->free_block(*c);
  sh->free_block(*a);
  // Allocation pops from the head; frees append at the tail, so b, c and
  // a reappear in exactly that order (a split remainder that predates the
  // frees may pop first).
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) order.push_back(*sh->alloc(64));
  std::vector<std::uint64_t> ours;
  for (const auto off : order) {
    if (off == *a || off == *b || off == *c) ours.push_back(off);
  }
  EXPECT_EQ(ours, (std::vector<std::uint64_t>{*b, *c, *a}));
  expect_invariants();
}

TEST_F(SubheapFixture, DefragMergesBuddiesForLargeRequest) {
  // Fill with small blocks, free them all, then ask for the whole region:
  // only buddy merging can satisfy it.
  std::vector<std::uint64_t> offs;
  for (;;) {
    const auto off = sh->alloc(32);
    if (!off) break;
    offs.push_back(*off);
  }
  EXPECT_EQ(offs.size(), kUserSize / 32);
  for (const auto off : offs) {
    ASSERT_EQ(sh->free_block(off), FreeResult::kOk);
  }
  expect_invariants();
  const auto whole = sh->alloc(kUserSize);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, 0u);
  EXPECT_EQ(meta->free_blocks, 0u);
  expect_invariants();
}

TEST_F(SubheapFixture, DefragOnlyRunsAsFarAsNeeded) {
  // Free two adjacent buddies and a distant block; asking for the doubled
  // class must merge without disturbing unrelated blocks.
  const auto a = sh->alloc(4096);
  const auto b = sh->alloc(4096);
  const auto c = sh->alloc(4096);
  const auto keep = sh->alloc(4096);
  ASSERT_TRUE(a && b && c && keep);
  // Exhaust all remaining 8K+ blocks so only merging can serve 8K.
  std::vector<std::uint64_t> fill;
  for (;;) {
    const auto off = sh->alloc(4096);
    if (!off) break;
    fill.push_back(*off);
  }
  sh->free_block(*a);
  sh->free_block(*b);
  sh->free_block(*c);
  const auto big = sh->alloc(8192);
  ASSERT_TRUE(big.has_value());
  expect_invariants();
  for (const auto off : fill) sh->free_block(off);
  expect_invariants();
}

TEST_F(SubheapFixture, CountersStayBalanced) {
  Xoshiro256 rng(11);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;  // off, size
  std::uint64_t expect_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || (rng.next() & 1)) {
      const std::uint64_t sz = 32u << rng.next_below(6);
      const auto off = sh->alloc(sz);
      if (off) {
        live.emplace_back(*off, sz);
        expect_bytes += sz;
      }
    } else {
      const std::size_t k = rng.next_below(live.size());
      ASSERT_EQ(sh->free_block(live[k].first), FreeResult::kOk);
      expect_bytes -= live[k].second;
      live[k] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(meta->live_blocks, live.size());
  EXPECT_EQ(meta->allocated_bytes, expect_bytes);
  expect_invariants();
}

TEST_F(SubheapFixture, TxHookAppendsMicroLog) {
  TxHook hook{true, /*heap_id=*/77, /*subheap=*/0};
  const auto off = sh->alloc(64, hook);
  ASSERT_TRUE(off.has_value());
  ASSERT_EQ(micro_count(sh->micro()), 1u);
  EXPECT_EQ(sh->micro().entries[0], NvPtr::make(77, 0, *off));
  const auto off2 = sh->alloc(128, hook);
  ASSERT_TRUE(off2.has_value());
  EXPECT_EQ(micro_count(sh->micro()), 2u);
  micro_truncate(sh->micro());
  EXPECT_EQ(micro_count(sh->micro()), 0u);
}

TEST_F(SubheapFixture, SingletonAllocLeavesMicroLogAlone) {
  (void)sh->alloc(64);
  EXPECT_EQ(micro_count(sh->micro()), 0u);
}

TEST_F(SubheapFixture, UndoDisabledModeStillWorks) {
  Subheap unsafe(meta, buf, nullptr, /*undo=*/false);
  const auto off = unsafe.alloc(256);
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(unsafe.free_block(*off), FreeResult::kOk);
  expect_invariants();
}

TEST_F(SubheapFixture, CorruptFreeListLinkIsReportedNotFollowed) {
  // Free-list links name hash slots; the checker must range-check a link
  // and its slot's occupancy before it follows one.
  ASSERT_TRUE(sh->alloc(100).has_value());  // 13 free buddies, one per class
  const unsigned cls = 8;
  const std::uint64_t head = meta->free_heads[cls].head;
  ASSERT_NE(head, 0u);
  MemblockRec* rec = sh->table().at(head);
  ASSERT_EQ(rec->next_free, 0u);  // alone in its class
  const std::uint64_t active_slots =
      level_offset(meta->level0_slots, meta->levels_active) /
      sizeof(MemblockRec);
  std::uint64_t empty = 1;
  while (sh->table().at(empty)->key != 0) ++empty;
  for (const std::uint64_t bad : {active_slots + 1, std::uint64_t{1} << 40,
                                  empty}) {
    rec->next_free = bad;
    std::string why;
    EXPECT_FALSE(sh->check_invariants(&why)) << bad;
    EXPECT_NE(why.find("dangles"), std::string::npos) << why;
  }
  rec->next_free = 0;
  expect_invariants();
}

TEST_F(SubheapFixture, CappedTableTriggersWindowMergesWithoutDrift) {
  // Regression test: cap the hash table at one level so insert pressure is
  // permanent.  Splits then exercise the paper's §5.4 case 2 (merge free
  // buddy pairs whose records sit in the probed windows), and failed
  // splits roll back *through* those merges — which once leaked a
  // free_blocks counter decrement (the merge ran inside an op that later
  // aborted while counters were unlogged).
  meta->levels_max = 1;  // 256 slots for up to 32 Ki records
  Xoshiro256 rng(3);
  std::vector<std::pair<std::uint64_t, unsigned>> live;
  unsigned ooms = 0;
  for (int i = 0; i < 60000; ++i) {
    if (live.size() < 200 && (live.empty() || (rng.next() & 1))) {
      const unsigned cls = static_cast<unsigned>(rng.next_below(4));
      const auto off = sh->alloc(32u << cls);
      if (off) {
        live.emplace_back(*off, cls);
      } else {
        ++ooms;  // hash-table-full OOM is legal under the cap
      }
    } else {
      const std::size_t k = rng.next_below(live.size());
      ASSERT_EQ(sh->free_block(live[k].first), FreeResult::kOk);
      live[k] = live.back();
      live.pop_back();
    }
    if (i % 10000 == 0) expect_invariants();
  }
  expect_invariants();
  EXPECT_GT(meta->stat_window_merges, 0u)
      << "insert pressure must exercise the window-merge path";
  EXPECT_GT(ooms, 0u) << "the cap must actually bite";
  for (const auto& [off, cls] : live) {
    ASSERT_EQ(sh->free_block(off), FreeResult::kOk);
  }
  expect_invariants();
}

// Size-class sweep: every size in a wide range allocates a correctly
// aligned power-of-two block and frees cleanly.
class SubheapSizeSweep : public SubheapFixture,
                         public ::testing::WithParamInterface<std::uint64_t> {
};

TEST_P(SubheapSizeSweep, AllocAlignedAndFreeable) {
  const std::uint64_t size = GetParam();
  const auto off = sh->alloc(size);
  ASSERT_TRUE(off.has_value());
  const std::uint64_t block = round_up_pow2(size < 32 ? 32 : size);
  EXPECT_EQ(*off % block, 0u) << "buddy alignment";
  EXPECT_EQ(meta->allocated_bytes, block);
  EXPECT_EQ(sh->free_block(*off), FreeResult::kOk);
  expect_invariants();
}

INSTANTIATE_TEST_SUITE_P(Sizes, SubheapSizeSweep,
                         ::testing::Values(1, 31, 32, 33, 64, 100, 128, 255,
                                           256, 1000, 4096, 5000, 65536,
                                           100000, 1 << 19, 1 << 20));

}  // namespace
}  // namespace poseidon::core
