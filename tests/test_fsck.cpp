// Fault-domain verification + repair (core/fsck.cpp): checksummed
// metadata sealed at clean close, on-disk field-flip detection, scavenge
// rebuild preserving committed allocations, superblock shadow repair,
// state-word resurrection, quarantine + fsck revival, and the C API's
// typed error codes and fsck surface.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/c_api.h"
#include "core/heap.hpp"
#include "core/layout.hpp"
#include "tests/test_util.hpp"

namespace poseidon {
namespace {

using core::Heap;
using core::NvPtr;
using test::small_opts;
using test::TempHeapPath;

// ---- on-disk surgery helpers ------------------------------------------------

core::SuperBlock read_super(const std::string& path) {
  core::SuperBlock sb{};
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::pread(fd, &sb, sizeof(sb), 0),
            static_cast<ssize_t>(sizeof(sb)));
  ::close(fd);
  return sb;
}

void write_at(const std::string& path, std::uint64_t off, const void* data,
              std::size_t len) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, data, len, static_cast<off_t>(off)),
            static_cast<ssize_t>(len));
  ::close(fd);
}

void flip_byte(const std::string& path, std::uint64_t off) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  unsigned char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(off)), 1);
  b ^= 0xff;
  ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(off)), 1);
  ::close(fd);
}

// Builds a heap with `n` committed 32 B allocations, closes it cleanly
// (sealing the checksums), and returns the pointers.
std::vector<NvPtr> make_sealed_heap(const std::string& path, unsigned n) {
  auto h = Heap::create(path, 1 << 20, small_opts());
  std::vector<NvPtr> ptrs;
  for (unsigned i = 0; i < n; ++i) {
    const NvPtr p = h->alloc(32);
    EXPECT_FALSE(p.is_null());
    ptrs.push_back(p);
  }
  return ptrs;  // ~Heap seals
}

// After a detected corruption + repair, every committed block must be
// freeable exactly once and the heap internally consistent.
void expect_repaired(const std::string& path, const std::vector<NvPtr>& ptrs) {
  auto h = Heap::open(path, small_opts());
  EXPECT_GE(h->metrics().corruption_detected.read(), 1u);
  EXPECT_EQ(h->subheap_health(0), core::SubheapHealth::kReady);
  std::string why;
  EXPECT_TRUE(h->check_invariants(&why)) << why;
  for (const NvPtr& p : ptrs) {
    EXPECT_EQ(h->free(p), core::FreeResult::kOk);
    EXPECT_NE(h->free(p), core::FreeResult::kOk);  // never freeable twice
  }
}

// ---- sealed-close verification ----------------------------------------------

TEST(Fsck, CleanCloseAndReopenDetectsNothing) {
  TempHeapPath path("fsck_clean");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  EXPECT_EQ(sb.seal_state, core::kSealSealed);
  auto h = Heap::open(path.str(), small_opts());
  EXPECT_EQ(h->metrics().corruption_detected.read(), 0u);
  EXPECT_EQ(h->metrics().scavenge_repairs.read(), 0u);
  for (const NvPtr& p : ptrs) EXPECT_EQ(h->free(p), core::FreeResult::kOk);
  // The open dropped the seal; it only returns at the next clean close.
  h.reset();
  EXPECT_EQ(read_super(path.str()).seal_state, core::kSealSealed);
}

// ---- field-flip sweep: every checksummed region, flipped on disk ------------

TEST(Fsck, FlippedFreeListHeadIsDetectedAndRepaired) {
  TempHeapPath path("fsck_freelist");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  // The top-class remainder block always sits in its free list after 32 B
  // allocations; scribble that list head.
  const unsigned top = 20;  // log2(1 MiB)
  const std::uint64_t garbage = 0x1234567;
  write_at(path.str(),
           sb.subheap_meta_off + offsetof(core::SubheapMeta, free_heads) +
               top * sizeof(core::FreeListHead),
           &garbage, sizeof(garbage));
  expect_repaired(path.str(), ptrs);
}

TEST(Fsck, FlippedCounterIsDetectedAndRepaired) {
  TempHeapPath path("fsck_counter");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  flip_byte(path.str(),
            sb.subheap_meta_off + offsetof(core::SubheapMeta, live_blocks));
  expect_repaired(path.str(), ptrs);
}

TEST(Fsck, FlippedLevelsActiveIsDetectedAndRepaired) {
  TempHeapPath path("fsck_levels");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  flip_byte(path.str(),
            sb.subheap_meta_off + offsetof(core::SubheapMeta, levels_active));
  expect_repaired(path.str(), ptrs);
}

TEST(Fsck, FlippedSubheapMagicIsDetectedAndRepaired) {
  TempHeapPath path("fsck_shmagic");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  flip_byte(path.str(), sb.subheap_meta_off);
  expect_repaired(path.str(), ptrs);
}

TEST(Fsck, FlippedHashBucketIsDetectedAndRepaired) {
  TempHeapPath path("fsck_bucket");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  // Find the first occupied hash slot and wreck its status field: the
  // record fails validation, is dropped by the scavenge, and the gap is
  // covered by synthesized 32 B records — so a committed 32 B block whose
  // record died is STILL freeable exactly once.
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  core::MemblockRec rec{};
  std::uint64_t slot_off = 0;
  for (std::uint64_t i = 0; i < sb.level0_slots; ++i) {
    const std::uint64_t off = sb.hash_region_off + i * sizeof(rec);
    ASSERT_EQ(::pread(fd, &rec, sizeof(rec), static_cast<off_t>(off)),
              static_cast<ssize_t>(sizeof(rec)));
    if (rec.key != 0) {
      slot_off = off;
      break;
    }
  }
  ASSERT_NE(slot_off, 0u);
  const std::uint32_t bad_status = 0xdead;
  ASSERT_EQ(::pwrite(fd, &bad_status, sizeof(bad_status),
                     static_cast<off_t>(
                         slot_off + offsetof(core::MemblockRec, status))),
            static_cast<ssize_t>(sizeof(bad_status)));
  ::close(fd);
  expect_repaired(path.str(), ptrs);
}

TEST(Fsck, InterruptedRepairIsReRunAtOpen) {
  TempHeapPath path("fsck_rerun");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  const auto sb = read_super(path.str());
  // Simulate a crash mid-scavenge: the persisted state word says repairing.
  const std::uint64_t repairing = core::kSubheapRepairing;
  write_at(path.str(), offsetof(core::SuperBlock, subheap_state), &repairing,
           sizeof(repairing));
  auto h = Heap::open(path.str(), small_opts());
  EXPECT_GE(h->metrics().scavenge_repairs.read(), 1u);
  EXPECT_EQ(h->subheap_health(0), core::SubheapHealth::kReady);
  for (const NvPtr& p : ptrs) EXPECT_EQ(h->free(p), core::FreeResult::kOk);
  (void)sb;
}

// ---- state-word resurrection ------------------------------------------------

TEST(Fsck, CorruptedStateWordIsResurrectedAtSealedOpen) {
  TempHeapPath path("fsck_resurrect");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  // Flip ready -> absent at rest; the sealed metadata behind it is intact,
  // so open restores the state word instead of reformatting over the data.
  const std::uint64_t absent = core::kSubheapAbsent;
  write_at(path.str(), offsetof(core::SuperBlock, subheap_state), &absent,
           sizeof(absent));
  auto h = Heap::open(path.str(), small_opts());
  EXPECT_GE(h->metrics().corruption_detected.read(), 1u);
  EXPECT_EQ(h->subheap_health(0), core::SubheapHealth::kReady);
  for (const NvPtr& p : ptrs) EXPECT_EQ(h->free(p), core::FreeResult::kOk);
}

// ---- superblock shadow repair -----------------------------------------------

TEST(Fsck, SuperblockConfigFlipIsRepairedFromShadow) {
  TempHeapPath path("fsck_shadow");
  const auto ptrs = make_sealed_heap(path.str(), 3);
  // heap_id sits inside the checksummed config prefix.
  flip_byte(path.str(), offsetof(core::SuperBlock, heap_id));
  auto h = Heap::open(path.str(), small_opts());
  EXPECT_GE(h->metrics().corruption_detected.read(), 1u);
  for (const NvPtr& p : ptrs) EXPECT_EQ(h->free(p), core::FreeResult::kOk);
}

TEST(Fsck, SuperblockAndShadowBothCorruptIsTypedError) {
  TempHeapPath path("fsck_shadow2");
  make_sealed_heap(path.str(), 1);
  flip_byte(path.str(), offsetof(core::SuperBlock, heap_id));
  flip_byte(path.str(), core::super_shadow_off());  // shadow magic
  try {
    auto h = Heap::open(path.str(), small_opts());
    FAIL() << "open of a doubly-corrupt superblock must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.poseidon_code(), ErrorCode::kCorruptSuperblock);
  }
}

TEST(Fsck, NonPowerOfTwoLevel0IsRejectedAtOpen) {
  // A superblock whose config checksums correctly but whose level0_slots is
  // not a power of two: probe windows wrap by mask, so open refuses it.
  TempHeapPath path("fsck_level0");
  make_sealed_heap(path.str(), 1);
  auto sb = read_super(path.str());
  sb.level0_slots = 768;
  sb.config_csum = core::super_config_csum(sb);
  write_at(path.str(), 0, &sb, core::kSuperConfigBytes);
  write_at(path.str(), offsetof(core::SuperBlock, config_csum),
           &sb.config_csum, sizeof(sb.config_csum));
  try {
    auto h = Heap::open(path.str(), small_opts());
    FAIL() << "open with level0_slots = 768 must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.poseidon_code(), ErrorCode::kCorruptSuperblock);
  }
}

TEST(Fsck, GarbageFileIsNotAPool) {
  TempHeapPath path("fsck_garbage");
  {
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    std::vector<char> junk(1 << 20, '\x5a');
    ASSERT_EQ(::pwrite(fd, junk.data(), junk.size(), 0),
              static_cast<ssize_t>(junk.size()));
    ::close(fd);
  }
  try {
    auto h = Heap::open(path.str(), small_opts());
    FAIL() << "garbage file must not open";
  } catch (const Error& e) {
    EXPECT_EQ(e.poseidon_code(), ErrorCode::kNotAPool);
  }
}

// ---- quarantine + fsck revival ----------------------------------------------

TEST(Fsck, UnrecognizableSubheapIsQuarantinedAndFsckRevivesIt) {
  TempHeapPath path("fsck_revive");
  core::Options opts = small_opts(2);
  opts.policy = core::SubheapPolicy::kFixed0;
  opts.nshards = 1;  // white-box: both sub-heaps must share one pool shard
  std::vector<NvPtr> ptrs;
  {
    auto h = Heap::create(path.str(), 1 << 20, opts);
    for (unsigned i = 0; i < 3; ++i) {
      const NvPtr p = h->alloc(32);
      ASSERT_FALSE(p.is_null());
      ptrs.push_back(p);
    }
  }
  const auto sb = read_super(path.str());
  // Garbage state word + destroyed meta magic: open can neither trust nor
  // immediately rebuild it (no recognizable metadata behind a garbage
  // state), so sub-heap 0 is parked.
  const std::uint64_t garbage_state = 77;
  write_at(path.str(), offsetof(core::SuperBlock, subheap_state),
           &garbage_state, sizeof(garbage_state));
  const std::uint64_t garbage_magic = 0;
  write_at(path.str(), sb.subheap_meta_off, &garbage_magic,
           sizeof(garbage_magic));

  auto h = Heap::open(path.str(), opts);
  EXPECT_EQ(h->subheap_health(0), core::SubheapHealth::kQuarantined);
  EXPECT_EQ(h->subheap_health(1), core::SubheapHealth::kAbsent);
  EXPECT_EQ(h->stats().subheaps_quarantined, 1u);
  EXPECT_GE(h->metrics().subheaps_quarantined.read(), 1u);

  // Degraded service: frees into the quarantined sub-heap are refused with
  // the typed result, but allocation falls back to the healthy sub-heap
  // (materializing it on demand).
  EXPECT_EQ(h->free(ptrs[0]), core::FreeResult::kQuarantined);
  const NvPtr fallback = h->alloc(64);
  ASSERT_FALSE(fallback.is_null());
  EXPECT_EQ(fallback.subheap(), 1u);
  EXPECT_EQ(h->subheap_health(1), core::SubheapHealth::kReady);

  // fsck rebuilds sub-heap 0 from its (intact) hash records and returns it
  // to service; the committed blocks are freeable exactly once again.
  const auto rep = h->fsck();
  EXPECT_EQ(rep.repaired, 1u);
  EXPECT_EQ(h->subheap_health(0), core::SubheapHealth::kReady);
  EXPECT_EQ(h->stats().subheaps_quarantined, 0u);
  for (const NvPtr& p : ptrs) {
    EXPECT_EQ(h->free(p), core::FreeResult::kOk);
    EXPECT_NE(h->free(p), core::FreeResult::kOk);
  }
  std::string why;
  EXPECT_TRUE(h->check_invariants(&why)) << why;
}

TEST(Fsck, FsckOnHealthyHeapReportsClean) {
  TempHeapPath path("fsck_healthy");
  auto h = Heap::create(path.str(), 1 << 20, small_opts());
  ASSERT_FALSE(h->alloc(64).is_null());
  const auto rep = h->fsck();
  EXPECT_EQ(rep.checked, 1u);
  EXPECT_EQ(rep.clean, 1u);
  EXPECT_EQ(rep.repaired, 0u);
  EXPECT_EQ(rep.quarantined, 0u);
  EXPECT_EQ(h->metrics().fsck_runs.read(), 1u);
}

// ---- C API ------------------------------------------------------------------

TEST(Fsck, CApiSurfacesTypedErrorCodes) {
  TempHeapPath path("fsck_capi_err");
  {
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0600);
    ASSERT_GE(fd, 0);
    std::vector<char> junk(1 << 20, '\x77');
    ASSERT_EQ(::pwrite(fd, junk.data(), junk.size(), 0),
              static_cast<ssize_t>(junk.size()));
    ::close(fd);
  }
  EXPECT_EQ(poseidon_init(path.c_str(), 1 << 20), nullptr);
  EXPECT_EQ(poseidon_error_code(), POSEIDON_ERR_NOT_A_POOL);
  EXPECT_NE(poseidon_last_error(), nullptr);
  EXPECT_EQ(poseidon_init(nullptr, 1 << 20), nullptr);
  EXPECT_EQ(poseidon_error_code(), POSEIDON_ERR_INVALID_ARGUMENT);
}

TEST(Fsck, MemberSuperblockRepairsFromShadowDuringParallelOpen) {
  // A torn PRIMARY superblock in a shard member (shadow intact) is damage
  // the open-time repair path fixes in place — the member must come back
  // in service, not quarantined, and the corruption must be counted.
  TempHeapPath path("fsck_member_shadow");
  core::Options opts = test::small_opts(4);
  opts.nshards = 2;
  opts.shard_policy = core::ShardPolicy::kPerThread;
  opts.policy = core::SubheapPolicy::kPerThread;
  {
    auto h = core::Heap::create(path.str(), 2 << 20, opts);
    ASSERT_EQ(h->shard_count(), 2u);
  }
  // Destroy the member's superblock magic; its shadow page still holds the
  // full config prefix.
  const std::uint64_t garbage = 0;
  write_at(path.str() + ".shard1", offsetof(core::SuperBlock, magic),
           &garbage, sizeof(garbage));

  auto h = core::Heap::open(path.str(), opts);
  ASSERT_EQ(h->shard_count(), 2u);
  EXPECT_NE(h->shard(1), nullptr) << "repaired member must serve";
  EXPECT_EQ(h->stats().shards_quarantined, 0u);
  EXPECT_GE(h->metrics().corruption_detected.read(), 1u);
  const auto rep = h->fsck();
  EXPECT_EQ(rep.quarantined, 0u);
  std::string why;
  EXPECT_TRUE(h->check_invariants(&why)) << why;
}

TEST(Fsck, CApiFsckAndQuarantineStats) {
  TempHeapPath path("fsck_capi");
  heap_t* h = poseidon_init(path.c_str(), 1 << 20);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(poseidon_error_code(), POSEIDON_OK);
  const nvmptr_t p = poseidon_alloc(h, 64);
  ASSERT_FALSE(nvmptr_is_null(p));
  poseidon_fsck_report_t rep;
  EXPECT_EQ(poseidon_fsck(h, &rep), POSEIDON_OK);
  EXPECT_GE(rep.checked, 1u);
  EXPECT_EQ(rep.quarantined, 0u);
  poseidon_stats_t st;
  poseidon_get_stats(h, &st);
  EXPECT_EQ(st.subheaps_quarantined, 0u);
  EXPECT_GE(st.nshards, 1u);
  EXPECT_EQ(st.shards_quarantined, 0u);
  poseidon_finish(h);
  EXPECT_EQ(poseidon_fsck(nullptr, &rep), POSEIDON_ERR_INVALID_ARGUMENT);
}

}  // namespace
}  // namespace poseidon
