// Layout-level tests: persistent pointer packing, geometry computation
// properties (swept across sub-heap counts and sizes), and on-media
// struct stability guarantees.
#include <gtest/gtest.h>

#include "common/bitops.hpp"
#include "core/layout.hpp"
#include "core/nvmptr.hpp"

namespace poseidon::core {
namespace {

TEST(NvPtrPacking, FieldsRoundTrip) {
  const NvPtr p = NvPtr::make(0xdeadbeefcafe1234ull, 0x7ab,
                              0x0000123456789abcull);
  EXPECT_EQ(p.heap_id, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(p.subheap(), 0x7ab);
  EXPECT_EQ(p.offset(), 0x0000123456789abcull);
}

TEST(NvPtrPacking, NullSemantics) {
  EXPECT_TRUE(NvPtr::null().is_null());
  EXPECT_TRUE((NvPtr{0, 12345}.is_null())) << "heap id 0 is null";
  EXPECT_FALSE(NvPtr::make(1, 0, 0).is_null());
}

TEST(NvPtrPacking, OffsetMaskedTo48Bits) {
  const NvPtr p = NvPtr::make(1, 0, ~std::uint64_t{0});
  EXPECT_EQ(p.offset(), NvPtr::kOffsetMask);
  EXPECT_EQ(p.subheap(), 0);
}

TEST(NvPtrPacking, ExtremesDoNotInterfere) {
  const NvPtr p = NvPtr::make(~std::uint64_t{0}, 0xffff, NvPtr::kOffsetMask);
  EXPECT_EQ(p.subheap(), 0xffff);
  EXPECT_EQ(p.offset(), NvPtr::kOffsetMask);
  const NvPtr q = NvPtr::make(1, 0xffff, 0);
  EXPECT_EQ(q.offset(), 0u);
  EXPECT_EQ(q.subheap(), 0xffff);
}

struct GeoCase {
  unsigned nsubheaps;
  std::uint64_t user_size;
  std::uint64_t level0;
};

class GeometrySweep : public ::testing::TestWithParam<GeoCase> {};

TEST_P(GeometrySweep, RegionsAreDisjointOrderedAndAligned) {
  const GeoCase c = GetParam();
  const Geometry g = compute_geometry(c.nsubheaps, c.user_size, c.level0);

  // Ordering: super < subheap metas < hash regions < cache logs < user.
  EXPECT_GE(g.subheap_meta_off, sizeof(SuperBlock));
  EXPECT_GE(g.hash_region_off,
            g.subheap_meta_off + c.nsubheaps * g.subheap_meta_stride);
  EXPECT_GE(g.cache_log_off,
            g.hash_region_off + c.nsubheaps * g.hash_region_stride);
  EXPECT_GE(g.user_region_off,
            g.cache_log_off + kCacheSlots * g.cache_log_stride);
  // The file ends at the user regions plus huge-page tail padding only.
  EXPECT_GE(g.file_size, g.user_region_off + c.nsubheaps * c.user_size);
  EXPECT_EQ(g.file_size,
            align_up(g.user_region_off + c.nsubheaps * c.user_size,
                     kHugePageSize));

  // Page alignment everywhere (MPK domains and hole punching need it).
  EXPECT_EQ(g.subheap_meta_off % kPageSize, 0u);
  EXPECT_EQ(g.subheap_meta_stride % kPageSize, 0u);
  EXPECT_EQ(g.hash_region_off % kPageSize, 0u);
  EXPECT_EQ(g.hash_region_stride % kPageSize, 0u);
  EXPECT_EQ(g.cache_log_off % kPageSize, 0u);
  EXPECT_EQ(g.cache_log_stride % kPageSize, 0u);
  EXPECT_EQ(g.user_region_off % kPageSize, 0u);
  // The protected prefix stops where the cache logs start: the thread
  // cache's log appends must not pay a wrpkru switch.
  EXPECT_EQ(g.meta_size, g.cache_log_off);
  EXPECT_GE(g.cache_log_stride, sizeof(CacheLogSlot));

  // Strides actually hold their structures.
  EXPECT_GE(g.subheap_meta_stride, sizeof(SubheapMeta));
  EXPECT_GE(g.hash_region_stride, level_offset(c.level0, g.levels_max));
}

TEST_P(GeometrySweep, HashCapacityCoversWorstCase) {
  const GeoCase c = GetParam();
  const Geometry g = compute_geometry(c.nsubheaps, c.user_size, c.level0);
  // Worst case: every block is at minimum granularity.
  const std::uint64_t worst = c.user_size >> kMinBlockShift;
  std::uint64_t capacity = 0;
  for (unsigned lvl = 0; lvl < g.levels_max; ++lvl) {
    capacity += level_slots(c.level0, lvl);
  }
  EXPECT_GE(capacity, worst) << "hash table cannot track a full heap";
  EXPECT_LE(g.levels_max, kMaxHashLevels);
}

TEST_P(GeometrySweep, LevelsArePageAlignedForPunching) {
  const GeoCase c = GetParam();
  const Geometry g = compute_geometry(c.nsubheaps, c.user_size, c.level0);
  for (unsigned lvl = 0; lvl < g.levels_max; ++lvl) {
    EXPECT_EQ(level_offset(c.level0, lvl) % kPageSize, 0u) << lvl;
    EXPECT_EQ(level_slots(c.level0, lvl) * sizeof(MemblockRec) % kPageSize,
              0u)
        << lvl;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GeometrySweep,
    ::testing::Values(GeoCase{1, 64 << 10, 256},     // minimum heap
                      GeoCase{1, 1 << 20, 256},      // unit-test config
                      GeoCase{2, 2 << 20, 1024},     //
                      GeoCase{4, 16 << 20, 1024},    //
                      GeoCase{16, 64 << 20, 1024},   // bench config
                      GeoCase{64, 1ull << 30, 4096}  // large server heap
                      ));

TEST(LevelArithmetic, OffsetsArePrefixSums) {
  EXPECT_EQ(level_offset(256, 0), 0u);
  EXPECT_EQ(level_offset(256, 1), 256 * sizeof(MemblockRec));
  EXPECT_EQ(level_offset(256, 2), (256 + 512) * sizeof(MemblockRec));
  EXPECT_EQ(level_slots(256, 3), 2048u);
}

TEST(OnMediaStability, StructSizesAreFrozen) {
  // These sizes are the on-media format; changing them silently breaks
  // every existing pool file.  Bump kVersion when they must change.
  EXPECT_EQ(sizeof(NvPtr), 16u);
  EXPECT_EQ(sizeof(UndoEntry), 128u);
  EXPECT_EQ(sizeof(MemblockRec), 32u);
  EXPECT_EQ(sizeof(MicroLog), 8u + 16 * kMicroCap);
  EXPECT_EQ(sizeof(FreeListHead), 16u);
  EXPECT_EQ(sizeof(CacheLogSlot), 16u + 16 * kCacheLogCap);
}

}  // namespace
}  // namespace poseidon::core
