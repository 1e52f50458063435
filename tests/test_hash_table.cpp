// Unit tests for the multi-level memblock hash table: probing, bounded
// windows, level extension/shrink, collision handling and O(1) shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "core/hash_table.hpp"

namespace poseidon::core {
namespace {

constexpr std::uint64_t kLevel0 = 256;
constexpr unsigned kLevels = 4;

struct HashFixture : ::testing::Test {
  void SetUp() override {
    const std::size_t meta_bytes = align_up(sizeof(SubheapMeta), kPageSize);
    const std::size_t hash_bytes =
        level_offset(kLevel0, kLevels) + kPageSize;
    buf_size = meta_bytes + hash_bytes;
    buf = static_cast<std::byte*>(::aligned_alloc(kPageSize, buf_size));
    std::memset(buf, 0, buf_size);
    meta = reinterpret_cast<SubheapMeta*>(buf);
    meta->level0_slots = kLevel0;
    meta->levels_active = 1;
    meta->levels_max = kLevels;
    meta->hash_off = meta_bytes;
    meta->user_size = 1 << 20;
    table = std::make_unique<HashTable>(meta, buf);
    undo = std::make_unique<UndoLogger>(meta->undo_gen, meta->undo, buf, true);
  }
  void TearDown() override { ::free(buf); }

  std::byte* buf = nullptr;
  std::size_t buf_size = 0;
  SubheapMeta* meta = nullptr;
  std::unique_ptr<HashTable> table;
  std::unique_ptr<UndoLogger> undo;

  MemblockRec* level_storage(unsigned lvl) const {
    return reinterpret_cast<MemblockRec*>(buf + meta->hash_off) +
           level_offset(kLevel0, lvl) / sizeof(MemblockRec);
  }
  // Occupies every slot of `lvl` with keys no test inserts, and sets the
  // level's count to match: the level is full.
  void fill_level(unsigned lvl) {
    MemblockRec* l = level_storage(lvl);
    const std::uint64_t slots = level_slots(kLevel0, lvl);
    for (std::uint64_t i = 0; i < slots; ++i) l[i].key = kForeignKey + i;
    meta->level_count[lvl] = slots;
  }
  // Activates `n` levels directly (no undo: fixture set-up).
  void activate(unsigned n) { meta->levels_active = n; }

  static constexpr std::uint64_t kForeignKey = std::uint64_t{1} << 40;
};

// First block offset (32 B aligned) whose probe window in a level of
// `slots` slots starts at slot `start`.
std::uint64_t offset_with_window_start(std::uint64_t slots,
                                       std::uint64_t start) {
  for (std::uint64_t off = 0;; off += 32) {
    if (HashTable::window_slot(HashTable::hash_of(off), slots, 0) == start) {
      return off;
    }
  }
}

TEST_F(HashFixture, InsertThenFind) {
  MemblockRec* rec = table->insert(320, *undo);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->key, 321u);
  EXPECT_EQ(table->find(320), rec);
  EXPECT_EQ(table->find(352), nullptr);
  EXPECT_EQ(table->record_count(), 1u);
}

TEST_F(HashFixture, EraseMakesSlotReusable) {
  MemblockRec* rec = table->insert(64, *undo);
  table->erase(rec, *undo);
  EXPECT_EQ(table->find(64), nullptr);
  EXPECT_EQ(table->record_count(), 0u);
  MemblockRec* again = table->insert(64, *undo);
  EXPECT_EQ(again, rec);  // same primary slot, no tombstone residue
}

TEST_F(HashFixture, ManyKeysAllFindable) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t off = 0; off < 200 * 32; off += 32) {
    MemblockRec* rec = table->insert(off, *undo);
    if (rec == nullptr) {
      // A probe window filled up (expected at ~80% level-0 load); real
      // callers defragment or extend — extend here.
      ASSERT_TRUE(table->try_extend(*undo)) << off;
      rec = table->insert(off, *undo);
      ASSERT_NE(rec, nullptr) << off;
    }
    undo->commit();  // one op per insert, as the sub-heap does
    keys.insert(off);
  }
  for (const auto off : keys) {
    ASSERT_NE(table->find(off), nullptr) << off;
  }
  EXPECT_EQ(table->record_count(), keys.size());
}

TEST_F(HashFixture, FillForcesLevelExtension) {
  // kLevel0 slots at level 0; inserting more must spill to level 1+.
  std::uint64_t inserted = 0;
  for (std::uint64_t off = 0; off < 3 * kLevel0 * 32; off += 32) {
    MemblockRec* rec = table->insert(off, *undo);
    if (rec == nullptr) {
      // A full window: real callers defragment, the raw table extends.
      ASSERT_TRUE(table->try_extend(*undo));
      rec = table->insert(off, *undo);
      ASSERT_NE(rec, nullptr);
    }
    undo->commit();
    ++inserted;
  }
  EXPECT_GT(table->levels_active(), 1u);
  EXPECT_EQ(table->record_count(), inserted);
  // Everything is still findable across levels.
  for (std::uint64_t off = 0; off < 3 * kLevel0 * 32; off += 32) {
    ASSERT_NE(table->find(off), nullptr) << off;
  }
}

TEST_F(HashFixture, ExtendStopsAtMaxLevels) {
  for (unsigned i = 1; i < kLevels; ++i) {
    EXPECT_TRUE(table->try_extend(*undo));
  }
  EXPECT_EQ(table->levels_active(), kLevels);
  EXPECT_FALSE(table->try_extend(*undo));
}

TEST_F(HashFixture, ShrinkTopWhenEmpty) {
  ASSERT_TRUE(table->try_extend(*undo));
  EXPECT_EQ(table->levels_active(), 2u);
  const auto range = table->shrink_top_if_empty(*undo);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(table->levels_active(), 1u);
  // Range covers level 1: kLevel0*2 slots.
  EXPECT_EQ(range->len, kLevel0 * 2 * sizeof(MemblockRec));
  EXPECT_EQ(range->off, meta->hash_off + level_offset(kLevel0, 1));
}

TEST_F(HashFixture, ShrinkRefusesNonEmptyTop) {
  ASSERT_TRUE(table->try_extend(*undo));
  // Fill level 0 probe window for one hash bucket, pushing one key to L1.
  // Easier: lie via level_count to simulate occupancy.
  meta->level_count[1] = 1;
  EXPECT_FALSE(table->shrink_top_if_empty(*undo).has_value());
  meta->level_count[1] = 0;
  EXPECT_TRUE(table->shrink_top_if_empty(*undo).has_value());
}

TEST_F(HashFixture, ShrinkKeepsLevelZero) {
  EXPECT_FALSE(table->shrink_top_if_empty(*undo).has_value());
  EXPECT_EQ(table->levels_active(), 1u);
}

TEST_F(HashFixture, VisitWindowsSeesResidents) {
  MemblockRec* rec = table->insert(1024, *undo);
  rec->status = kBlockFree;
  unsigned seen = 0;
  table->visit_windows(1024, [&](MemblockRec* r) {
    if (r == rec) ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

TEST_F(HashFixture, UndoRollbackUndoesInsert) {
  table->insert(96, *undo);
  undo->rollback();
  EXPECT_EQ(table->find(96), nullptr);
  EXPECT_EQ(meta->level_count[0], 0u);
}

TEST_F(HashFixture, UndoRollbackUndoesErase) {
  MemblockRec* rec = table->insert(96, *undo);
  rec->size_class = 5;
  undo->commit();
  auto undo2 = UndoLogger(meta->undo_gen, meta->undo, buf, true);
  table->erase(rec, undo2);
  EXPECT_EQ(table->find(96), nullptr);
  undo2.rollback();
  MemblockRec* back = table->find(96);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->size_class, 5u);
}

TEST_F(HashFixture, ProbeCostIsBounded) {
  // O(1) shape check: lookups never touch more than
  // levels_max * kProbeWindow slots, independent of occupancy — verified
  // indirectly: a miss returns without scanning whole levels even when
  // thousands of records exist.
  for (unsigned i = 1; i < kLevels; ++i) table->try_extend(*undo);
  undo->commit();
  std::uint64_t n = 0;
  for (std::uint64_t off = 0; off < 1500 * 32 && n < 1500; off += 32, ++n) {
    if (table->insert(off, *undo) == nullptr) break;
    undo->commit();
  }
  // A missing key far outside the inserted range.
  EXPECT_EQ(table->find(1 << 19), nullptr);
}

TEST_F(HashFixture, WindowSlotWrapsByMask) {
  const std::uint64_t h = kLevel0 - 2;
  EXPECT_EQ(HashTable::window_slot(h, kLevel0, 0), kLevel0 - 2);
  EXPECT_EQ(HashTable::window_slot(h, kLevel0, 1), kLevel0 - 1);
  EXPECT_EQ(HashTable::window_slot(h, kLevel0, 2), 0u);
  EXPECT_EQ(HashTable::window_slot(h, kLevel0, kProbeWindow - 1),
            kProbeWindow - 3);
  EXPECT_TRUE(HashTable::in_window(h, kLevel0, kLevel0 - 2));
  EXPECT_TRUE(HashTable::in_window(h, kLevel0, kProbeWindow - 3));
  EXPECT_FALSE(HashTable::in_window(h, kLevel0, kProbeWindow - 2));
  EXPECT_FALSE(HashTable::in_window(h, kLevel0, kLevel0 - 3));
  // Only the low bits of the hash place the window.
  EXPECT_EQ(HashTable::window_slot(h + 7 * kLevel0, kLevel0, 5),
            HashTable::window_slot(h, kLevel0, 5));
}

TEST_F(HashFixture, WindowsWrapPastLevelEnd) {
  // A window starting `d` slots before the end of a level, with those `d`
  // slots taken: insert must wrap to slot 0, and find, visit_windows and
  // erase must follow it there.  At level 0 and, with level 0 full, at
  // level 1.
  for (unsigned lvl = 0; lvl < 2; ++lvl) {
    if (lvl == 1) {
      activate(2);
      fill_level(0);
    }
    const std::uint64_t slots = level_slots(kLevel0, lvl);
    MemblockRec* l = level_storage(lvl);
    for (const std::uint64_t d : {1u, 8u, kProbeWindow - 1}) {
      SCOPED_TRACE("level " + std::to_string(lvl) + " d " + std::to_string(d));
      const std::uint64_t off = offset_with_window_start(slots, slots - d);
      for (std::uint64_t i = slots - d; i < slots; ++i) {
        l[i].key = kForeignKey + i;
      }
      meta->level_count[lvl] = d;

      MemblockRec* rec = table->insert(off, *undo);
      ASSERT_EQ(rec, &l[0]);
      undo->commit();
      EXPECT_EQ(meta->level_count[lvl], d + 1);
      EXPECT_EQ(table->find(off), rec);
      unsigned seen = 0;
      bool saw_rec = false;
      table->visit_windows(off, [&](MemblockRec* r) {
        if (r >= l && r < l + slots) ++seen;
        saw_rec |= r == rec;
      });
      EXPECT_EQ(seen, d + 1);
      EXPECT_TRUE(saw_rec);

      table->erase(rec, *undo);
      undo->commit();
      EXPECT_EQ(table->find(off), nullptr);
      EXPECT_EQ(meta->level_count[lvl], d);
      for (std::uint64_t i = slots - d; i < slots; ++i) l[i].key = 0;
      meta->level_count[lvl] = 0;
    }
  }
}

TEST_F(HashFixture, FindsEveryLevelUnderEveryCountOrdering) {
  // One record per level, planted mid-window; level_count only orders the
  // probes, so every record must be found whatever the counts say —
  // distinct, tied, zero, and a nearly empty top level.
  activate(kLevels);
  std::array<std::uint64_t, kLevels> offs{};
  for (unsigned lvl = 0; lvl < kLevels; ++lvl) {
    offs[lvl] = (lvl + 1) * 4096;
    const std::uint64_t slots = level_slots(kLevel0, lvl);
    level_storage(lvl)[HashTable::window_slot(HashTable::hash_of(offs[lvl]),
                                              slots, 5)]
        .key = offs[lvl] + 1;
  }
  const std::vector<std::array<std::uint64_t, kLevels>> multisets = {
      {1, 2, 3, 4}, {5, 5, 5, 5}, {2, 2, 9, 9}, {0, 1, 1, 7}, {1, 290, 300, 300}};
  unsigned orderings = 0;
  for (auto counts : multisets) {
    std::sort(counts.begin(), counts.end());
    do {
      std::copy(counts.begin(), counts.end(), meta->level_count);
      for (unsigned lvl = 0; lvl < kLevels; ++lvl) {
        MemblockRec* rec = table->find(offs[lvl]);
        ASSERT_NE(rec, nullptr) << "level " << lvl << " counts " << counts[0]
                                << "," << counts[1] << "," << counts[2] << ","
                                << counts[3];
        EXPECT_EQ(rec->key, offs[lvl] + 1);
      }
      EXPECT_EQ(table->find(64 * 4096), nullptr);
      ++orderings;
    } while (std::next_permutation(counts.begin(), counts.end()));
  }
  EXPECT_EQ(orderings, 24u + 1u + 6u + 12u + 12u);
}

TEST_F(HashFixture, InsertSkipsFullLevelsAndCountsInspectedSlots) {
  // Levels 0 and 1 full: every insert lands in level 2, and the probe
  // histogram records the slots inspected there, not 2 * kProbeWindow plus
  // the offset.  Sampling is 1-in-64, so 64 inserts record at least one.
  auto metrics = std::make_unique<obs::Metrics>();
  HashTable t(meta, buf, metrics.get());
  activate(3);
  fill_level(0);
  fill_level(1);
  MemblockRec* l2 = level_storage(2);
  for (std::uint64_t i = 0; i < obs::kLatencySamplePeriod; ++i) {
    MemblockRec* rec = t.insert(i * 32, *undo);
    ASSERT_NE(rec, nullptr) << i;
    EXPECT_TRUE(rec >= l2 && rec < l2 + level_slots(kLevel0, 2)) << i;
    undo->commit();
  }
  EXPECT_EQ(meta->level_count[2], obs::kLatencySamplePeriod);
  std::uint64_t short_probes = 0;
  for (unsigned b = 0; b < 2 * kProbeWindow; ++b) {
    short_probes += metrics->probe_len.bucket(b);
  }
  EXPECT_EQ(short_probes, metrics->probe_len.count());
#if POSEIDON_OBS_ENABLED
  EXPECT_GE(metrics->probe_len.count(), 1u);
#endif
}

TEST_F(HashFixture, RandomChurnMatchesReferenceSet) {
  // Seeded insert/erase/extend/shrink churn; after every step the table
  // must hold exactly the reference set, with per-level counts that match
  // a scan.
  std::mt19937_64 rng(20201207);
  std::set<std::uint64_t> ref;
  constexpr std::uint64_t kKeySpace = 4096;  // offsets 0, 32, ..., 32*4095
  for (unsigned step = 0; step < 2000; ++step) {
    const unsigned dice = rng() % 100;
    if (dice < 55) {
      const std::uint64_t off = (rng() % kKeySpace) * 32;
      if (ref.count(off) == 0) {
        MemblockRec* rec = table->insert(off, *undo);
        if (rec == nullptr && table->try_extend(*undo)) {
          rec = table->insert(off, *undo);
        }
        if (rec != nullptr) ref.insert(off);
      }
    } else if (dice < 95) {
      if (!ref.empty()) {
        auto it = ref.begin();
        std::advance(it, rng() % ref.size());
        MemblockRec* rec = table->find(*it);
        ASSERT_NE(rec, nullptr) << step;
        table->erase(rec, *undo);
        ref.erase(it);
      }
    } else if (dice < 98) {
      table->try_extend(*undo);
    } else {
      table->shrink_top_if_empty(*undo);
    }
    undo->commit();

    ASSERT_EQ(table->record_count(), ref.size()) << step;
    for (const std::uint64_t off : ref) {
      MemblockRec* rec = table->find(off);
      ASSERT_NE(rec, nullptr) << "step " << step << " off " << off;
      ASSERT_EQ(rec->key, off + 1);
    }
    for (unsigned k = 0; k < 8; ++k) {
      const std::uint64_t off = (rng() % kKeySpace) * 32;
      ASSERT_EQ(table->find(off) != nullptr, ref.count(off) == 1)
          << "step " << step << " off " << off;
    }
    for (unsigned lvl = 0; lvl < table->levels_active(); ++lvl) {
      const MemblockRec* l = level_storage(lvl);
      std::uint64_t n = 0;
      for (std::uint64_t i = 0; i < level_slots(kLevel0, lvl); ++i) {
        n += l[i].key != 0;
      }
      ASSERT_EQ(n, meta->level_count[lvl]) << "step " << step << " lvl " << lvl;
    }
  }
  EXPECT_GT(table->levels_active(), 1u);  // the churn reached upper levels
}

}  // namespace
}  // namespace poseidon::core
