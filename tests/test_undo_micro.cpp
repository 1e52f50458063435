// Protocol tests for the undo log and the micro log, including simulated
// power failures at every interesting boundary.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/micro_log.hpp"
#include "core/undo_log.hpp"
#include "pmem/persist.hpp"
#include "pmem/sim_domain.hpp"

namespace poseidon::core {
namespace {

// A fake metadata arena: an undo log plus some payload words it protects.
struct Arena {
  std::uint64_t undo_gen;
  UndoEntry undo[16];
  std::uint64_t words[64];
};

struct ArenaFixture : ::testing::Test {
  void SetUp() override {
    // aligned_alloc wants a size that is a multiple of the alignment.
    constexpr std::size_t kSize =
        (sizeof(Arena) + 2 * 4096 - 1) & ~std::size_t{4095};
    arena = static_cast<Arena*>(::aligned_alloc(4096, kSize));
    std::memset(arena, 0, sizeof(Arena));
  }
  void TearDown() override { ::free(arena); }

  std::byte* base() { return reinterpret_cast<std::byte*>(arena); }
  UndoLogger logger(bool enabled = true) {
    return UndoLogger(arena->undo_gen, arena->undo, base(), enabled);
  }

  Arena* arena = nullptr;
};

TEST_F(ArenaFixture, CommitKeepsNewValues) {
  arena->words[0] = 1;
  auto undo = logger();
  undo.save_obj(arena->words[0]);
  arena->words[0] = 2;
  undo.commit();
  UndoLogger::replay(arena->undo_gen, arena->undo, base());  // empty after commit: no-op
  EXPECT_EQ(arena->words[0], 2u);
}

TEST_F(ArenaFixture, RollbackRestoresOldValues) {
  arena->words[0] = 10;
  arena->words[1] = 20;
  auto undo = logger();
  undo.save(&arena->words[0], 16);
  arena->words[0] = 11;
  arena->words[1] = 21;
  undo.rollback();
  EXPECT_EQ(arena->words[0], 10u);
  EXPECT_EQ(arena->words[1], 20u);
}

TEST_F(ArenaFixture, ReplayRestoresUncommitted) {
  arena->words[5] = 50;
  auto undo = logger();
  undo.save_obj(arena->words[5]);
  arena->words[5] = 55;
  // No commit: simulate the crash by just replaying.
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[5], 50u);
}

TEST_F(ArenaFixture, ReplayIsIdempotent) {
  arena->words[3] = 30;
  auto undo = logger();
  undo.save_obj(arena->words[3]);
  arena->words[3] = 33;
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[3], 30u);
}

TEST_F(ArenaFixture, OldestValueWinsWhenLoggedTwice) {
  arena->words[0] = 1;
  auto undo = logger();
  undo.save_obj(arena->words[0]);
  arena->words[0] = 2;
  undo.save_obj(arena->words[0]);  // duplicate save of newer value
  arena->words[0] = 3;
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[0], 1u);  // pre-operation state
}

TEST_F(ArenaFixture, GenerationIsolatesOldEntries) {
  arena->words[0] = 1;
  {
    auto undo = logger();
    undo.save_obj(arena->words[0]);
    arena->words[0] = 2;
    undo.commit();
  }
  // A stale entry from the previous generation must not be replayed.
  arena->words[0] = 3;
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[0], 3u);
}

TEST_F(ArenaFixture, CorruptEntryChecksumStopsReplay) {
  arena->words[0] = 1;
  arena->words[1] = 2;
  auto undo = logger();
  undo.save_obj(arena->words[0]);
  arena->words[0] = 9;
  undo.save_obj(arena->words[1]);
  arena->words[1] = 9;
  // Corrupt the *first* entry: replay must treat the log as empty from
  // there (valid-prefix rule), so nothing gets restored.
  arena->undo[0].data[0] ^= 0xff;
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[0], 9u);
  EXPECT_EQ(arena->words[1], 9u);
}

TEST_F(ArenaFixture, DisabledLoggerDoesNothing) {
  arena->words[0] = 1;
  auto undo = logger(/*enabled=*/false);
  undo.save_obj(arena->words[0]);
  arena->words[0] = 2;
  undo.rollback();  // no-op when disabled
  EXPECT_EQ(arena->words[0], 2u);
  EXPECT_EQ(undo.used(), 0u);
}

TEST_F(ArenaFixture, SimulatedCrashMidOperation) {
  // With the simulator active, even *unflushed* undo entries must never
  // lead to wrong recovery: the protocol fences each saved entry (seal)
  // before the first mutation of its range.  Pinned to kCacheLineFlush so
  // the loss model holds whatever domain the process runs under.
  arena->words[0] = 100;
  pmem::SimDomain sim(arena, sizeof(Arena),
                      pmem::PersistDomain::kCacheLineFlush);
  sim.checkpoint();
  {
    auto undo = logger();
    undo.save_obj(arena->words[0]);
    undo.seal();  // the entry's flush is only durable after this fence
    arena->words[0] = 200;  // plain store: dirty, not persisted
  }
  sim.crash(7, /*survive_prob=*/0.0);  // drop all unflushed lines
  // The in-place mutation was unflushed -> lost; entry was persisted.
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[0], 100u);
}

TEST_F(ArenaFixture, SimulatedCrashAfterPersistedMutation) {
  arena->words[0] = 100;
  pmem::SimDomain sim(arena, sizeof(Arena),
                      pmem::PersistDomain::kCacheLineFlush);
  sim.checkpoint();
  {
    auto undo = logger();
    undo.save_obj(arena->words[0]);
    pmem::nv_store(arena->words[0], std::uint64_t{200});
    pmem::persist(&arena->words[0], 8);
    // crash before commit
  }
  sim.crash(8, 0.0);
  UndoLogger::replay(arena->undo_gen, arena->undo, base());
  EXPECT_EQ(arena->words[0], 100u);  // uncommitted -> rolled back
}

TEST(MicroLog, AppendTruncateRoundTrip) {
  MicroLog log{};
  EXPECT_EQ(micro_count(log), 0u);
  const NvPtr a = NvPtr::make(1, 0, 32);
  const NvPtr b = NvPtr::make(1, 0, 64);
  EXPECT_TRUE(micro_append(log, a));
  EXPECT_TRUE(micro_append(log, b));
  EXPECT_EQ(micro_count(log), 2u);
  EXPECT_EQ(log.entries[0], a);
  EXPECT_EQ(log.entries[1], b);
  micro_truncate(log);
  EXPECT_EQ(micro_count(log), 0u);
}

TEST(MicroLog, RejectsWhenFull) {
  MicroLog log{};
  for (std::size_t i = 0; i < kMicroCap; ++i) {
    EXPECT_TRUE(micro_append(log, NvPtr::make(1, 0, i * 32)));
  }
  EXPECT_FALSE(micro_append(log, NvPtr::make(1, 0, 9999)));
  EXPECT_EQ(micro_count(log), kMicroCap);
}

TEST(MicroLog, CountClampedAgainstGarbage) {
  MicroLog log{};
  log.count = kMicroCap + 1000;  // corrupted count must not overrun
  EXPECT_EQ(micro_count(log), kMicroCap);
}

TEST(MicroLog, EntryDurableBeforeCount) {
  // Under the simulator: if the count survived a crash, the entry did too
  // (entry is persisted before the count).
  alignas(4096) static MicroLog log;
  std::memset(&log, 0, sizeof(log));
  pmem::SimDomain sim(&log, sizeof(log),
                      pmem::PersistDomain::kCacheLineFlush);
  micro_append(log, NvPtr::make(9, 1, 128));
  sim.crash(3, 0.0);
  if (log.count == 1) {
    EXPECT_EQ(log.entries[0], NvPtr::make(9, 1, 128));
  }
  // Both were persisted by micro_append, so in fact:
  EXPECT_EQ(log.count, 1u);
}

}  // namespace
}  // namespace poseidon::core
