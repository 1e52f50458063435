// Output checks of the allocator benchmark.  Each one tests a property the
// allocator must have — blocks never overlap, every free of a live block is
// accepted, recovery keeps exactly the committed blocks, the tree maps every
// key to a value written for that key — never a copy of an earlier run's
// output.  tests/checks_test.cpp plants a fault for each one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/heap.hpp"
#include "index/fastfair.hpp"

namespace pb {

// ---- block stamps (larson-tc and its svc probe) -------------------------------

inline constexpr std::size_t kStampStride = 32;  // the allocator's minimum block
inline constexpr std::size_t kMaxStamped = 4096;

// Writes a stamp derived from `token` into the block's first word, every
// kStampStride bytes, and its last word, so a live block overlapping it at
// the allocator's 32-byte granularity overwrites at least one of them.
// size in [8, kMaxStamped].
void stamp_block(void* p, std::size_t size, std::uint64_t token) noexcept;

// True when every stamped word of the block still matches its head.  The
// head is then poisoned, so if the allocator handed the same block to a
// second owner, that owner's own check fails.  *size receives the stamped
// size (0 when the head is not a valid stamp).
bool verify_and_poison(void* p, std::size_t* size) noexcept;

// ---- tree values (ycsb-tree) ----------------------------------------------------

inline constexpr std::size_t kValueSize = 100;

void stamp_value(void* v, std::uint64_t key) noexcept;
bool value_has_key(const void* v, std::uint64_t key) noexcept;

// Searches every key_of(i), i < n, and checks that each maps to a value
// stamped with that key, and that the tree holds exactly n keys.
bool check_tree(const poseidon::index::FastFairTree& tree, std::uint64_t n,
                std::uint64_t (*key_of)(std::uint64_t, std::uint64_t),
                std::uint64_t key_salt, std::string* why);

// ---- recovery model (churn-tx) ----------------------------------------------------

// A block the crashed process had committed: its handle and stamp.
struct ModelBlock {
  poseidon::core::NvPtr ptr;
  std::uint64_t size = 0;
};

// Stamps a churn block's first and last words from its handle and size.
void stamp_churn(void* p, const ModelBlock& b) noexcept;
bool churn_stamp_ok(const void* p, const ModelBlock& b) noexcept;

// After the crash reopen: the heap's invariants hold and fsck repairs and
// quarantines nothing; every model block still carries its stamp, frees
// exactly once with kOk and a second free returns kDoubleFree; afterwards
// no live block remains (so recovery reclaimed the open transactions).
// Run from the thread that opened the heap.  *fsck_s receives the time of
// the Heap::fsck pass.
bool check_recovered(poseidon::core::Heap& heap,
                     const std::vector<ModelBlock>& model, double* fsck_s,
                     std::string* why);

// Heap::fsck repairs and quarantines nothing and the invariants hold.
bool check_clean(poseidon::core::Heap& heap, double* fsck_s, std::string* why);

// After a drain: zero live blocks, clean fsck, invariants hold.
bool check_drained(poseidon::core::Heap& heap, double* fsck_s,
                   std::string* why);

}  // namespace pb
