#include "checks.hpp"

#include <cstring>

#include "common/hash.hpp"
#include "harness.hpp"

namespace pb {

using poseidon::mix64;
using poseidon::core::FreeResult;
using poseidon::core::Heap;

namespace {

std::uint64_t load(const void* p, std::size_t off) noexcept {
  std::uint64_t v;
  std::memcpy(&v, static_cast<const char*>(p) + off, sizeof v);
  return v;
}
void store(void* p, std::size_t off, std::uint64_t v) noexcept {
  std::memcpy(static_cast<char*>(p) + off, &v, sizeof v);
}

constexpr std::uint64_t kPoison = 0xdeadbeefdeadbeefull;
constexpr std::uint64_t kTailSalt = 0x5ca1ab1e0ddba11ull;

}  // namespace

// Head word: token in the high 48 bits, size in the low 16.
void stamp_block(void* p, std::size_t size, std::uint64_t token) noexcept {
  const std::uint64_t head = (token << 16) | size;
  store(p, 0, head);
  // Stride words stop short of the last word so the two never overlap.
  for (std::size_t off = kStampStride; off + 16 <= size; off += kStampStride) {
    store(p, off, head ^ mix64(off));
  }
  if (size >= 16) store(p, size - 8, head ^ mix64(size - 8));
}

bool verify_and_poison(void* p, std::size_t* size) noexcept {
  const std::uint64_t head = load(p, 0);
  const std::size_t sz = head & 0xffff;
  *size = 0;
  if (sz < 8 || sz > kMaxStamped) return false;
  bool ok = true;
  for (std::size_t off = kStampStride; off + 16 <= sz; off += kStampStride) {
    ok &= load(p, off) == (head ^ mix64(off));
  }
  if (sz >= 16) ok &= load(p, sz - 8) == (head ^ mix64(sz - 8));
  store(p, 0, head ^ kPoison);
  if (ok) *size = sz;
  return ok;
}

void stamp_value(void* v, std::uint64_t key) noexcept {
  std::memset(v, 0x5a, kValueSize);
  store(v, 0, key);
  store(v, kValueSize - 8, key ^ kTailSalt);
}

bool value_has_key(const void* v, std::uint64_t key) noexcept {
  return v != nullptr && load(v, 0) == key &&
         load(v, kValueSize - 8) == (key ^ kTailSalt);
}

bool check_tree(const poseidon::index::FastFairTree& tree, std::uint64_t n,
                std::uint64_t (*key_of)(std::uint64_t, std::uint64_t),
                std::uint64_t key_salt, std::string* why) {
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t key = key_of(i, key_salt);
    const auto v = tree.search(key);
    if (!v) {
      *why = "key " + std::to_string(i) + " missing from the tree";
      return false;
    }
    if (!value_has_key(reinterpret_cast<const void*>(*v), key)) {
      *why = "key " + std::to_string(i) + " maps to a value stamped for another key";
      return false;
    }
  }
  std::vector<std::uint64_t> out(n + 1);
  const std::size_t count = tree.scan(0, n + 1, out.data());
  if (count != n) {
    *why = "tree holds " + std::to_string(count) + " keys, expected " +
           std::to_string(n);
    return false;
  }
  std::string tw;
  if (!tree.check(&tw)) {
    *why = "tree structure: " + tw;
    return false;
  }
  return true;
}

void stamp_churn(void* p, const ModelBlock& b) noexcept {
  const std::uint64_t s = mix64(b.ptr.packed ^ b.ptr.heap_id) ^ b.size;
  store(p, 0, s);
  if (b.size >= 16) store(p, b.size - 8, s ^ kTailSalt);
}

bool churn_stamp_ok(const void* p, const ModelBlock& b) noexcept {
  if (p == nullptr) return false;
  const std::uint64_t s = mix64(b.ptr.packed ^ b.ptr.heap_id) ^ b.size;
  return load(p, 0) == s && (b.size < 16 || load(p, b.size - 8) == (s ^ kTailSalt));
}

bool check_clean(Heap& heap, double* fsck_s, std::string* why) {
  const std::uint64_t t0 = now_ns();
  const poseidon::core::FsckReport rep = heap.fsck();
  *fsck_s = static_cast<double>(now_ns() - t0) / 1e9;
  if (rep.repaired != 0 || rep.quarantined != 0 || rep.records_dropped != 0 ||
      rep.records_synthesized != 0) {
    *why = "fsck repaired " + std::to_string(rep.repaired) + ", quarantined " +
           std::to_string(rep.quarantined) + " sub-heaps";
    return false;
  }
  std::string inv;
  if (!heap.check_invariants(&inv)) {
    *why = "invariants: " + inv;
    return false;
  }
  return true;
}

bool check_recovered(Heap& heap, const std::vector<ModelBlock>& model,
                     double* fsck_s, std::string* why) {
  std::string inv;
  if (!heap.check_invariants(&inv)) {
    *why = "invariants after recovery: " + inv;
    return false;
  }
  if (!check_clean(heap, fsck_s, why)) return false;
  for (const ModelBlock& b : model) {
    if (!churn_stamp_ok(heap.raw(b.ptr), b)) {
      *why = "committed block lost its stamp across the crash";
      return false;
    }
  }
  for (const ModelBlock& b : model) {
    const FreeResult r = heap.free(b.ptr);
    if (r != FreeResult::kOk) {
      *why = std::string("free of a committed block returned ") +
             poseidon::core::to_string(r);
      return false;
    }
  }
  for (const ModelBlock& b : model) {
    const FreeResult r = heap.free(b.ptr);
    if (r != FreeResult::kDoubleFree) {
      *why = std::string("second free of a committed block returned ") +
             poseidon::core::to_string(r);
      return false;
    }
  }
  const std::uint64_t live = heap.stats().live_blocks;
  if (live != 0) {
    *why = std::to_string(live) +
           " blocks live after freeing the model (recovery kept blocks the "
           "model does not own)";
    return false;
  }
  return true;
}

bool check_drained(Heap& heap, double* fsck_s, std::string* why) {
  const std::uint64_t live = heap.stats().live_blocks;
  if (live != 0) {
    *why = std::to_string(live) + " blocks live after the drain";
    return false;
  }
  return check_clean(heap, fsck_s, why);
}

}  // namespace pb
