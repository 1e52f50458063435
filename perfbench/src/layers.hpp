// Per-layer accounting of the traced run: the program's existing public
// counters (Heap::stats(), Heap::metrics(), mpk::write_window_switches())
// snapshotted around a window, plus the span totals the benchmark records
// itself, turned into the per-layer metrics of BENCHMARK.json.
#pragma once

#include <cstdint>
#include <string>

#include "core/heap.hpp"
#include "harness.hpp"

namespace pb {

// One snapshot of the heap's public counters.  Read it only from the
// thread that opened the heap: under MPK `pkey` protection another thread
// may not read metadata.
struct Counters {
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_flushes = 0;
  std::uint64_t splits = 0, merges = 0, defrag_runs = 0;
  std::uint64_t hash_extensions = 0, hash_shrinks = 0;
  std::uint64_t undo_commits = 0, undo_saves = 0;
  std::uint64_t micro_appends = 0, tx_commits = 0;
  std::uint64_t mpk_switches = 0;
  std::uint64_t free_rejects = 0, alloc_fails = 0;
  std::uint64_t live_blocks = 0;
  std::uint64_t probe[poseidon::obs::kHistBuckets] = {};
  std::uint64_t undo_commit[poseidon::obs::kHistBuckets] = {};

  static Counters read(const poseidon::core::Heap& heap);
  // Counter-wise this - before (live_blocks is taken from this).
  Counters minus(const Counters& before) const;
};

// What a window did besides its counters: its spans, the operations it
// completed and the heap files' backing size at its end.
struct LayerInputs {
  const Window* window = nullptr;
  std::uint64_t ops = 0;
  double file_mb = 0;
};

// Sets every per-layer metric the heap counters and spans give.  Metrics of
// layers the workload does not cross read 0.
void set_layer_metrics(Result& r, const Counters& delta, const LayerInputs& in);

// Names of every per-layer metric, in report order.
const std::vector<std::string>& layer_metric_names();

}  // namespace pb
