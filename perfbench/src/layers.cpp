#include "layers.hpp"

#include "mpk/mpk.hpp"

namespace pb {

using poseidon::obs::kHistBuckets;

Counters Counters::read(const poseidon::core::Heap& heap) {
  Counters c;
  const poseidon::core::HeapStats s = heap.stats();
  const poseidon::obs::Metrics& m = heap.metrics();
  c.cache_hits = s.cache_hits;
  c.cache_misses = s.cache_misses;
  c.cache_flushes = s.cache_flushes;
  c.splits = s.splits;
  c.merges = s.merges + s.window_merges;
  c.defrag_runs = m.defrag_runs.read();
  c.hash_extensions = s.hash_extensions;
  c.hash_shrinks = s.hash_shrinks;
  c.undo_commits = m.undo_commits.read();
  c.undo_saves = m.undo_saves.read();
  c.micro_appends = m.micro_appends.read();
  c.tx_commits = m.tx_commits.read();
  c.mpk_switches = poseidon::mpk::write_window_switches();
  c.free_rejects = m.free_rejects.read();
  c.alloc_fails = m.alloc_fails.read();
  c.live_blocks = s.live_blocks;
  for (unsigned i = 0; i < kHistBuckets; ++i) {
    c.probe[i] = m.probe_len.bucket(i);
    c.undo_commit[i] = m.undo_commit_cycles.bucket(i);
  }
  return c;
}

Counters Counters::minus(const Counters& b) const {
  Counters d = *this;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.cache_flushes -= b.cache_flushes;
  d.splits -= b.splits;
  d.merges -= b.merges;
  d.defrag_runs -= b.defrag_runs;
  d.hash_extensions -= b.hash_extensions;
  d.hash_shrinks -= b.hash_shrinks;
  d.undo_commits -= b.undo_commits;
  d.undo_saves -= b.undo_saves;
  d.micro_appends -= b.micro_appends;
  d.tx_commits -= b.tx_commits;
  d.mpk_switches -= b.mpk_switches;
  d.free_rejects -= b.free_rejects;
  d.alloc_fails -= b.alloc_fails;
  for (unsigned i = 0; i < kHistBuckets; ++i) {
    d.probe[i] -= b.probe[i];
    d.undo_commit[i] -= b.undo_commit[i];
  }
  return d;
}

namespace {

double per(std::uint64_t n, std::uint64_t d, double scale = 1) {
  return d == 0 ? 0 : static_cast<double>(n) * scale / static_cast<double>(d);
}

// Mean of a histogram whose bucket index is the value itself (the hash
// table files each sampled insert under its probe distance).
double bucket_mean(const std::uint64_t* b) {
  double sum = 0, n = 0;
  for (unsigned i = 0; i < kHistBuckets; ++i) {
    sum += static_cast<double>(b[i]) * i;
    n += static_cast<double>(b[i]);
  }
  return n == 0 ? 0 : sum / n;
}

// Median of a log2 histogram, interpolated linearly inside its bucket.
double log2_median(const std::uint64_t* b) {
  std::uint64_t total = 0;
  for (unsigned i = 0; i < kHistBuckets; ++i) total += b[i];
  if (total == 0) return 0;
  const double target = static_cast<double>(total) / 2;
  double cum = 0;
  for (unsigned i = 0; i < kHistBuckets; ++i) {
    if (b[i] == 0) continue;
    if (cum + static_cast<double>(b[i]) >= target) {
      const double lo = static_cast<double>(1ull << i);
      return lo + (target - cum) / static_cast<double>(b[i]) * lo;
    }
    cum += static_cast<double>(b[i]);
  }
  return 0;
}

}  // namespace

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "thread_cache.hit_ratio",     "thread_cache.refills_per_kop",
      "thread_cache.flushes_per_kop", "subheap.splits_per_kop",
      "subheap.merges_per_kop",     "subheap.defrag_per_kop",
      "subheap.alloc_over_100us_per_kop", "hash_table.probe_mean",
      "hash_table.extensions",      "hash_table.shrinks",
      "undo_log.commits_per_op",    "undo_log.saves_per_op",
      "undo_log.commit_p50_cycles", "micro_log.appends_per_tx",
      "mpk.switches_per_op",        "pmem.writeback_share",
      "pmem.file_mb",               "index.insert_p50_ns",
      "index.search_p50_ns",        "index.update_p50_ns",
      "index.alloc_share",          "recover.blocks_reclaimed",
      "recover.fsck_s",             "svc.ping_p50_ns",
      "svc.ping_p99_ns",            "svc.batch_alloc_p50_ns",
      "trace.overhead"};
  return names;
}

void set_layer_metrics(Result& r, const Counters& d, const LayerInputs& in) {
  for (const std::string& n : layer_metric_names()) {
    if (!r.has(n)) r.set(n, 0);
  }
  const std::uint64_t ops = in.ops;
  r.set("thread_cache.hit_ratio",
        per(d.cache_hits, d.cache_hits + d.cache_misses));
  r.set("thread_cache.refills_per_kop", per(d.cache_misses, ops, 1000));
  r.set("thread_cache.flushes_per_kop", per(d.cache_flushes, ops, 1000));
  r.set("subheap.splits_per_kop", per(d.splits, ops, 1000));
  r.set("subheap.merges_per_kop", per(d.merges, ops, 1000));
  r.set("subheap.defrag_per_kop", per(d.defrag_runs, ops, 1000));
  r.set("hash_table.probe_mean", bucket_mean(d.probe));
  r.set("hash_table.extensions", static_cast<double>(d.hash_extensions));
  r.set("hash_table.shrinks", static_cast<double>(d.hash_shrinks));
  r.set("undo_log.commits_per_op", per(d.undo_commits, ops));
  r.set("undo_log.saves_per_op", per(d.undo_saves, ops));
  r.set("undo_log.commit_p50_cycles", log2_median(d.undo_commit));
  r.set("micro_log.appends_per_tx", per(d.micro_appends, d.tx_commits));
  r.set("mpk.switches_per_op", per(d.mpk_switches, ops));
  r.set("pmem.file_mb", in.file_mb);

  const Window& w = *in.window;
  const KindTotals alloc = w.totals(kAlloc);
  const KindTotals tx = w.totals(kTxAlloc);
  r.set("subheap.alloc_over_100us_per_kop",
        per(alloc.over_100us + tx.over_100us, ops, 1000));

  const KindTotals search = w.totals(kSearch);
  const KindTotals update = w.totals(kUpdate);
  const KindTotals insert = w.totals(kInsert);
  if (search.count + update.count > 0) {
    r.set("index.search_p50_ns", w.quantile_all(kSearch, 0.5));
    r.set("index.update_p50_ns", w.quantile_all(kUpdate, 0.5));
    // Allocator time against the index's own (self) time.
    const double a = static_cast<double>(alloc.total_ns + w.totals(kFree).total_ns);
    const double self = static_cast<double>(
        search.total_ns - search.child_ns + update.total_ns - update.child_ns +
        insert.total_ns - insert.child_ns);
    r.set("index.alloc_share", a + self > 0 ? a / (a + self) : 0);
  }
}

}  // namespace pb
