// perfbench: one workload of the allocator benchmark per invocation.
//
//   perfbench --workload <larson-tc|churn-tx|ycsb-tree>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--commit <id>]
//
// --trace 0 measures one untraced window and prints the end-to-end
// metrics.  --trace 1 splits the time into three windows on fresh heaps —
// untraced, traced (a span around every call), and untraced under the
// eADR persistence domain — and prints the per-layer metrics, the tracing
// overhead (untraced against traced) and the write-back share (detected
// domain against eADR).  The last line of stdout is one JSON object.
#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "core/heap.hpp"
#include "layers.hpp"
#include "mpk/mpk.hpp"
#include "pmem/persist.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using pb::Result;
using pb::WindowSpec;

struct EndToEnd {
  const char* name;
  const char* unit;
};

constexpr EndToEnd kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "ops/s"},
    {"insert_per_s", "ops/s"}, {"alloc_p50_ns", "ns"},
    {"alloc_p99_ns", "ns"},    {"free_p50_ns", "ns"},
    {"free_p99_ns", "ns"},     {"recover_s", "s"},
    {"space_amp", "ratio"},    {"rss_anon_mb", "MB"},
};

const char* layer_unit(const std::string& n) {
  static const std::map<std::string, const char*> units = {
      {"thread_cache.hit_ratio", "ratio"},
      {"hash_table.probe_mean", "slots"},
      {"hash_table.extensions", "count"},
      {"hash_table.shrinks", "count"},
      {"undo_log.commits_per_op", "1/op"},
      {"undo_log.saves_per_op", "1/op"},
      {"undo_log.commit_p50_cycles", "cycles"},
      {"micro_log.appends_per_tx", "1/tx"},
      {"mpk.switches_per_op", "1/op"},
      {"pmem.writeback_share", "ratio"},
      {"pmem.file_mb", "MB"},
      {"index.alloc_share", "ratio"},
      {"recover.blocks_reclaimed", "count"},
      {"recover.fsck_s", "s"},
      {"trace.overhead", "ratio"},
  };
  const auto it = units.find(n);
  if (it != units.end()) return it->second;
  if (n.ends_with("_per_kop")) return "1/kop";
  return "ns";
}

using Runner = Result (*)(const WindowSpec&);

Runner runner_for(const std::string& w) {
  if (w == "larson-tc") return pb::run_larson_tc;
  if (w == "churn-tx") return pb::run_churn_tx;
  if (w == "ycsb-tree") return pb::run_ycsb_tree;
  return nullptr;
}

// nproc, PKU, resolved protect mode and persistence domain (read off a
// small probe heap), build type and source revision.
void print_provenance(const std::string& dir, const std::string& commit) {
  std::string protect = "?", domain = "?";
  {
    pb::HeapDir probe(dir + "/probe");
    auto h = poseidon::core::Heap::create(probe.file("probe.heap"), 8ull << 20);
    protect = poseidon::mpk::mode_name(h->protect_mode());
    domain = poseidon::pmem::persist_domain_name(
        static_cast<poseidon::pmem::PersistDomain>(h->stats().persist_domain));
  }
  std::printf("# provenance: nproc=%ld pku=%s protect=%s persist_domain=%s "
              "build=%s commit=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              poseidon::mpk::pku_supported() ? "yes" : "no", protect.c_str(),
              domain.c_str(), PERFBENCH_BUILD_TYPE, commit.c_str());
}

void print_json(const Result& r, bool trace) {
  std::string m;
  char buf[160];
  auto add = [&](const std::string& name, const char* unit, double v) {
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", name.c_str(), v, unit);
    m += buf;
  };
  if (trace) {
    for (const std::string& n : pb::layer_metric_names()) add(n, layer_unit(n), r.get(n));
  } else {
    for (const EndToEnd& e : kEndToEnd) add(e.name, e.unit, r.get(e.name));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), m.c_str());
}

void print_notes(const char* label, const Result& r) {
  for (const std::string& n : r.notes) std::printf("# %s: %s\n", label, n.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <larson-tc|churn-tx|ycsb-tree> "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> a;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    a[argv[i] + 2] = argv[i + 1];
  }
  const Runner run = runner_for(a["workload"]);
  if (run == nullptr || a["seed"].empty() || a["seconds"].empty() ||
      a["work-dir"].empty() || (a["trace"] != "0" && a["trace"] != "1")) {
    return usage();
  }
  const std::uint64_t seed = std::stoull(a["seed"]);
  const double seconds = std::stod(a["seconds"]);
  const bool trace = a["trace"] == "1";
  const std::string work = a["work-dir"];
  if (seconds <= 0) return usage();

  // Under a file-size limit below a heap file, the create fails with EFBIG
  // and says so, instead of the process dying of SIGXFSZ without a word.
  ::signal(SIGXFSZ, SIG_IGN);

  try {
    // Heap files, models and traces of this run live in a private
    // directory removed on every exit path (HeapDir's destructor; the
    // launcher sweeps the directories of runs that were killed).
    pb::HeapDir run_dir(work + "/runs/" + std::to_string(::getpid()));
    constexpr std::uint64_t kNeed = 2ull << 30;
    if (pb::free_bytes(run_dir.path()) < kNeed) {
      std::fprintf(stderr, "perfbench: under 2 GiB free for heap files in %s\n",
                   run_dir.path().c_str());
      return 3;
    }
    print_provenance(run_dir.path(), a.count("commit") ? a["commit"] : "unknown");
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
                a["workload"].c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0);
    std::fflush(stdout);

    auto window = [&](const char* name, double secs, bool traced, bool eadr) {
      pb::HeapDir dir(run_dir.file(name));
      WindowSpec spec;
      spec.seed = seed;
      spec.seconds = secs;
      spec.traced = traced;
      spec.eadr = eadr;
      spec.dir = dir.path();
      if (traced) {
        spec.trace_path = work + "/trace-" + a["workload"] + ".spans";
        std::remove(spec.trace_path.c_str());
      }
      Result r = run(spec);
      print_notes(name, r);
      std::printf("# %s: ops_per_s=%.6g correct=%d\n", name, r.get("ops_per_s"),
                  r.correct ? 1 : 0);
      std::fflush(stdout);
      return r;
    };

    Result out;
    if (!trace) {
      out = window("untraced", seconds, false, false);
    } else {
      const Result plain = window("untraced", seconds / 3, false, false);
      out = window("traced", seconds / 3, true, false);
      const Result eadr = window("eadr", seconds / 3, false, true);
      const double ops = plain.get("ops_per_s");
      out.set("trace.overhead",
              out.get("ops_per_s") > 0 ? ops / out.get("ops_per_s") - 1 : 0);
      out.set("pmem.writeback_share",
              eadr.get("ops_per_s") > 0 ? 1 - ops / eadr.get("ops_per_s") : 0);
      out.correct = out.correct && plain.correct && eadr.correct;
      out.attempted += plain.attempted + eadr.attempted;
      out.failed += plain.failed + eadr.failed;
    }
    print_json(out, trace);
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
