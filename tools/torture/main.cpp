// torture — randomized kill-torture harness for the ownership and
// crash-recovery story.
//
// Protocol per owner round (owner.cpp):
//   1. fork a worker child that opens the shard set read-write (taking the
//      OFD locks and stamping the owner record), handshakes one byte over a
//      pipe, then hammers a mixed workload from several threads: publishes
//      (tx_alloc -> persist payload -> persist slot -> tx_commit),
//      unpublishes (persist CLEARED slot, then free — never the other way
//      round), and cached singleton scratch churn.
//   2. while the child lives, prove exclusion: a second read-write open
//      must fail with kHeapBusy; a read-only open must succeed and show
//      the child as owner.
//   3. SIGKILL the child at a seeded random point (some rounds race the
//      open itself), reap it, and reopen read-write: the stale owner must
//      be superseded (owner_takeovers == shard count when the child had
//      fully opened), recovery must replay the logs, and the persisted
//      slot table must agree with the surviving blocks (model.cpp):
//        valid slot + live block      -> payload must match its tag stream
//        valid slot + no live block   -> aborted publish; slot dropped
//        live block no slot points at -> leak, reclaimed via validated free
//   4. strict fsck (nothing repaired / quarantined / dropped when no
//      faults are armed) and the invariant check must pass; the heap then
//      closes cleanly so the next round starts from a clean owner record.
//
// --snapshot, --svc [--kill-server|--kill-both] and --crashcheck swap in
// the other modes (owner.cpp, svc.cpp, crashcheck.cpp); every round-based
// mode runs under the one scenario driver (driver.cpp).
//
// The seed is printed up front; a failing run prints a REPRODUCE line
// with every setting it ran with.  POSEIDON_FUZZ_MULT multiplies the round
// count (nightly CI).  `--fault op:period:errno[,...]` arms syscall fault
// injection inside the worker child only (same clause format as the
// POSEIDON_FAULT variable); the model diff stays strict but fsck
// strictness is relaxed, since injected faults legitimately quarantine
// sub-heaps.
//
//   $ POSEIDON_FAKE_NUMA=2 ./torture --rounds 25 --seed 42

#include <cstdlib>

#include "torture.hpp"

using poseidon::torture::Cfg;

namespace {

// The command line that reruns `cfg`: every setting, rounds as given (the
// environment's multiplier rides in front).
std::string reproduce_line(const Cfg& cfg, const char* argv0,
                           std::uint64_t rounds_given, long mult) {
  std::string s = "POSEIDON_FAKE_NUMA=" + std::to_string(cfg.shards) + " ";
  if (mult > 1) s += "POSEIDON_FUZZ_MULT=" + std::to_string(mult) + " ";
  s += argv0;
  auto flag = [&](bool on, const char* name, const std::string& v = {}) {
    if (on) s += std::string(" ") + name + (v.empty() ? "" : " " + v);
  };
  flag(cfg.svc, "--svc");
  flag(cfg.kill_server, "--kill-server");
  flag(cfg.kill_both, "--kill-both");
  flag(cfg.snapshot, "--snapshot");
  flag(cfg.crashcheck, "--crashcheck");
  flag(true, "--rounds", std::to_string(rounds_given));
  flag(true, "--seed", std::to_string(cfg.seed));
  flag(true, "--shards", std::to_string(cfg.shards));
  flag(true, "--threads", std::to_string(cfg.threads));
  flag(true, "--slots", std::to_string(cfg.slots_per_thread));
  flag(true, "--capacity", std::to_string(cfg.capacity));
  flag(!cfg.fault.empty(), "--fault", cfg.fault);
  flag(cfg.crashcheck, "--cc-exhaustive", std::to_string(cfg.cc_exhaustive));
  flag(cfg.crashcheck, "--cc-rand", std::to_string(cfg.cc_rand));
  flag(cfg.crashcheck, "--cc-budget", std::to_string(cfg.cc_budget));
  flag(cfg.cc_fork, "--cc-fork");
  flag(cfg.cc_sabotage != 0, "--cc-sabotage",
       cfg.cc_sabotage < 0 ? "sweep" : std::to_string(cfg.cc_sabotage));
  flag(!cfg.cc_replay.empty(), "--replay", cfg.cc_replay);
  return s;
}

// A combination the selected mode would silently ignore, or null.
const char* rejected_combination(const Cfg& cfg) {
  if ((cfg.kill_server || cfg.kill_both) && !cfg.svc) {
    return "--kill-server/--kill-both require --svc";
  }
  if (cfg.kill_server && cfg.kill_both) {
    return "--kill-server and --kill-both are exclusive";
  }
  if (cfg.crashcheck && cfg.svc) return "--crashcheck and --svc are exclusive";
  if (cfg.snapshot && (cfg.kill_server || cfg.kill_both || cfg.crashcheck)) {
    return "--snapshot is not supported with --kill-server, --kill-both or "
           "--crashcheck";
  }
  if (cfg.snapshot && !cfg.fault.empty()) {
    return "--snapshot expects a fault-free run";
  }
  if (!cfg.fault.empty() && (cfg.svc || cfg.crashcheck)) {
    return "--fault is only armed by the owner kill rounds, not by --svc or "
           "--crashcheck";
  }
  if (cfg.shards == 0 || cfg.threads == 0 || cfg.slots_per_thread == 0 ||
      cfg.rounds == 0) {
    return "rounds/shards/threads/slots must be nonzero";
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Cfg cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v;
    if (a == "--rounds" && (v = next())) cfg.rounds = std::strtoull(v, nullptr, 0);
    else if (a == "--seed" && (v = next())) {
      cfg.seed = std::strtoull(v, nullptr, 0);
      cfg.seed_given = true;
    }
    else if (a == "--shards" && (v = next())) cfg.shards = static_cast<unsigned>(std::atoi(v));
    else if (a == "--threads" && (v = next())) cfg.threads = static_cast<unsigned>(std::atoi(v));
    else if (a == "--slots" && (v = next())) cfg.slots_per_thread = std::strtoull(v, nullptr, 0);
    else if (a == "--capacity" && (v = next())) cfg.capacity = std::strtoull(v, nullptr, 0);
    else if (a == "--fault" && (v = next())) cfg.fault = v;
    else if (a == "--path" && (v = next())) cfg.path = v;
    else if (a == "--keep") cfg.keep = true;
    else if (a == "--svc") cfg.svc = true;
    else if (a == "--kill-server") cfg.kill_server = true;
    else if (a == "--kill-both") cfg.kill_both = true;
    else if (a == "--snapshot") cfg.snapshot = true;
    else if (a == "--crashcheck") cfg.crashcheck = true;
    else if (a == "--cc-exhaustive" && (v = next())) {
      cfg.cc_exhaustive = static_cast<unsigned>(std::atoi(v));
    }
    else if (a == "--cc-rand" && (v = next())) {
      cfg.cc_rand = static_cast<unsigned>(std::atoi(v));
    }
    else if (a == "--cc-budget" && (v = next())) {
      cfg.cc_budget = std::strtoull(v, nullptr, 0);
    }
    else if (a == "--cc-fork") cfg.cc_fork = true;
    else if (a == "--cc-sabotage" && (v = next())) {
      cfg.cc_sabotage = std::strcmp(v, "sweep") == 0 ? -1 : std::atoll(v);
    }
    else if (a == "--cc-out" && (v = next())) cfg.cc_out = v;
    else if (a == "--replay" && (v = next())) cfg.cc_replay = v;
    else {
      std::fprintf(stderr,
                   "usage: %s [--rounds N] [--seed S] [--shards N] "
                   "[--threads N] [--slots N] [--capacity BYTES] "
                   "[--fault op:period:errno[,...]] [--path FILE] [--keep] "
                   "[--snapshot] [--svc [--kill-server|--kill-both] "
                   "[--snapshot]] [--crashcheck [--cc-exhaustive N] "
                   "[--cc-rand N] [--cc-budget N] [--cc-fork] "
                   "[--cc-sabotage N|sweep] [--cc-out FILE] "
                   "[--replay FILE]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (const char* why = rejected_combination(cfg)) {
    std::fprintf(stderr, "%s\n", why);
    return 2;
  }
  if (!cfg.seed_given) {
    cfg.seed = (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
               std::random_device{}();
  }
  if (cfg.path.empty()) {
    cfg.path = "/dev/shm/poseidon_torture." +
               std::to_string(::getpid()) + ".heap";
  }
  const std::uint64_t rounds_given = cfg.rounds;
  long mult = 1;
  if (const char* m = std::getenv("POSEIDON_FUZZ_MULT")) mult = std::atol(m);
  if (mult > 1) cfg.rounds *= static_cast<std::uint64_t>(mult);

  std::printf("torture%s%s%s: seed=%" PRIu64 " rounds=%" PRIu64
              " shards=%u threads=%u slots=%" PRIu64 " path=%s%s%s\n",
              cfg.svc ? (cfg.kill_server
                             ? " (svc kill-server)"
                             : (cfg.kill_both ? " (svc kill-both)" : " (svc)"))
                      : "",
              cfg.snapshot ? " (snapshot)" : "",
              cfg.crashcheck ? " (crashcheck)" : "",
              cfg.seed, cfg.rounds, cfg.shards, cfg.threads, cfg.nslots(),
              cfg.path.c_str(), cfg.fault.empty() ? "" : " fault=",
              cfg.fault.c_str());

  const int rc = cfg.crashcheck ? poseidon::torture::run_crashcheck(cfg)
                 : cfg.svc      ? poseidon::torture::svc_scenario(cfg)->run()
                                : poseidon::torture::owner_scenario(cfg)->run();
  if (rc != 0) {
    std::fprintf(stderr, "REPRODUCE: %s\n",
                 reproduce_line(cfg, argv[0], rounds_given, mult).c_str());
    if (cfg.keep) std::fprintf(stderr, "heap kept at %s\n", cfg.path.c_str());
  }
  return rc;
}
