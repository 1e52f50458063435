// torture — shared pieces of the kill-torture harness (main.cpp has the
// CLI and the protocol overview): the configuration, the persisted
// slot-table model with its one audit, and the scenario driver that owns
// every child a mode forks.
#pragma once

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/heap.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "pmem/persist.hpp"

namespace poseidon::torture {

using core::Heap;
using core::NvPtr;

// ---- configuration ---------------------------------------------------------

struct Cfg {
  std::string path;
  std::uint64_t rounds = 25;
  std::uint64_t seed = 0;
  bool seed_given = false;
  unsigned shards = 2;
  unsigned threads = 4;
  std::uint64_t slots_per_thread = 48;
  std::uint64_t capacity = 32ull << 20;
  std::string fault;  // POSEIDON_FAULT clause syntax; armed in the child only
  bool keep = false;
  bool svc = false;         // allocation-service torture instead of owner torture
  bool kill_server = false; // --svc variant: SIGKILL the *server* every round
  bool kill_both = false;   // --svc variant: SIGKILL client AND server together
  bool snapshot = false;    // online-snapshot kill matrix (or svc backup leg)

  // Crash-state exploration (--crashcheck, DESIGN.md "Crash-state
  // exploration"): record one op per family, enumerate fence-level crash
  // images, reopen + audit each one.
  bool crashcheck = false;
  unsigned cc_exhaustive = 6;      // 2^n subsets up to this many at-risk lines
  unsigned cc_rand = 24;           // seeded random subsets per bounded instant
  std::uint64_t cc_budget = 4000;  // distinct images verified, run-wide
  bool cc_fork = false;            // audit each image in a forked child
  std::int64_t cc_sabotage = 0;    // >0: elide that persist; -1: sweep
  std::string cc_replay;           // --replay FILE: re-verify one saved state
  std::string cc_out;              // where a violation's replay file goes

  std::uint64_t nslots() const { return threads * slots_per_thread; }
};

core::Options base_opts(const Cfg& cfg, bool read_only = false);
// The poseidon code an exception carries; kOk for a foreign one.
ErrorCode code_of(const std::exception& e);
inline std::string snap_dir(const Cfg& cfg) { return cfg.path + ".snap"; }
// The snapshot's head image: the heap file's name inside snap_dir.
inline std::string snap_head(const Cfg& cfg) {
  return snap_dir(cfg) + "/" + cfg.path.substr(cfg.path.find_last_of('/') + 1);
}

// Prints "FAIL: <fmt>" to stderr; returns false.
bool fail(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---- persisted expectation model -------------------------------------------
//
// The heap's root object is a slot table.  Every committed publication is
// recorded in a slot *before* its tx_commit, and every deallocation clears
// the slot *before* the free — so after any SIGKILL the table is a
// conservative model of what must have survived: a checksummed slot whose
// block is live must carry exactly its tag-derived payload.

struct SlotRec {
  NvPtr ptr;           // null = empty
  std::uint64_t tag;   // names the payload stream; 0 = empty
  std::uint64_t csum;  // over (ptr, tag); guards torn slot writes
};
static_assert(sizeof(SlotRec) == 32);

struct SlotTable {
  std::uint64_t magic;
  std::uint64_t nslots;
  std::uint64_t seed;
  std::uint64_t round;
};

inline SlotRec* slots_of(SlotTable* t) { return reinterpret_cast<SlotRec*>(t + 1); }
inline std::uint64_t table_bytes(std::uint64_t nslots) {
  return sizeof(SlotTable) + nslots * sizeof(SlotRec);
}

// Stamps and persists an empty table of nslots over table_bytes(nslots).
void init_table(void* mem, std::uint64_t nslots, std::uint64_t seed);
// Creates a heap whose root is an empty table; null after a FAIL line.
std::unique_ptr<Heap> create_heap(const std::string& path,
                                  std::uint64_t capacity,
                                  const core::Options& o, std::uint64_t nslots,
                                  std::uint64_t seed);
// `raw` as a table of nslots, or null when it is missing or malformed.
SlotTable* as_table(void* raw, std::uint64_t nslots);

// Deterministic payload streams: splitmix64 over the tag.
inline std::uint64_t splitmix(std::uint64_t& x) {
  const std::uint64_t z = mix64(x);
  x += 0x9e3779b97f4a7c15ull;
  return z;
}
std::uint64_t size_for_tag(std::uint64_t tag);
void fill_payload(void* dst, std::uint64_t size, std::uint64_t tag);
bool payload_matches(const void* src, std::uint64_t size, std::uint64_t tag);

// Publish order: payload persisted, then the slot naming it (then, for a
// transactional publish, the commit).
void publish(void* raw, NvPtr p, SlotRec& s, std::uint64_t tag,
             std::uint64_t size);
// tx_alloc + publish + tx_commit; null (transaction closed) when full.
NvPtr tx_publish(Heap& heap, SlotRec& s, std::uint64_t tag,
                 std::uint64_t size);
// Clears and persists the slot, returning the block it named: the caller
// frees it after — never before — so no slot points at reusable memory.
NvPtr unpublish(SlotRec& s);

// ---- the slot-model audit --------------------------------------------------

using BlockKey = std::pair<std::uint64_t, std::uint64_t>;  // NvPtr words
inline BlockKey key_of(NvPtr p) { return {p.heap_id, p.packed}; }
using LiveSet = std::set<BlockKey>;

// Every allocated block in the set; false (with *why) when a shard is
// quarantined.
bool live_blocks(const Heap& heap, LiveSet* live, std::string* why);
// How many of the heap's flight events are one of `ops`.
std::uint64_t flight_count(const Heap& heap,
                           std::initializer_list<obs::FlightOp> ops);
// "" when fsck repaired nothing, else "(repaired=.. synthesized=..)".
std::string fsck_dirty(const core::FsckReport& rep);

// The audit's policy (in) and tallies (out).  Kill rounds excuse torn and
// unbacked slots (counted and cleared) and reclaim unreferenced blocks
// through validated free; images and the exact svc audits count either as
// a diff.
struct Audit {
  std::string where;            // prefixes DIFF and FAIL lines
  bool excuse_torn = false;     // torn / no-live-block slots: count + clear
  bool reclaim_leaks = false;   // unreferenced blocks: validated free
  bool strict_fsck = true;      // fsck must repair nothing
  std::uint64_t published = 0;  // live slots with their exact payload
  std::uint64_t aborted = 0;
  std::uint64_t torn = 0;
  std::uint64_t leaks = 0;
  std::uint64_t diffs = 0;
};

// Diffs the root slot table against the live blocks, then runs fsck and
// the invariant check.  Prints every diff; false on any failure.
bool audit_slots(Heap& heap, std::uint64_t nslots, Audit* a);

// A read-only open of the image at `path` passes the invariant check and,
// when nslots != 0, shows a table of nslots.  False after a FAIL line.
bool image_opens(const Cfg& cfg, const std::string& path,
                 std::uint64_t nslots, const std::string& what);

// ---- scenario driver -------------------------------------------------------

void remove_dir(const std::string& dir);  // a one-level directory

// Polls pred every step_ms until it holds (true) or timeout_ms pass (false).
template <class Pred>
bool poll_until(unsigned timeout_ms, unsigned step_ms, Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
  }
}

// Owns forked children.  Each child leads its own process group, which
// also holds whatever it forks (the servers an election starts), and takes
// that group down if this process dies first.  A child stays unreaped, so
// its pid and group id stay reserved, until kill() or kill_all() (which
// the destructor runs too) SIGKILLs its group and reaps it: no exit path
// leaves a worker or server running.
class Children {
 public:
  Children() = default;
  ~Children() { kill_all(); }
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;

  // Forks; the child runs f and never returns.  -1 when fork fails.
  template <class F>
  pid_t spawn(F&& f) {
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      (void)::setpgid(0, 0);
      (void)::signal(SIGHUP, [](int) { (void)::kill(0, SIGKILL); });
      (void)::prctl(PR_SET_PDEATHSIG, SIGHUP);
      if (::getppid() != parent) (void)::kill(0, SIGKILL);
      try {
        f();
      } catch (...) {
      }
      ::_exit(1);
    }
    if (pid > 0) {
      (void)::setpgid(pid, pid);
      pids_.push_back(pid);
    }
    return pid;
  }
  // Sends sig to an owned child's group, then reaps the child and returns
  // its wait status; a pid this owner did not fork just gets sig (-1).
  int kill(pid_t pid, int sig);
  int wait(pid_t pid);  // waits for an owned child to exit; its wait status
  void kill_all();

 private:
  std::vector<pid_t> pids_;
};

// One round-based mode.  run() removes stale files, then runs setup, the
// rounds in order and finish; every child the mode forked is killed and
// reaped on the way out, and on success the files go unless --keep.
class Scenario {
 public:
  explicit Scenario(const Cfg& c) : cfg(c), rng(c.seed) {}
  virtual ~Scenario() = default;
  int run();

 protected:
  virtual bool setup() = 0;
  virtual bool round(std::uint64_t r) = 0;
  virtual bool finish() = 0;  // final checks and the PASS line

  const Cfg& cfg;
  Children kids;
  std::mt19937_64 rng;
};

std::unique_ptr<Scenario> owner_scenario(const Cfg& cfg);  // owner.cpp
std::unique_ptr<Scenario> svc_scenario(const Cfg& cfg);    // svc.cpp
// On failure, cfg.cc_replay names the saved replay file (if any).
int run_crashcheck(Cfg& cfg);  // crashcheck.cpp

}  // namespace poseidon::torture
