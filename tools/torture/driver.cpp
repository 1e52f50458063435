// The scenario driver: files, children and the round loop every
// round-based mode shares.

#include <dirent.h>

#include <algorithm>
#include <cstdarg>

#include "svc/svc_layout.hpp"
#include "torture.hpp"

namespace poseidon::torture {

bool fail(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "FAIL: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
  return false;
}

core::Options base_opts(const Cfg& cfg, bool read_only) {
  core::Options o;
  o.read_only = read_only;
  o.nshards = cfg.shards;
  o.nsubheaps = 2 * cfg.shards;
  o.protect = mpk::ProtectMode::kNone;
  // Round-robin policies give every worker thread a stable shard/sub-heap
  // home regardless of the box's real topology.
  o.shard_policy = core::ShardPolicy::kPerThread;
  o.policy = core::SubheapPolicy::kPerThread;
  o.flight = obs::FlightMode::kPersistent;
  return o;
}

ErrorCode code_of(const std::exception& e) {
  const auto* pe = dynamic_cast<const Error*>(&e);
  return pe != nullptr ? pe->poseidon_code() : ErrorCode::kOk;
}

void remove_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const struct dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
        (void)::unlink((dir + "/" + e->d_name).c_str());
      }
    }
    ::closedir(d);
  }
  (void)::rmdir(dir.c_str());
}

namespace {

// The shard set, its svc segment and its snapshot directory.
void unlink_heap(const Cfg& cfg) {
  (void)::unlink(cfg.path.c_str());
  for (unsigned i = 1; i < 16; ++i) {
    (void)::unlink((cfg.path + ".shard" + std::to_string(i)).c_str());
  }
  (void)::unlink(svc::svc_path(cfg.path).c_str());
  remove_dir(snap_dir(cfg));
}

}  // namespace

int Children::wait(pid_t pid) {
  if (std::find(pids_.begin(), pids_.end(), pid) == pids_.end()) return -1;
  siginfo_t si{};
  while (::waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOWAIT) < 0 &&
         errno == EINTR) {}
  return si.si_code == CLD_EXITED ? W_EXITCODE(si.si_status, 0)
                                  : W_EXITCODE(0, si.si_status);
}

int Children::kill(pid_t pid, int sig) {
  const auto it = std::find(pids_.begin(), pids_.end(), pid);
  const bool owned = it != pids_.end();
  (void)::kill(owned ? -pid : pid, sig);
  if (!owned) return -1;
  pids_.erase(it);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
  return status;
}

void Children::kill_all() {
  // A server an election started sits in its worker's group.
  while (!pids_.empty()) (void)kill(pids_.back(), SIGKILL);
}

int Scenario::run() {
  unlink_heap(cfg);
  bool ok = setup();
  for (std::uint64_t r = 1; ok && r <= cfg.rounds; ++r) ok = round(r);
  ok = ok && finish();
  kids.kill_all();
  if (ok && !cfg.keep) unlink_heap(cfg);
  return ok ? 0 : 1;
}

}  // namespace poseidon::torture
