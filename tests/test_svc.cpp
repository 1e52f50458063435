// The allocation service (src/svc): ring algorithms, shm segment
// lifecycle, server/client loopback, degraded modes, dead-client
// reclamation, and the cross-process linearizability property test.
//
// Child processes report through exit codes: gtest assertions do not
// cross fork().
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc_iface/allocator.hpp"
#include "common/error.hpp"
#include "core/heap.hpp"
#include "pmem/fault_inject.hpp"
#include "pmem/shm.hpp"
#include "svc/client.hpp"
#include "svc/ring.hpp"
#include "svc/server.hpp"
#include "tests/test_util.hpp"

namespace poseidon {
namespace {

using test::TempHeapPath;

// Two explicit shards regardless of the box's topology.
svc::ServerOptions two_shard_server() {
  svc::ServerOptions so;
  so.heap_opts.nshards = 2;
  so.heap_opts.nsubheaps = 4;
  so.heap_opts.protect = mpk::ProtectMode::kNone;
  so.heap_opts.shard_policy = core::ShardPolicy::kPerThread;
  so.heap_opts.policy = core::SubheapPolicy::kPerThread;
  so.create_capacity = 32ull << 20;
  return so;
}

int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
  return status;
}

// ---- ring algorithms (no server, plain memory) -----------------------------

struct SubRingBuf {
  std::vector<std::byte> mem;
  svc::SubRingHdr* hdr;
  SubRingBuf()
      : mem(sizeof(svc::SubRingHdr) +
            svc::kSubRingSlots * sizeof(svc::ReqSlot) + 128) {
    auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
    addr = (addr + 127) & ~std::uintptr_t{127};
    hdr = reinterpret_cast<svc::SubRingHdr*>(addr);
    svc::sub_ring_init(hdr);
  }
};

TEST(SvcRing, SubClaimPublishPoll) {
  SubRingBuf rb;
  EXPECT_EQ(svc::sub_depth(rb.hdr), 0u);

  svc::ReqSlot* slot = svc::sub_claim(rb.hdr, /*session=*/5);
  ASSERT_NE(slot, nullptr);
  slot->req_id = 42;
  slot->op = static_cast<std::uint16_t>(svc::SvcOp::kPing);
  slot->nops = 0;
  svc::sub_publish(rb.hdr, slot, 5);
  EXPECT_EQ(svc::sub_depth(rb.hdr), 1u);

  svc::SubReq req{};
  std::uint32_t claimant = 0;
  ASSERT_EQ(svc::sub_poll(rb.hdr, &req, &claimant), svc::SubPoll::kGot);
  EXPECT_EQ(req.session, 5u);
  EXPECT_EQ(req.req_id, 42u);
  EXPECT_EQ(req.op, svc::SvcOp::kPing);
  EXPECT_EQ(svc::sub_poll(rb.hdr, &req, &claimant), svc::SubPoll::kEmpty);
  EXPECT_EQ(svc::sub_depth(rb.hdr), 0u);
}

TEST(SvcRing, SubFullRingBackpressureAndFifoDrain) {
  SubRingBuf rb;
  for (unsigned i = 0; i < svc::kSubRingSlots; ++i) {
    svc::ReqSlot* slot = svc::sub_claim(rb.hdr, 1);
    ASSERT_NE(slot, nullptr) << "slot " << i;
    slot->req_id = i;
    slot->op = static_cast<std::uint16_t>(svc::SvcOp::kPing);
    slot->nops = 0;
    svc::sub_publish(rb.hdr, slot, 1);
  }
  // Full: the next claim must refuse rather than overwrite.
  EXPECT_EQ(svc::sub_claim(rb.hdr, 1), nullptr);

  svc::SubReq req{};
  std::uint32_t claimant = 0;
  for (unsigned i = 0; i < svc::kSubRingSlots; ++i) {
    ASSERT_EQ(svc::sub_poll(rb.hdr, &req, &claimant), svc::SubPoll::kGot);
    EXPECT_EQ(req.req_id, i);  // strict position order
  }
  EXPECT_EQ(svc::sub_poll(rb.hdr, &req, &claimant), svc::SubPoll::kEmpty);
  // Recycled: a full lap later the ring accepts claims again.
  EXPECT_NE(svc::sub_claim(rb.hdr, 1), nullptr);
}

TEST(SvcRing, SubAbandonedClaimReportsClaimantAndDiscards) {
  SubRingBuf rb;
  // A producer claims the cursor slot and "dies" before publishing.
  ASSERT_NE(svc::sub_claim(rb.hdr, /*session=*/7), nullptr);
  // A healthy producer publishes behind the wedge.
  svc::ReqSlot* ok = svc::sub_claim(rb.hdr, /*session=*/3);
  ASSERT_NE(ok, nullptr);
  ok->req_id = 9;
  ok->op = static_cast<std::uint16_t>(svc::SvcOp::kPing);
  ok->nops = 0;
  svc::sub_publish(rb.hdr, ok, 3);

  // The consumer must block on the wedge and name the claimant — the
  // server resolves that session to a dead pid and discards.
  svc::SubReq req{};
  std::uint32_t claimant = 0;
  ASSERT_EQ(svc::sub_poll(rb.hdr, &req, &claimant), svc::SubPoll::kClaimWait);
  EXPECT_EQ(claimant, 7u);
  svc::sub_discard(rb.hdr);
  ASSERT_EQ(svc::sub_poll(rb.hdr, &req, &claimant), svc::SubPoll::kGot);
  EXPECT_EQ(req.session, 3u);
  EXPECT_EQ(req.req_id, 9u);
}

TEST(SvcRing, SubMpscThreadsFifoPerProducer) {
  SubRingBuf rb;
  constexpr unsigned kProducers = 4;
  constexpr unsigned kPerProducer = 200;
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < kProducers; ++t) {
    producers.emplace_back([&rb, t] {
      for (unsigned i = 0; i < kPerProducer; ++i) {
        svc::ReqSlot* slot;
        while ((slot = svc::sub_claim(rb.hdr, t + 1)) == nullptr) {
          std::this_thread::yield();  // ring full: wait for the consumer
        }
        slot->req_id = i;
        slot->op = static_cast<std::uint16_t>(svc::SvcOp::kPing);
        slot->nops = 0;
        svc::sub_publish(rb.hdr, slot, t + 1);
      }
    });
  }
  unsigned got = 0;
  std::uint32_t next_per_session[kProducers + 1] = {};
  svc::SubReq req{};
  std::uint32_t claimant = 0;
  while (got < kProducers * kPerProducer) {
    switch (svc::sub_poll(rb.hdr, &req, &claimant)) {
      case svc::SubPoll::kGot:
        ASSERT_GE(req.session, 1u);
        ASSERT_LE(req.session, kProducers);
        // Per-producer FIFO: a producer publishes before its next claim.
        EXPECT_EQ(req.req_id, next_per_session[req.session]++);
        ++got;
        break;
      case svc::SubPoll::kClaimWait:  // live claimant, publish is imminent
      case svc::SubPoll::kEmpty:
        std::this_thread::yield();
        break;
    }
  }
  for (auto& p : producers) p.join();
  for (unsigned t = 1; t <= kProducers; ++t) {
    EXPECT_EQ(next_per_session[t], kPerProducer);
  }
}

TEST(SvcRing, CplRingFullAndFifo) {
  std::vector<std::byte> mem(sizeof(svc::SessionSlot) +
                             svc::kCplRingSlots * sizeof(svc::CplSlot) + 128);
  auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
  addr = (addr + 127) & ~std::uintptr_t{127};
  auto* sess = reinterpret_cast<svc::SessionSlot*>(addr);
  auto* ring = reinterpret_cast<svc::CplSlot*>(sess + 1);
  svc::cpl_ring_init(sess, ring);

  svc::CplMsg msg{};
  for (unsigned i = 0; i < svc::kCplRingSlots; ++i) {
    msg.req_id = i;
    msg.status = svc::SvcStatus::kOk;
    ASSERT_TRUE(svc::cpl_enqueue(sess, ring, msg)) << "slot " << i;
  }
  EXPECT_FALSE(svc::cpl_enqueue(sess, ring, msg));  // full refuses
  EXPECT_EQ(svc::cpl_depth(sess), svc::kCplRingSlots);
  for (unsigned i = 0; i < svc::kCplRingSlots; ++i) {
    svc::CplMsg out{};
    ASSERT_TRUE(svc::cpl_dequeue(sess, ring, &out));
    EXPECT_EQ(out.req_id, i);
  }
  svc::CplMsg out{};
  EXPECT_FALSE(svc::cpl_dequeue(sess, ring, &out));  // empty
}

// ---- shm segment -----------------------------------------------------------

TEST(SvcShm, CreateAttachUnlink) {
  TempHeapPath path("svc_shm");
  const std::string seg_path = svc::svc_path(path.str());
  auto seg = pmem::ShmSegment::create(seg_path, 1 << 16);
  ASSERT_TRUE(seg.valid());
  EXPECT_EQ(seg.size(), std::size_t{1} << 16);
  std::memset(seg.data(), 0x5a, 64);

  // A second mapping of the same file sees the bytes (MAP_SHARED).
  auto ro = pmem::ShmSegment::attach(seg_path, /*read_only=*/true);
  ASSERT_TRUE(ro.valid());
  EXPECT_EQ(static_cast<unsigned char>(ro.data()[63]), 0x5au);

  // Creating over an existing segment must refuse (O_EXCL).
  EXPECT_THROW(pmem::ShmSegment::create(seg_path, 1 << 16), Error);

  EXPECT_TRUE(pmem::ShmSegment::exists(seg_path));
  pmem::ShmSegment::unlink(seg_path);
  EXPECT_FALSE(pmem::ShmSegment::exists(seg_path));
}

TEST(SvcShm, AttachMissingIsTypedUnavailable) {
  try {
    (void)pmem::ShmSegment::attach("/dev/shm/poseidon_no_such_segment.svc");
    FAIL() << "attach of a missing segment succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.poseidon_code(), ErrorCode::kSvcUnavailable);
  }
}

TEST(SvcShm, LifecycleSyscallsAreFaultInjectable) {
  TempHeapPath path("svc_shm_fault");
  const std::string seg_path = svc::svc_path(path.str());
  struct Case { pmem::fault::SysOp op; } cases[] = {
      {pmem::fault::SysOp::kOpen},
      {pmem::fault::SysOp::kFtruncate},
      {pmem::fault::SysOp::kMmap},
  };
  for (const auto& c : cases) {
    pmem::fault::arm_every(c.op, 1, EIO);
    EXPECT_THROW(pmem::ShmSegment::create(seg_path, 1 << 16), Error);
    pmem::fault::disarm_all();
    pmem::ShmSegment::unlink(seg_path);
  }
  // And with faults disarmed the same call succeeds.
  auto seg = pmem::ShmSegment::create(seg_path, 1 << 16);
  EXPECT_TRUE(seg.valid());
  pmem::ShmSegment::unlink(seg_path);
}

// ---- server/client loopback ------------------------------------------------

TEST(SvcServerClient, LoopbackAllocFreeTxRootPing) {
  TempHeapPath path("svc_loop");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());
  ASSERT_EQ(server->state(), svc::SvcState::kServing);
  auto client = svc::SvcClient::connect(path.str());

  EXPECT_EQ(client->ping(), ErrorCode::kOk);

  std::uint64_t sizes[4] = {64, 128, 256, 1024};
  core::NvPtr ptrs[4];
  ASSERT_EQ(client->alloc(sizes, 4, ptrs), ErrorCode::kOk);
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_FALSE(ptrs[i].is_null()) << "alloc " << i;
    void* p = client->raw(ptrs[i]);
    ASSERT_NE(p, nullptr);
    // The data window is real, writable memory: round-trip a payload and
    // the NvPtr <-> raw conversion.
    std::memset(p, 0x30 + static_cast<int>(i), sizes[i]);
    EXPECT_EQ(static_cast<unsigned char*>(p)[sizes[i] - 1], 0x30u + i);
    const core::NvPtr back = client->from_raw(p);
    EXPECT_EQ(back.heap_id, ptrs[i].heap_id);
    EXPECT_EQ(back.packed, ptrs[i].packed);
  }
  core::FreeResult fr[4];
  ASSERT_EQ(client->free_blocks(ptrs, 4, fr), ErrorCode::kOk);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(fr[i], core::FreeResult::kOk);
  // Double free through the service reports the validation verdict.
  ASSERT_EQ(client->free_blocks(ptrs, 1, fr), ErrorCode::kOk);
  EXPECT_NE(fr[0], core::FreeResult::kOk);

  std::uint64_t tx_sizes[2] = {96, 2048};
  core::NvPtr tx_ptrs[2];
  ASSERT_EQ(client->tx_alloc(tx_sizes, 2, tx_ptrs), ErrorCode::kOk);
  ASSERT_FALSE(tx_ptrs[0].is_null());
  ASSERT_FALSE(tx_ptrs[1].is_null());

  // Root travels by NvPtr through the ring.
  ASSERT_EQ(client->set_root(tx_ptrs[0]), ErrorCode::kOk);
  core::NvPtr root;
  ASSERT_EQ(client->get_root(&root), ErrorCode::kOk);
  EXPECT_EQ(root.heap_id, tx_ptrs[0].heap_id);
  EXPECT_EQ(root.packed, tx_ptrs[0].packed);

  ASSERT_EQ(client->free_blocks(tx_ptrs, 2, fr), ErrorCode::kOk);
  EXPECT_GT(server->requests_served(), 0u);

  // Out-of-range conversions refuse instead of fabricating addresses.
  EXPECT_EQ(client->raw(core::NvPtr::null()), nullptr);
  int stack_var = 0;
  EXPECT_TRUE(client->from_raw(&stack_var).is_null());
}

TEST(SvcServerClient, CachedOpsFlushLeavesNothingLive) {
  TempHeapPath path("svc_cache");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());
  {
    auto client = svc::SvcClient::connect(path.str());
    std::vector<core::NvPtr> held;
    for (unsigned i = 0; i < 64; ++i) {
      ErrorCode err = ErrorCode::kOk;
      const core::NvPtr p = client->alloc_one(64 + (i % 5) * 32, &err);
      ASSERT_EQ(err, ErrorCode::kOk);
      ASSERT_FALSE(p.is_null());
      held.push_back(p);
    }
    for (const core::NvPtr& p : held) {
      ASSERT_EQ(client->free_one(p), ErrorCode::kOk);
    }
    ASSERT_EQ(client->flush_caches(), ErrorCode::kOk);
  }  // dtor: clean disconnect
  // Magazines and the pending-free stash all went back through the ring.
  EXPECT_EQ(server->heap().stats().live_blocks, 0u);
}

TEST(SvcServerClient, DrainIsTypedRetry) {
  TempHeapPath path("svc_drain");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());
  auto client = svc::SvcClient::connect(path.str());
  ASSERT_EQ(client->ping(), ErrorCode::kOk);

  server->drain();
  EXPECT_EQ(server->state(), svc::SvcState::kDraining);
  EXPECT_EQ(client->server_state(), ErrorCode::kSvcRetry);
  std::uint64_t size = 64;
  core::NvPtr p;
  EXPECT_EQ(client->alloc(&size, 1, &p), ErrorCode::kSvcRetry);

  // New sessions are refused with the same typed verdict.
  svc::ClientOptions co;
  co.submit_timeout_ns = 50'000'000;
  try {
    (void)svc::SvcClient::connect(path.str(), co);
    FAIL() << "connect to a draining server succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.poseidon_code(), ErrorCode::kSvcRetry);
  }
}

TEST(SvcServerClient, DeadServerIsUnavailableAndFailsOverReadOnly) {
  TempHeapPath path("svc_dead");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());
  // This test exercises the fail-fast ladder (nobody will ever elect a
  // successor here — the stopped server still owns the heap), so the
  // automatic reconnect protocol must stay out of the way.
  svc::ClientOptions co;
  co.auto_failover = false;
  auto client = svc::SvcClient::connect(path.str(), co);

  // Park a root so the read-only leg has something to show.
  std::uint64_t size = 256;
  core::NvPtr p;
  ASSERT_EQ(client->alloc(&size, 1, &p), ErrorCode::kOk);
  ASSERT_FALSE(p.is_null());
  std::memset(client->raw(p), 0x77, size);
  ASSERT_EQ(client->set_root(p), ErrorCode::kOk);

  server->stop();  // segment flips kDead; the server still owns the heap
  EXPECT_EQ(server->state(), svc::SvcState::kDead);
  EXPECT_EQ(client->server_state(), ErrorCode::kSvcUnavailable);
  EXPECT_EQ(client->alloc(&size, 1, &p), ErrorCode::kSvcUnavailable);

  // attach_allocator: in-process bounces on the live OFD lock, service
  // bounces on the dead segment — the read-only leg must catch.
  iface::AllocatorConfig cfg;
  auto ro = iface::attach_allocator(path.str(), cfg);
  ASSERT_NE(ro, nullptr);
  EXPECT_STREQ(ro->name(), "poseidon+ro");
  EXPECT_EQ(ro->alloc(64), nullptr);
  EXPECT_FALSE(ro->free(nullptr));
  void* root = ro->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(static_cast<unsigned char*>(root)[0], 0x77u);
}

TEST(SvcServerClient, AttachAllocatorPrefersInProcessWhenLockIsFree) {
  TempHeapPath path("svc_attach_free");
  // The heap work runs in a child, so that a crash in it still leaves this
  // process to remove the two-shard heap files (TempHeapPath) and report.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const auto work = [&]() -> int {
      {
        auto server = svc::SvcServer::start(path.str(), two_shard_server());
        server->stop();
      }  // server destroyed: OFD locks released, segment left kDead on disk
      iface::AllocatorConfig cfg;
      auto a = iface::attach_allocator(path.str(), cfg);
      if (a == nullptr) return 2;
      if (std::strcmp(a->name(), "poseidon") != 0) return 3;
      void* p = a->alloc(128);
      if (p == nullptr) return 4;
      return a->free(p) ? 0 : 5;
    };
    int code = 6;
    try {
      code = work();
    } catch (...) {
    }
    ::_exit(code);
  }
  const int status = reap(pid);
  ASSERT_TRUE(WIFEXITED(status))
      << "heap work died by signal "
      << (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
  // 2: no allocator, 3: not the in-process one, 4: alloc, 5: free, 6: threw.
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(SvcServerClient, SvcAdapterForksServerAndServes) {
  TempHeapPath path("svc_adapter");
  iface::AllocatorConfig cfg;
  cfg.path = path.str();
  cfg.capacity = 32ull << 20;
  cfg.svc = true;
  auto a = iface::make_allocator(iface::AllocatorKind::kPoseidon, cfg);
  ASSERT_NE(a, nullptr);
  EXPECT_STREQ(a->name(), "poseidon+svc");
  void* p = a->alloc(512);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x42, 512);
  a->set_root(p);
  EXPECT_EQ(a->root(), p);
  EXPECT_TRUE(a->free(p));
}

// ---- dead-client reclamation -----------------------------------------------

TEST(SvcReclaim, DeadClientSessionReclaimedNothingLeaked) {
  TempHeapPath path("svc_reclaim");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The victim: in-flight allocations it never collects, plus wedged
    // submission claims, then death without any destructor (the _exit is
    // the SIGKILL stand-in — no flush, no session close).
    try {
      auto c = svc::SvcClient::connect(path.str());
      for (unsigned i = 0; i < 4; ++i) {
        if (c->submit_alloc_no_wait_for_test(128) != ErrorCode::kOk) {
          ::_exit(3);
        }
      }
      if (c->hold_claims_for_test(2) != 2) ::_exit(4);
      c.release();  // leak deliberately: no clean disconnect
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(0);
  }
  const int status = reap(pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "victim child failed";

  // The housekeeper must notice the death, wait out the grace period, and
  // free the session with its in-flight handles.
  for (unsigned waited = 0;
       server->sessions_reclaimed() == 0 && waited < 10000; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server->sessions_reclaimed(), 1u) << "session never reclaimed";

  // The server still serves, and the reclaimed handles are free again.
  auto survivor = svc::SvcClient::connect(path.str());
  EXPECT_EQ(survivor->ping(), ErrorCode::kOk);
  std::uint64_t size = 64;
  core::NvPtr p;
  ASSERT_EQ(survivor->alloc(&size, 1, &p), ErrorCode::kOk);
  ASSERT_FALSE(p.is_null());
  core::FreeResult fr;
  ASSERT_EQ(survivor->free_blocks(&p, 1, &fr), ErrorCode::kOk);
  EXPECT_EQ(fr, core::FreeResult::kOk);
  EXPECT_EQ(server->heap().stats().live_blocks, 0u);
}

// ---- cross-process linearizability -----------------------------------------

// Two concurrent client processes allocate through the service, write
// tagged payloads through their own data windows, and publish every handle
// into a shared root array.  If the service ever handed the same block to
// both processes, the handle sets intersect or a payload is torn; if it
// leaked or double-freed, the final validated-free sweep and block count
// disagree.
constexpr unsigned kLinBlocksPerChild = 48;

struct LinSlot {
  std::uint64_t heap_id;
  std::uint64_t packed;
};

void lin_fill(void* dst, std::uint64_t size, std::uint64_t tag) {
  auto* b = static_cast<unsigned char*>(dst);
  for (std::uint64_t i = 0; i < size; ++i) {
    b[i] = static_cast<unsigned char>((tag * 131 + i) & 0xff);
  }
}

bool lin_check(const void* src, std::uint64_t size, std::uint64_t tag) {
  const auto* b = static_cast<const unsigned char*>(src);
  for (std::uint64_t i = 0; i < size; ++i) {
    if (b[i] != static_cast<unsigned char>((tag * 131 + i) & 0xff)) {
      return false;
    }
  }
  return true;
}

std::uint64_t lin_size(unsigned child, unsigned i) {
  return 48 + ((child * kLinBlocksPerChild + i) % 7) * 64;
}

[[noreturn]] void lin_child_main(const std::string& path, unsigned child) {
  try {
    auto c = svc::SvcClient::connect(path);
    core::NvPtr root;
    if (c->get_root(&root) != ErrorCode::kOk || root.is_null()) ::_exit(3);
    auto* slots = static_cast<LinSlot*>(c->raw(root));
    if (slots == nullptr) ::_exit(4);
    for (unsigned i = 0; i < kLinBlocksPerChild; ++i) {
      const std::uint64_t size = lin_size(child, i);
      core::NvPtr p;
      std::uint64_t sz = size;
      if (c->alloc(&sz, 1, &p) != ErrorCode::kOk || p.is_null()) ::_exit(5);
      void* raw = c->raw(p);
      if (raw == nullptr) ::_exit(6);
      const std::uint64_t tag =
          (std::uint64_t{child} << 32) | (i + 1);
      lin_fill(raw, size, tag);
      if (!lin_check(raw, size, tag)) ::_exit(7);
      LinSlot& s = slots[child * kLinBlocksPerChild + i];
      s.heap_id = p.heap_id;
      s.packed = p.packed;
    }
    c.reset();  // clean disconnect (nothing cached: batch API only)
  } catch (...) {
    ::_exit(2);
  }
  ::_exit(0);
}

TEST(SvcLinearizability, TwoClientProcessesNoDoubleHandoutNoTornPayload) {
  TempHeapPath path("svc_linear");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());

  // The shared ledger both children publish into, reachable via the root.
  auto parent = svc::SvcClient::connect(path.str());
  const std::uint64_t ledger_bytes =
      2 * kLinBlocksPerChild * sizeof(LinSlot);
  std::uint64_t sz = ledger_bytes;
  core::NvPtr ledger;
  ASSERT_EQ(parent->alloc(&sz, 1, &ledger), ErrorCode::kOk);
  ASSERT_FALSE(ledger.is_null());
  std::memset(parent->raw(ledger), 0, ledger_bytes);
  ASSERT_EQ(parent->set_root(ledger), ErrorCode::kOk);

  pid_t pids[2];
  for (unsigned child = 0; child < 2; ++child) {
    pids[child] = ::fork();
    ASSERT_GE(pids[child], 0);
    if (pids[child] == 0) lin_child_main(path.str(), child);
  }
  for (unsigned child = 0; child < 2; ++child) {
    const int status = reap(pids[child]);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0) << "lin child " << child << " failed";
  }

  // Every published handle must be distinct (no block handed to two
  // processes) and still carry exactly its writer's payload.
  auto* slots = static_cast<LinSlot*>(parent->raw(ledger));
  ASSERT_NE(slots, nullptr);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::vector<core::NvPtr> owned;
  for (unsigned child = 0; child < 2; ++child) {
    for (unsigned i = 0; i < kLinBlocksPerChild; ++i) {
      const LinSlot& s = slots[child * kLinBlocksPerChild + i];
      const core::NvPtr p{s.heap_id, s.packed};
      ASSERT_FALSE(p.is_null()) << "child " << child << " slot " << i;
      EXPECT_TRUE(seen.emplace(s.heap_id, s.packed).second)
          << "block handed out twice";
      const void* raw = parent->raw(p);
      ASSERT_NE(raw, nullptr);
      const std::uint64_t tag = (std::uint64_t{child} << 32) | (i + 1);
      EXPECT_TRUE(lin_check(raw, lin_size(child, i), tag))
          << "payload torn: child " << child << " slot " << i;
      owned.push_back(p);
    }
  }

  // The validated free path accepts every handle exactly once — the block
  // count then proves nothing else leaked through the service.
  core::FreeResult fr[svc::kMaxOpsPerReq];
  std::size_t off = 0;
  while (off < owned.size()) {
    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(owned.size() - off, svc::kMaxOpsPerReq));
    ASSERT_EQ(parent->free_blocks(owned.data() + off, n, fr), ErrorCode::kOk);
    for (unsigned i = 0; i < n; ++i) {
      EXPECT_EQ(fr[i], core::FreeResult::kOk);
    }
    off += n;
  }
  core::FreeResult one;
  ASSERT_EQ(parent->free_blocks(&ledger, 1, &one), ErrorCode::kOk);
  EXPECT_EQ(one, core::FreeResult::kOk);
  EXPECT_EQ(server->heap().stats().live_blocks, 0u);
  std::string why;
  EXPECT_TRUE(server->heap().check_invariants(&why)) << why;
}

// ---- failover & self-healing -----------------------------------------------

// Injectable clock for liveness classification (a capture-less lambda
// converts to ClientOptions::now).
std::uint64_t g_fake_now = 0;

volatile sig_atomic_t g_server_term = 0;
void server_term(int) { g_server_term = 1; }

// Forked server child: owns the heap until SIGTERM, then stops cleanly.
// Used both as the initial server and as election fodder.
pid_t fork_server(const std::string& path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  g_server_term = 0;
  struct sigaction sa {};
  sa.sa_handler = server_term;
  (void)::sigaction(SIGTERM, &sa, nullptr);
  try {
    auto server = svc::SvcServer::start(path, two_shard_server());
    while (g_server_term == 0) ::usleep(2'000);
    server->stop();
  } catch (...) {
    ::_exit(2);
  }
  ::_exit(0);
}

TEST(SvcFailover, ServerStateClassificationWithInjectedClock) {
  TempHeapPath path("svc_state_cls");
  auto server = svc::SvcServer::start(path.str(), two_shard_server());
  svc::ClientOptions co;
  co.auto_failover = false;
  co.now = [] { return g_fake_now; };
  g_fake_now = svc::monotonic_ns();
  auto client = svc::SvcClient::connect(path.str(), co);
  auto* h = svc::header_of(server->segment_base());

  // Fresh heartbeat: serving.
  EXPECT_EQ(client->server_state(), ErrorCode::kOk);

  // Heartbeat aged far past the threshold but the server pid is alive: a
  // wedged box is not a dead server.
  g_fake_now = svc::monotonic_ns() + co.server_stale_ns + 60'000'000'000ull;
  EXPECT_EQ(client->server_state(), ErrorCode::kOk);

  // Same staleness with a provably dead pid: unavailable.
  const pid_t dead = ::fork();
  if (dead == 0) ::_exit(0);
  ASSERT_GT(dead, 0);
  (void)reap(dead);
  const std::uint64_t real_pid = h->server_pid;
  h->server_pid = static_cast<std::uint64_t>(dead);
  EXPECT_EQ(client->server_state(), ErrorCode::kSvcUnavailable);
  h->server_pid = real_pid;

  // State machine verdicts trump heartbeat freshness.
  g_fake_now = svc::monotonic_ns();
  h->state.store(static_cast<std::uint32_t>(svc::SvcState::kDraining),
                 std::memory_order_release);
  EXPECT_EQ(client->server_state(), ErrorCode::kSvcRetry);
  h->state.store(static_cast<std::uint32_t>(svc::SvcState::kDead),
                 std::memory_order_release);
  EXPECT_EQ(client->server_state(), ErrorCode::kSvcUnavailable);
  h->state.store(static_cast<std::uint32_t>(svc::SvcState::kServing),
                 std::memory_order_release);
  EXPECT_EQ(client->server_state(), ErrorCode::kOk);
}

TEST(SvcFailover, GenerationBumpAndReconnectReconcilesLostHandles) {
  TempHeapPath path("svc_regen");
  auto s1 = svc::SvcServer::start(path.str(), two_shard_server());
  EXPECT_EQ(s1->generation(), 1u);

  svc::ClientOptions co;
  co.reconnect_attempts = 400;
  co.reconnect_backoff_ns = 500'000;
  co.reconnect_backoff_max_ns = 5'000'000;
  auto client = svc::SvcClient::connect(path.str(), co);
  EXPECT_EQ(client->generation(), 1u);

  // Handles whose completions this client never dequeues: the old server
  // executes them, so the reconnect drain must route them into the free
  // path instead of leaking them across generations.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(client->submit_alloc_no_wait_for_test(128), ErrorCode::kOk);
  }

  s1->stop();
  s1.reset();  // releases the heap; a successor can now win the election
  auto s2 = svc::SvcServer::start(path.str(), two_shard_server());
  EXPECT_EQ(s2->generation(), 2u);

  ASSERT_EQ(client->reconnect(), ErrorCode::kOk);
  EXPECT_EQ(client->generation(), 2u);

  // The re-admitted session serves normally on the successor.
  std::uint64_t size = 256;
  core::NvPtr p;
  ASSERT_EQ(client->alloc(&size, 1, &p), ErrorCode::kOk);
  ASSERT_FALSE(p.is_null());
  core::FreeResult fr;
  ASSERT_EQ(client->free_blocks(&p, 1, &fr), ErrorCode::kOk);
  EXPECT_EQ(fr, core::FreeResult::kOk);
  ASSERT_EQ(client->flush_caches(), ErrorCode::kOk);
  EXPECT_EQ(s2->heap().stats().live_blocks, 0u);
  std::string why;
  EXPECT_TRUE(s2->heap().check_invariants(&why)) << why;
}

TEST(SvcFailover, KillServerMidBatchReconcilesExactly) {
  TempHeapPath path("svc_kill");
  const pid_t first = fork_server(path.str());
  ASSERT_GT(first, 0);

  svc::ClientOptions co;
  co.server_stale_ns = 200'000'000;  // detect the kill fast
  co.reconnect_attempts = 400;
  co.reconnect_backoff_ns = 1'000'000;
  co.reconnect_backoff_max_ns = 20'000'000;
  std::vector<pid_t> elected;
  co.elect = [&path, &elected] { elected.push_back(fork_server(path.str())); };

  // The child publishes kServing only after full initialization.
  std::unique_ptr<svc::SvcClient> client;
  for (int i = 0;; ++i) {
    try {
      client = svc::SvcClient::connect(path.str(), co);
      break;
    } catch (const Error&) {
      ASSERT_LT(i, 2000);
      ::usleep(5'000);
    }
  }

  // Warm traffic so magazines, prefetches and free stashes are all in
  // flight when the server dies.
  std::vector<core::NvPtr> held;
  ErrorCode e = ErrorCode::kOk;
  for (int i = 0; i < 40; ++i) {
    const core::NvPtr p = client->alloc_one(512, &e);
    ASSERT_EQ(e, ErrorCode::kOk);
    ASSERT_FALSE(p.is_null());
    held.push_back(p);
  }

  ::kill(first, SIGKILL);
  (void)reap(first);

  // Traffic must ride through the failover: detection, election of the
  // successor, idempotent reconcile, then normal service.
  for (int i = 0; i < 200; ++i) {
    const core::NvPtr p = client->alloc_one(256, &e);
    ASSERT_EQ(e, ErrorCode::kOk) << "op " << i;
    ASSERT_FALSE(p.is_null()) << "op " << i;
    if (i % 2 == 0) {
      ASSERT_EQ(client->free_one(p), ErrorCode::kOk);
    } else {
      held.push_back(p);
    }
  }
  EXPECT_GE(client->generation(), 2u);
  ASSERT_FALSE(elected.empty());

  for (const core::NvPtr p : held) {
    ASSERT_EQ(client->free_one(p), ErrorCode::kOk);
  }
  ASSERT_EQ(client->flush_caches(), ErrorCode::kOk);
  client.reset();

  for (const pid_t pid : elected) {
    (void)::kill(pid, SIGTERM);
    const int st = reap(pid);
    EXPECT_TRUE(WIFEXITED(st));
  }

  // Exact-zero audit: everything allocated across both generations was
  // freed exactly once, and the metadata survived the crash.
  auto heap = core::Heap::open(path.str(), two_shard_server().heap_opts);
  EXPECT_EQ(heap->stats().live_blocks, 0u);
  std::string why;
  EXPECT_TRUE(heap->check_invariants(&why)) << why;
}

}  // namespace
}  // namespace poseidon
