#include "pmem/pool.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "pmem/fault_inject.hpp"
#include "pmem/page_map.hpp"
#include "pmem/retry.hpp"

namespace poseidon::pmem {

namespace {

[[noreturn]] void throw_io(const std::string& what) {
  throw Error(ErrorCode::kIo, what, errno);
}

std::byte* map_fd(int fd, std::size_t size, bool read_only) {
  void* p = MAP_FAILED;
  const int prot = read_only ? PROT_READ : PROT_READ | PROT_WRITE;
  if (const int e = fault::intercept(fault::SysOp::kMmap)) {
    errno = e;
  } else {
    p = ::mmap(nullptr, size, prot, MAP_SHARED, fd, 0);
  }
  if (p == MAP_FAILED) throw_io("mmap pool");
  auto* base = static_cast<std::byte*>(p);
  // Armed media-error emulation (PROT_NONE pages) lands at map time.
  fault::apply_poison(base, size);
  return base;
}

// ---- exclusive ownership ---------------------------------------------------
//
// Two independent guards, both scoped to writable pools:
//
//  * The OFD lock is the authority: per open-file-description, so it
//    conflicts between two opens of the same file even inside one process,
//    and the kernel releases it when the owner dies — which is exactly the
//    stale-owner signature the superblock owner record is checked against.
//  * The (dev, ino) table catches the same-process double open one layer
//    earlier with a message naming the actual mistake; it also covers the
//    corner where both opens are in this process and a future kernel would
//    coalesce their descriptions.

struct DevIno {
  dev_t dev;
  ino_t ino;
  bool operator<(const DevIno& o) const noexcept {
    return dev != o.dev ? dev < o.dev : ino < o.ino;
  }
};

std::mutex g_open_mu;
std::set<DevIno>& open_writable_pools() {
  static std::set<DevIno> s;
  return s;
}

// Registers (dev, ino) as writable-open in this process; throws kHeapBusy
// when it already is.
void register_in_proc(const std::string& path, const struct stat& st) {
  std::lock_guard<std::mutex> lk(g_open_mu);
  if (!open_writable_pools().insert(DevIno{st.st_dev, st.st_ino}).second) {
    throw Error(ErrorCode::kHeapBusy,
                path + ": pool is already open read-write in this process");
  }
}

void unregister_in_proc(const struct stat& st) noexcept {
  std::lock_guard<std::mutex> lk(g_open_mu);
  open_writable_pools().erase(DevIno{st.st_dev, st.st_ino});
}

// Takes the exclusive OFD lock on fd, non-blocking.  Throws kHeapBusy when
// another open description holds it.  fcntl locking is deliberately NOT a
// fault::SysOp: adding it would shift the syscall ordinals every armed
// POSEIDON_FAULT test depends on, and an injected lock failure is
// indistinguishable from the real contention the tests already cover.
void lock_exclusive(int fd, const std::string& path) {
  struct flock fl {};
  fl.l_type = F_WRLCK;
  fl.l_whence = SEEK_SET;
  fl.l_start = 0;
  fl.l_len = 0;  // whole file
  const int rc = retry_eintr([&] { return ::fcntl(fd, F_OFD_SETLK, &fl); });
  if (rc == 0) return;
  if (errno == EAGAIN || errno == EACCES) {
    throw Error(ErrorCode::kHeapBusy,
                path + ": pool is locked by another live process",
                errno);
  }
  throw_io("lock pool file " + path);
}

// Runs `call` behind the fault injector for `op`, retrying while the
// failure — real or injected — is EINTR.  The injected variety matters:
// a one-shot armed EINTR is consumed by its first firing, so the retry
// falls through to the real syscall, proving the interruptible paths are
// EINTR-transparent under POSEIDON_FAULT exactly as under real signals.
template <typename F>
int intercepted_retry_eintr(fault::SysOp op, F&& call) {
  for (;;) {
    int rc = -1;
    if (const int e = fault::intercept(op)) {
      errno = e;
    } else {
      rc = retry_eintr(call);
    }
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

}  // namespace

Pool Pool::create(const std::string& path, std::size_t size) {
  // O_EXCL would fail on an existing directory anyway, but with a
  // confusing "File exists"; diagnose the common mistake up front.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    throw std::invalid_argument(path +
                                ": exists and is not a regular file "
                                "(Poseidon pools must be regular files)");
  }
  // Growing a file past the soft RLIMIT_FSIZE raises SIGXFSZ, whose
  // default action kills the process.  Refuse up front with the EFBIG the
  // ftruncate would report, leaving the caller's signal dispositions alone.
  struct rlimit fsize{};
  if (::getrlimit(RLIMIT_FSIZE, &fsize) == 0 &&
      fsize.rlim_cur != RLIM_INFINITY && size > fsize.rlim_cur) {
    errno = EFBIG;
    throw_io("create pool file " + path + " of " + std::to_string(size) +
             " bytes (RLIMIT_FSIZE is " + std::to_string(fsize.rlim_cur) +
             ")");
  }
  const int fd = intercepted_retry_eintr(fault::SysOp::kOpen, [&] {
    return ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
  });
  if (fd < 0) throw_io("create pool file " + path);
  bool registered = false;
  try {
    // A freshly O_EXCL-created file can still race a concurrent open(): the
    // path is visible the moment the dentry lands.  Lock at birth so the
    // window where a second opener could also lock it never exists.
    lock_exclusive(fd, path);
    const int trunc_rc = intercepted_retry_eintr(
        fault::SysOp::kFtruncate,
        [&] { return ::ftruncate(fd, static_cast<off_t>(size)); });
    if (trunc_rc != 0) throw_io("ftruncate pool file " + path);
    // Raw fstat (not fault::intercept'd): this call exists only to feed the
    // in-process table, and routing it through the injector would shift the
    // ordinals of every armed fstat-fault test.
    struct stat fst{};
    if (retry_eintr([&] { return ::fstat(fd, &fst); }) != 0) {
      throw_io("fstat pool file " + path);
    }
    register_in_proc(path, fst);
    registered = true;
    Pool p(path, fd, map_fd(fd, size, /*read_only=*/false), size,
           /*read_only=*/false, /*in_proc_registered=*/true);
    p.attach_page_map();
    return p;
  } catch (...) {
    const int saved = errno;
    if (registered) {
      struct stat fst{};
      if (::fstat(fd, &fst) == 0) unregister_in_proc(fst);
    }
    ::close(fd);
    ::unlink(path.c_str());
    errno = saved;
    throw;
  }
}

Pool Pool::open(const std::string& path, bool read_only) {
  const int fd = intercepted_retry_eintr(fault::SysOp::kOpen, [&] {
    return ::open(path.c_str(), read_only ? O_RDONLY : O_RDWR);
  });
  if (fd < 0) throw_io("open pool file " + path);
  struct stat st{};
  const int stat_rc = intercepted_retry_eintr(
      fault::SysOp::kFstat, [&] { return ::fstat(fd, &st); });
  if (stat_rc != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_io("fstat pool file " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    // Devices and FIFOs stat fine but cannot back a pool; mmap/ftruncate
    // would fail later with a far less actionable errno.
    throw std::invalid_argument(path +
                                ": not a regular file "
                                "(Poseidon pools must be regular files)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  bool registered = false;
  try {
    if (!read_only) {
      // In-process check first: its message names the real mistake; the
      // OFD lock behind it is the cross-process (and belt-and-braces
      // same-process) authority.
      register_in_proc(path, st);
      registered = true;
      lock_exclusive(fd, path);
    }
    Pool p(path, fd, map_fd(fd, size, read_only), size, read_only,
           registered);
    if (!read_only) p.attach_page_map();
    return p;
  } catch (...) {
    if (registered) unregister_in_proc(st);
    ::close(fd);
    throw;
  }
}

Pool::~Pool() { close(); }

void Pool::attach_page_map() {
  page_map_ = std::make_unique<PageMap>(base_, size_);
  pagemap_register(page_map_.get(), base_, size_);
}

Pool::Pool(Pool&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      page_map_(std::move(other.page_map_)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      read_only_(std::exchange(other.read_only_, false)),
      in_proc_registered_(std::exchange(other.in_proc_registered_, false)) {}

Pool& Pool::operator=(Pool&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    page_map_ = std::move(other.page_map_);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    read_only_ = std::exchange(other.read_only_, false);
    in_proc_registered_ = std::exchange(other.in_proc_registered_, false);
  }
  return *this;
}

bool Pool::punch_hole(std::size_t offset, std::size_t len) {
  const int rc = intercepted_retry_eintr(fault::SysOp::kFallocate, [&] {
    return ::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                       static_cast<off_t>(offset), static_cast<off_t>(len));
  });
  if (rc == 0) {
    // The punched pages read back as zero: the next incremental snapshot
    // must recopy them or it would revive the pre-punch bytes.
    if (page_map_ != nullptr) page_map_->note(base_ + offset, len);
    return true;
  }
  if (errno == EOPNOTSUPP || errno == ENOSPC) {
    // The filesystem cannot punch (or cannot afford the metadata).
    // Leaving the bytes backed is only a space regression — a
    // deactivated level holds no records, so its content is dead either
    // way — and must never kill the defrag path that asked for it.
    return false;
  }
  throw_io("fallocate(PUNCH_HOLE) " + path_);
}

std::size_t Pool::allocated_bytes() const {
  struct stat st{};
  const int rc = intercepted_retry_eintr(
      fault::SysOp::kFstat, [&] { return ::fstat(fd_, &st); });
  if (rc != 0) throw_io("fstat " + path_);
  return static_cast<std::size_t>(st.st_blocks) * 512u;
}

void Pool::sync_range(std::size_t offset, std::size_t len) {
  if (base_ == nullptr) return;
  const int rc = retry_eintr(
      [&] { return ::msync(base_ + offset, len, MS_SYNC); });
  if (rc != 0) throw_io("msync " + path_);
}

void Pool::close() noexcept {
  if (page_map_ != nullptr) {
    // Deregister before the tracker dies and before munmap: a note can
    // only target this range from a thread still writing the pool, which
    // close() already forbids.
    pagemap_unregister(page_map_.get());
    page_map_.reset();
  }
  if (in_proc_registered_) {
    struct stat st{};
    if (fd_ >= 0 && ::fstat(fd_, &st) == 0) unregister_in_proc(st);
    in_proc_registered_ = false;
  }
  if (base_ != nullptr) {
    ::munmap(base_, size_);
    base_ = nullptr;
  }
  if (fd_ >= 0) {
    // Closing the description releases the OFD lock with it: lock lifetime
    // is exactly pool lifetime, with kernel cleanup on process death.
    ::close(fd_);
    fd_ = -1;
  }
  size_ = 0;
  read_only_ = false;
}

void Pool::unlink(const std::string& path) noexcept { ::unlink(path.c_str()); }

bool Pool::exists(const std::string& path) noexcept {
  struct stat st{};
  // Only regular files count: a directory or device at `path` is not a
  // pool, and claiming it exists would route open_or_create into open().
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace poseidon::pmem
