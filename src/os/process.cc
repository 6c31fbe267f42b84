#include "os/process.h"

#include "common/error.h"
#include "os/program.h"

namespace cruz::os {

Process::Process(Pid pid, std::string program_name)
    : pid_(pid), program_name_(std::move(program_name)) {}

Process::~Process() = default;

void Process::set_program(std::unique_ptr<Program> p) {
  program_ = std::move(p);
}

Thread* Process::FindThread(Tid tid) {
  // Spawned threads sit at their tid's index. A restored process may
  // install its tids in another order, so fall back to a scan.
  if (tid >= 0 && static_cast<std::size_t>(tid) < threads_.size() &&
      threads_[static_cast<std::size_t>(tid)].tid == tid) {
    return &threads_[static_cast<std::size_t>(tid)];
  }
  for (Thread& t : threads_) {
    if (t.tid == tid) return &t;
  }
  return nullptr;
}

Tid Process::CreateThread(Registers regs) {
  Thread t;
  t.tid = next_tid_++;
  t.regs = regs;
  threads_.push_back(t);
  return t.tid;
}

void Process::InstallThread(Tid tid, Registers regs) {
  CRUZ_CHECK(FindThread(tid) == nullptr, "InstallThread: duplicate tid");
  Thread t;
  t.tid = tid;
  t.regs = regs;
  threads_.push_back(t);
  if (tid >= next_tid_) next_tid_ = tid + 1;
}

bool Process::AllThreadsExited() const {
  for (const Thread& t : threads_) {
    if (t.state != ThreadState::kExited) return false;
  }
  return true;
}

Fd Process::AllocateFd(std::shared_ptr<FileDescription> desc) {
  Fd fd = next_fd_++;
  fds_[fd] = std::move(desc);
  return fd;
}

void Process::InstallFd(Fd fd, std::shared_ptr<FileDescription> desc) {
  fds_[fd] = std::move(desc);
  if (fd >= next_fd_) next_fd_ = fd + 1;
}

std::shared_ptr<FileDescription> Process::LookupFd(Fd fd) const {
  auto it = fds_.find(fd);
  return it == fds_.end() ? nullptr : it->second;
}

SysResult Process::RemoveFd(Fd fd) {
  return fds_.erase(fd) != 0 ? 0 : SysErr(CRUZ_EBADF);
}

}  // namespace cruz::os
