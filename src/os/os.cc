#include "os/os.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/error.h"
#include "common/log.h"
#include "sim/simulator.h"

namespace cruz::os {

// Address where Spawn copies the argument blob (programs read their
// configuration from here; the blob is part of checkpointed memory).
constexpr std::uint64_t kArgsAddr = 0x1000;

Os::Os(sim::Simulator& sim, std::string node_name, NetworkStack* stack,
       NetworkFileSystem* fs)
    : sim_(sim), node_name_(std::move(node_name)), stack_(stack), fs_(fs) {
  if (stack_ != nullptr) {
    stack_->set_wake_fn(
        [this](std::vector<ThreadRef>& refs) { WakeThreads(refs); });
  }
}

// ---------------------------------------------------------------------------
// Process management
// ---------------------------------------------------------------------------

Pid Os::Spawn(const std::string& program, cruz::ByteSpan args, PodId pod,
              Pid ppid) {
  Pid pid = next_pid_++;
  auto proc = std::make_unique<Process>(pid, program);
  proc->set_ppid(ppid);
  proc->set_pod(pod);
  proc->set_program(ProgramRegistry::Instance().Create(program));
  if (!args.empty()) {
    proc->memory().WriteBytes(kArgsAddr, args);
  }
  Registers regs;
  regs.r[1] = kArgsAddr;
  regs.r[2] = args.size();
  Tid tid = proc->CreateThread(regs);
  Process* raw = proc.get();
  processes_.emplace(pid, std::move(proc));
  if (pod != kNoPod && interposer_ != nullptr) {
    interposer_->OnProcessCreated(pod, pid);
  }
  (void)raw;
  ScheduleStep(ThreadRef{pid, tid}, step_granularity_);
  CRUZ_DEBUG("os") << node_name_ << ": spawned pid " << pid << " ("
                   << program << ") pod " << pod;
  return pid;
}

Pid Os::InstallProcess(std::unique_ptr<Process> proc) {
  // Restore path: the engine builds the process around a fresh real pid
  // obtained from AllocatePid(); the pod layer maps the process's old
  // *virtual* pid onto it, which is how Zap restarts processes whose
  // former pids are already in use on this machine.
  Pid pid = proc->pid();
  CRUZ_CHECK(processes_.count(pid) == 0,
             "InstallProcess: pid already in use");
  processes_.emplace(pid, std::move(proc));
  if (pid >= next_pid_) next_pid_ = pid + 1;
  return pid;
}

void Os::StartProcessThreads(Pid pid) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr) return;
  for (Thread& t : proc->threads()) {
    if (t.state == ThreadState::kBlocked) {
      // Restored threads resume runnable and re-enter their waits.
      t.state = ThreadState::kRunnable;
    }
    if (t.state == ThreadState::kRunnable && !t.step_scheduled &&
        proc->state() == ProcessState::kLive) {
      t.step_scheduled = true;
      ThreadRef ref{pid, t.tid};
      sim_.Schedule(step_granularity_, [this, ref] { RunStep(ref); });
    }
  }
}

Process* Os::FindProcess(Pid pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

std::vector<Pid> Os::PodProcesses(PodId pod) const {
  std::vector<Pid> out;
  for (const auto& [pid, proc] : processes_) {
    if (proc->pod() == pod) out.push_back(pid);
  }
  return out;
}

SysResult Os::Signal(Pid pid, int signal) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr) return SysErr(CRUZ_ESRCH);
  switch (signal) {
    case kSigStop:
      if (proc->state() == ProcessState::kLive) {
        proc->set_state(ProcessState::kStopped);
      }
      return 0;
    case kSigCont:
      if (proc->state() == ProcessState::kStopped) {
        proc->set_state(ProcessState::kLive);
        for (Thread& t : proc->threads()) {
          if (t.state == ThreadState::kRunnable && !t.step_scheduled) {
            ScheduleStep(ThreadRef{pid, t.tid}, step_granularity_);
          }
        }
      }
      return 0;
    case kSigKill:
      DestroyProcess(pid, 128 + kSigKill);
      return 0;
    case kSigTerm:
      DestroyProcess(pid, 128 + kSigTerm);
      return 0;
    default:
      return SysErr(CRUZ_EINVAL);
  }
}

void Os::DestroyProcess(Pid pid, int exit_code) {
  auto it = processes_.find(pid);
  if (it == processes_.end()) return;
  Process* proc = it->second.get();
  // Release all fds (closes pipe ends, tears down sockets).
  std::vector<Fd> fds;
  for (const auto& [fd, desc] : proc->fds()) fds.push_back(fd);
  for (Fd fd : fds) {
    std::shared_ptr<FileDescription> desc = proc->LookupFd(fd);
    proc->RemoveFd(fd);
    ReleaseFd(*proc, desc);
  }
  // Detach shm.
  for (const ShmAttachment& att : proc->shm_attachments()) {
    ShmSegment* seg = sysv_.FindShm(att.shm_id);
    if (seg != nullptr) --seg->attach_count;
  }
  PodId pod = proc->pod();
  if (pod != kNoPod && interposer_ != nullptr) {
    interposer_->OnProcessExited(pod, pid);
  }
  CRUZ_DEBUG("os") << node_name_ << ": pid " << pid << " exited ("
                   << exit_code << ")";
  // The hook runs while the (torn-down) process is still visible so
  // observers can read its final memory image.
  if (process_exit_hook_) process_exit_hook_(pid, exit_code);
  page_fault_handlers_.erase(pid);
  processes_.erase(pid);
}

bool Os::FillPage(Pid pid, std::uint64_t page_index, cruz::ByteSpan content) {
  Process* proc = FindProcess(pid);
  if (proc == nullptr) return false;
  if (!proc->memory().FillPage(page_index, content)) return false;
  if (proc->has_pending_fault() &&
      proc->pending_fault_page() == page_index) {
    Tid tid = proc->pending_fault_tid();
    proc->ClearPendingFault();
    MakeRunnable(ThreadRef{pid, tid});
    // Sibling threads were runnable but gated by the process-wide fault
    // stall; their step events may have fired and bailed, so rekick them.
    if (proc->state() == ProcessState::kLive) {
      for (Thread& t : proc->threads()) {
        if (t.state == ThreadState::kRunnable && !t.step_scheduled) {
          ScheduleStep(ThreadRef{pid, t.tid}, step_granularity_);
        }
      }
    }
  }
  return true;
}

void Os::ReleaseFd(Process& proc,
                   const std::shared_ptr<FileDescription>& desc) {
  if (desc == nullptr) return;
  switch (desc->kind) {
    case FileDescription::Kind::kPipeRead:
      desc->pipe->RemoveReader();
      WakeThreads(desc->pipe->write_waiters());  // writers see EPIPE
      WakeThreads(desc->pipe->read_waiters());
      break;
    case FileDescription::Kind::kPipeWrite:
      desc->pipe->RemoveWriter();
      WakeThreads(desc->pipe->read_waiters());  // readers see EOF
      break;
    case FileDescription::Kind::kTcpSocket:
      // Destroy the socket only when the last descriptor drops (dup).
      if (desc.use_count() <= 1 && stack_ != nullptr) {
        stack_->DestroyTcpSocket(desc->socket);
      }
      break;
    case FileDescription::Kind::kUdpSocket:
      if (desc.use_count() <= 1 && stack_ != nullptr) {
        stack_->DestroyUdpSocket(desc->socket);
      }
      break;
    case FileDescription::Kind::kFile:
      break;
  }
  (void)proc;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

void Os::ScheduleStep(ThreadRef ref, DurationNs delay) {
  Process* proc = FindProcess(ref.pid);
  if (proc == nullptr) return;
  Thread* thread = proc->FindThread(ref.tid);
  if (thread == nullptr || thread->step_scheduled) return;
  thread->step_scheduled = true;
  sim_.Schedule(delay, [this, ref] { RunStep(ref); });
}

void Os::RunStep(ThreadRef ref) {
  Process* proc = FindProcess(ref.pid);
  if (proc == nullptr) return;
  Thread* thread = proc->FindThread(ref.tid);
  if (thread == nullptr) return;
  thread->step_scheduled = false;
  if (proc->state() != ProcessState::kLive ||
      thread->state != ThreadState::kRunnable) {
    return;
  }
  // Process-wide fault stall: while one thread is parked on a missing
  // page, no sibling thread runs, so the re-executed step observes
  // exactly the process state it saw before the fault. FillPage rekicks
  // the stalled siblings.
  if (proc->has_pending_fault()) return;
  CRUZ_CHECK(proc->program() != nullptr, "process without program code");
  // While the address space has missing pages a step may abort mid-flight
  // on a PageFault; the journal lets the re-execution replay the syscall
  // results its aborted prefix already consumed.
  if (proc->memory().HasMissingPages() && thread->journal == nullptr) {
    thread->journal = std::make_shared<StepJournal>();
  }
  ProcessCtx ctx(*this, *proc, *thread);
  pending_syscall_charge_ = 0;
  Registers entry_regs = thread->regs;
  try {
    proc->program()->Step(ctx);
  } catch (const PageFault& fault) {
    // Rewind to the step's entry state and park the whole process until
    // the page server delivers the page. The journal cursor resets so the
    // re-execution replays the prefix that already ran.
    thread->regs = entry_regs;
    thread->state = ThreadState::kBlocked;
    if (thread->journal == nullptr) {
      thread->journal = std::make_shared<StepJournal>();
    }
    thread->journal->cursor = 0;
    proc->SetPendingFault(ref.tid, fault.page_index);
    ++steps_executed_;
    auto handler = page_fault_handlers_.find(ref.pid);
    if (handler != page_fault_handlers_.end()) {
      handler->second(fault.page_index);
    }
    return;
  }
  // Clean completion: the step is committed, its journal is dead weight.
  thread->journal = nullptr;
  ++steps_executed_;

  if (proc->state() == ProcessState::kZombie) {
    DestroyProcess(ref.pid, proc->exit_code());
    return;
  }
  if (thread->state == ThreadState::kExited) {
    if (proc->AllThreadsExited()) {
      DestroyProcess(ref.pid, proc->exit_code());
    }
    return;
  }
  if (thread->state == ThreadState::kRunnable && !thread->step_scheduled) {
    // Reschedule through the thread already in hand; a wakeup during the
    // step may have scheduled it already.
    DurationNs cost = std::max(ctx.cpu_charge() + pending_syscall_charge_,
                               step_granularity_);
    thread->step_scheduled = true;
    sim_.Schedule(cost, [this, ref] { RunStep(ref); });
  }
}

void Os::MakeRunnable(ThreadRef ref) {
  Process* proc = FindProcess(ref.pid);
  if (proc == nullptr) return;
  Thread* thread = proc->FindThread(ref.tid);
  if (thread == nullptr || thread->state == ThreadState::kExited) return;
  thread->state = ThreadState::kRunnable;
  if (proc->state() == ProcessState::kLive) {
    ScheduleStep(ref, step_granularity_);
  }
  // Stopped processes keep the runnable mark; kSigCont reschedules.
}

void Os::WakeThreads(std::vector<ThreadRef>& refs) {
  // Callers' lists are one-shot. Waking only schedules steps, so nothing
  // re-enters a wait list here; clearing in place keeps the list's
  // capacity for the next block.
  for (const ThreadRef& ref : refs) {
    MakeRunnable(ref);
  }
  refs.clear();
}

bool Os::Quiescent() const {
  for (const auto& [pid, proc] : processes_) {
    for (const Thread& t : proc->threads()) {
      if (t.state == ThreadState::kRunnable &&
          proc->state() == ProcessState::kLive) {
        return false;
      }
    }
  }
  return true;
}

void Os::ChargeSyscall(Process& proc) {
  ++syscall_count_;
  if (proc.pod() != kNoPod) {
    // Zap's interposition layer adds a small per-syscall cost; this is
    // what the <0.5% runtime overhead in §6 measures.
    pending_syscall_charge_ += kInterpositionCost;
  }
}

// ---------------------------------------------------------------------------
// Blocking primitives
// ---------------------------------------------------------------------------

namespace {
void AddWaiter(std::vector<ThreadRef>& waiters, ThreadRef ref) {
  if (std::find(waiters.begin(), waiters.end(), ref) == waiters.end()) {
    waiters.push_back(ref);
  }
}
}  // namespace

void Os::BlockThreadOnFd(Process& proc, Thread& thread, Fd fd,
                         bool writable) {
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr) return;  // bad fd: stay runnable, program will see EBADF
  ThreadRef ref{proc.pid(), thread.tid};
  switch (desc->kind) {
    case FileDescription::Kind::kFile:
      return;  // regular files never block
    case FileDescription::Kind::kPipeRead:
      AddWaiter(desc->pipe->read_waiters(), ref);
      break;
    case FileDescription::Kind::kPipeWrite:
      AddWaiter(desc->pipe->write_waiters(), ref);
      break;
    case FileDescription::Kind::kTcpSocket: {
      TcpSocketObject* sock = stack_->FindTcp(desc->socket);
      if (sock == nullptr) return;
      if (sock->state == TcpSocketObject::State::kListening) {
        AddWaiter(sock->accept_waiters, ref);
      } else if (writable) {
        AddWaiter(sock->write_waiters, ref);
      } else {
        AddWaiter(sock->read_waiters, ref);
      }
      break;
    }
    case FileDescription::Kind::kUdpSocket: {
      UdpSocketObject* sock = stack_->FindUdp(desc->socket);
      if (sock == nullptr) return;
      AddWaiter(sock->read_waiters, ref);
      break;
    }
  }
  thread.state = ThreadState::kBlocked;
}

void Os::BlockThreadOnSem(Process& proc, Thread& thread, SemId sem) {
  Semaphore* s = sysv_.FindSem(RealSemId(proc, sem));
  if (s == nullptr) return;
  AddWaiter(s->waiters, ThreadRef{proc.pid(), thread.tid});
  thread.state = ThreadState::kBlocked;
}

void Os::SleepThread(Process& proc, Thread& thread, DurationNs d) {
  thread.state = ThreadState::kBlocked;
  ThreadRef ref{proc.pid(), thread.tid};
  sim_.Schedule(d, [this, ref] { MakeRunnable(ref); });
}

// ---------------------------------------------------------------------------
// Syscalls: process
// ---------------------------------------------------------------------------

SysResult Os::SysGetpid(Process& proc) {
  ChargeSyscall(proc);
  if (proc.pod() != kNoPod && interposer_ != nullptr) {
    return interposer_->ToVirtualPid(proc.pod(), proc.pid());
  }
  return proc.pid();
}

SysResult Os::SysSpawn(Process& proc, const std::string& program,
                       cruz::ByteSpan args) {
  ChargeSyscall(proc);
  if (!ProgramRegistry::Instance().Contains(program)) {
    return SysErr(CRUZ_ENOENT);
  }
  Pid child = Spawn(program, args, proc.pod(), proc.pid());
  if (proc.pod() != kNoPod && interposer_ != nullptr) {
    return interposer_->ToVirtualPid(proc.pod(), child);
  }
  return child;
}

SysResult Os::SysKill(Process& proc, Pid pid, int signal) {
  ChargeSyscall(proc);
  Pid real = pid;
  if (proc.pod() != kNoPod && interposer_ != nullptr) {
    real = interposer_->ToRealPid(proc.pod(), pid);
    if (real == kNoPid) return SysErr(CRUZ_ESRCH);
    // Pods cannot signal processes outside themselves.
    Process* target = FindProcess(real);
    if (target == nullptr || target->pod() != proc.pod()) {
      return SysErr(CRUZ_ESRCH);
    }
  }
  return Signal(real, signal);
}

// ---------------------------------------------------------------------------
// Syscalls: files, pipes
// ---------------------------------------------------------------------------

SysResult Os::SysOpen(Process& proc, const std::string& path, bool create) {
  ChargeSyscall(proc);
  if (!fs_->Exists(path)) {
    if (!create) return SysErr(CRUZ_ENOENT);
    fs_->WriteFile(path, {});
  }
  auto desc = std::make_shared<FileDescription>();
  desc->kind = FileDescription::Kind::kFile;
  desc->path = path;
  return proc.AllocateFd(std::move(desc));
}

SysResult Os::SysRead(Process& proc, Fd fd, cruz::Bytes& out,
                      std::size_t max) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr) return SysErr(CRUZ_EBADF);
  switch (desc->kind) {
    case FileDescription::Kind::kFile: {
      SysResult r = fs_->ReadAt(desc->path, desc->offset, max, out);
      if (SysOk(r)) desc->offset += static_cast<std::uint64_t>(r);
      return r;
    }
    case FileDescription::Kind::kPipeRead: {
      SysResult r = desc->pipe->Read(out, max);
      if (SysOk(r) && r > 0) WakeThreads(desc->pipe->write_waiters());
      return r;
    }
    case FileDescription::Kind::kPipeWrite:
      return SysErr(CRUZ_EBADF);
    case FileDescription::Kind::kTcpSocket:
      return SysRecvTcp(proc, fd, out, max, false);
    case FileDescription::Kind::kUdpSocket:
      return SysErr(CRUZ_EOPNOTSUPP);  // use RecvFromUdp
  }
  return SysErr(CRUZ_EINVAL);
}

SysResult Os::SysWrite(Process& proc, Fd fd, cruz::ByteSpan data) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr) return SysErr(CRUZ_EBADF);
  switch (desc->kind) {
    case FileDescription::Kind::kFile: {
      SysResult r = fs_->WriteAt(desc->path, desc->offset, data, true);
      if (SysOk(r)) desc->offset += static_cast<std::uint64_t>(r);
      return r;
    }
    case FileDescription::Kind::kPipeWrite: {
      SysResult r = desc->pipe->Write(data);
      if (SysOk(r) && r > 0) WakeThreads(desc->pipe->read_waiters());
      return r;
    }
    case FileDescription::Kind::kPipeRead:
      return SysErr(CRUZ_EBADF);
    case FileDescription::Kind::kTcpSocket:
      return SysSendTcp(proc, fd, data);
    case FileDescription::Kind::kUdpSocket:
      return SysErr(CRUZ_EDESTADDRREQ);
  }
  return SysErr(CRUZ_EINVAL);
}

SysResult Os::SysClose(Process& proc, Fd fd) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr) return SysErr(CRUZ_EBADF);
  proc.RemoveFd(fd);
  ReleaseFd(proc, desc);
  return 0;
}

SysResult Os::SysDup(Process& proc, Fd fd) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr) return SysErr(CRUZ_EBADF);
  if (desc->kind == FileDescription::Kind::kPipeRead) {
    desc->pipe->AddReader();
  } else if (desc->kind == FileDescription::Kind::kPipeWrite) {
    desc->pipe->AddWriter();
  }
  return proc.AllocateFd(desc);
}

SysResult Os::SysPipe(Process& proc, Fd* read_end, Fd* write_end) {
  ChargeSyscall(proc);
  auto pipe = std::make_shared<Pipe>(next_pipe_id_++);
  pipe->AddReader();
  pipe->AddWriter();
  auto rd = std::make_shared<FileDescription>();
  rd->kind = FileDescription::Kind::kPipeRead;
  rd->pipe = pipe;
  auto wr = std::make_shared<FileDescription>();
  wr->kind = FileDescription::Kind::kPipeWrite;
  wr->pipe = pipe;
  *read_end = proc.AllocateFd(std::move(rd));
  *write_end = proc.AllocateFd(std::move(wr));
  return 0;
}

// ---------------------------------------------------------------------------
// Syscalls: sockets
// ---------------------------------------------------------------------------

TcpSocketObject* Os::TcpFromFd(Process& proc, Fd fd,
                               std::shared_ptr<FileDescription>* desc_out) {
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr || desc->kind != FileDescription::Kind::kTcpSocket) {
    return nullptr;
  }
  if (desc_out != nullptr) *desc_out = desc;
  return stack_->FindTcp(desc->socket);
}

SysResult Os::SysSocketTcp(Process& proc) {
  ChargeSyscall(proc);
  auto desc = std::make_shared<FileDescription>();
  desc->kind = FileDescription::Kind::kTcpSocket;
  desc->socket = stack_->CreateTcpSocket();
  return proc.AllocateFd(std::move(desc));
}

SysResult Os::SysSocketUdp(Process& proc) {
  ChargeSyscall(proc);
  auto desc = std::make_shared<FileDescription>();
  desc->kind = FileDescription::Kind::kUdpSocket;
  desc->socket = stack_->CreateUdpSocket();
  return proc.AllocateFd(std::move(desc));
}

SysResult Os::SysBind(Process& proc, Fd fd, net::Endpoint local) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr || !desc->IsSocket()) return SysErr(CRUZ_ENOTSOCK);
  // Zap's bind wrapper: a process inside a pod can only bind the pod's
  // address — the wrapper replaces whatever address was requested with
  // the pod VIF's IP (paper §4.2).
  if (proc.pod() != kNoPod && interposer_ != nullptr) {
    local.ip = interposer_->PodAddress(proc.pod());
  }
  if (desc->kind == FileDescription::Kind::kTcpSocket) {
    return stack_->TcpBind(desc->socket, local);
  }
  return stack_->UdpBind(desc->socket, local);
}

SysResult Os::SysListen(Process& proc, Fd fd, int backlog) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc;
  TcpSocketObject* sock = TcpFromFd(proc, fd, &desc);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  return stack_->TcpListen(desc->socket, backlog);
}

SysResult Os::SysAccept(Process& proc, Fd fd) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc;
  TcpSocketObject* sock = TcpFromFd(proc, fd, &desc);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  SocketId child = 0;
  SysResult r = stack_->TcpAccept(desc->socket, &child);
  if (!SysOk(r)) return r;
  auto child_desc = std::make_shared<FileDescription>();
  child_desc->kind = FileDescription::Kind::kTcpSocket;
  child_desc->socket = child;
  return proc.AllocateFd(std::move(child_desc));
}

SysResult Os::SysConnect(Process& proc, Fd fd, net::Endpoint remote) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc;
  TcpSocketObject* sock = TcpFromFd(proc, fd, &desc);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  if (sock->state == TcpSocketObject::State::kConnected) return 0;
  if (sock->state == TcpSocketObject::State::kError) {
    return SysErr(sock->error);
  }
  if (sock->state == TcpSocketObject::State::kFresh) {
    // Zap's connect wrapper performs the implicit bind to the pod's VIF
    // address (outside a pod: to the node's primary address).
    net::Endpoint local{};
    if (proc.pod() != kNoPod && interposer_ != nullptr) {
      local.ip = interposer_->PodAddress(proc.pod());
    } else if (!stack_->interfaces().empty()) {
      local.ip = stack_->interfaces().front().ip;
    }
    SysResult r = stack_->TcpBind(desc->socket, local);
    if (!SysOk(r)) return r;
  }
  return stack_->TcpConnect(desc->socket, remote);
}

SysResult Os::SysSendTcp(Process& proc, Fd fd, cruz::ByteSpan data) {
  return SendTcp(proc, fd, data.size(),
                 [data](std::size_t offset, std::span<std::uint8_t> dst) {
                   std::memcpy(dst.data(), data.data() + offset, dst.size());
                 });
}

SysResult Os::SysSendTcpFrom(Process& proc, Fd fd, std::uint64_t addr,
                             std::size_t len) {
  const Memory& mem = proc.memory();
  return SendTcp(proc, fd, len,
                 [&mem, addr](std::size_t offset, std::span<std::uint8_t> dst) {
                   mem.ReadBytes(addr + offset, dst.data(), dst.size());
                 });
}

SysResult Os::SendTcp(Process& proc, Fd fd, std::size_t len,
                      tcp::SendBuffer::Source read) {
  ChargeSyscall(proc);
  TcpSocketObject* sock = TcpFromFd(proc, fd, nullptr);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  if (sock->state == TcpSocketObject::State::kError) {
    return SysErr(sock->error);
  }
  if (sock->conn == nullptr) return SysErr(CRUZ_ENOTCONN);
  return sock->conn->Send(len, read);
}

SysResult Os::SysTcpSendSpace(Process& proc, Fd fd) {
  TcpSocketObject* sock = TcpFromFd(proc, fd, nullptr);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  if (sock->conn == nullptr) return 0;
  return static_cast<SysResult>(sock->conn->SendBufferFree());
}

SysResult Os::SysRecvTcp(Process& proc, Fd fd, cruz::Bytes& out,
                         std::size_t max, bool peek) {
  return RecvTcp(proc, fd, max, peek, [&out](cruz::ByteSpan bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
}

SysResult Os::SysRecvTcpInto(Process& proc, Fd fd, std::uint64_t addr,
                             std::size_t max) {
  Memory& mem = proc.memory();
  return RecvTcp(proc, fd, max, /*peek=*/false,
                 [&mem, addr](cruz::ByteSpan bytes) {
                   mem.WriteBytes(addr, bytes);
                 });
}

SysResult Os::RecvTcp(Process& proc, Fd fd, std::size_t max, bool peek,
                      tcp::RecvBuffer::Sink deliver) {
  ChargeSyscall(proc);
  TcpSocketObject* sock = TcpFromFd(proc, fd, nullptr);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  // Zap's intercepted receive: data restored into the alternate buffer is
  // delivered before anything from the TCP receive path (paper §4.1).
  if (!sock->alt_recv.empty()) {
    std::size_t n = std::min(max, sock->alt_recv.size());
    deliver(cruz::ByteSpan(sock->alt_recv).first(n));
    if (!peek) {
      sock->alt_recv.erase(
          sock->alt_recv.begin(),
          sock->alt_recv.begin() + static_cast<std::ptrdiff_t>(n));
    }
    return static_cast<SysResult>(n);
  }
  if (sock->conn == nullptr) {
    return sock->state == TcpSocketObject::State::kError
               ? SysErr(sock->error)
               : SysErr(CRUZ_ENOTCONN);
  }
  return sock->conn->Receive(max, peek, deliver);
}

SysResult Os::SysSendToUdp(Process& proc, Fd fd, net::Endpoint remote,
                           cruz::ByteSpan data) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr || desc->kind != FileDescription::Kind::kUdpSocket) {
    return SysErr(CRUZ_ENOTSOCK);
  }
  UdpSocketObject* sock = stack_->FindUdp(desc->socket);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (sock->local.port == 0 && proc.pod() != kNoPod &&
      interposer_ != nullptr) {
    // Implicit bind to the pod address for in-pod senders.
    SysResult r = stack_->UdpBind(
        desc->socket,
        net::Endpoint{interposer_->PodAddress(proc.pod()), 0});
    if (!SysOk(r)) return r;
  }
  return stack_->UdpSendTo(desc->socket, remote, data);
}

SysResult Os::SysRecvFromUdp(Process& proc, Fd fd, cruz::Bytes& out,
                             net::Endpoint* from) {
  ChargeSyscall(proc);
  std::shared_ptr<FileDescription> desc = proc.LookupFd(fd);
  if (desc == nullptr || desc->kind != FileDescription::Kind::kUdpSocket) {
    return SysErr(CRUZ_ENOTSOCK);
  }
  UdpSocketObject* sock = stack_->FindUdp(desc->socket);
  if (sock == nullptr) return SysErr(CRUZ_EBADF);
  if (sock->rx.empty()) return SysErr(CRUZ_EAGAIN);
  auto& [src, payload] = sock->rx.front();
  if (from != nullptr) *from = src;
  out.insert(out.end(), payload.begin(), payload.end());
  SysResult n = static_cast<SysResult>(payload.size());
  sock->rx.pop_front();
  return n;
}

SysResult Os::SysSetNodelay(Process& proc, Fd fd, bool on) {
  ChargeSyscall(proc);
  TcpSocketObject* sock = TcpFromFd(proc, fd, nullptr);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  if (sock->conn == nullptr) return SysErr(CRUZ_ENOTCONN);
  sock->conn->SetNagle(!on);
  return 0;
}

SysResult Os::SysSetCork(Process& proc, Fd fd, bool on) {
  ChargeSyscall(proc);
  TcpSocketObject* sock = TcpFromFd(proc, fd, nullptr);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  if (sock->conn == nullptr) return SysErr(CRUZ_ENOTCONN);
  sock->conn->SetCork(on);
  return 0;
}

SysResult Os::SysShutdownTcp(Process& proc, Fd fd) {
  ChargeSyscall(proc);
  TcpSocketObject* sock = TcpFromFd(proc, fd, nullptr);
  if (sock == nullptr) return SysErr(CRUZ_ENOTSOCK);
  if (sock->conn == nullptr) return SysErr(CRUZ_ENOTCONN);
  sock->conn->Close();
  return 0;
}

SysResult Os::SysGetIfHwAddr(Process& proc, const std::string& ifname,
                             net::MacAddress* mac) {
  ChargeSyscall(proc);
  // Zap intercepts SIOCGIFHWADDR for pods and returns the fake MAC, so a
  // DHCP client keeps its lease identity across migration (paper §4.2).
  if (proc.pod() != kNoPod && interposer_ != nullptr) {
    std::optional<net::MacAddress> fake = interposer_->FakeMac(proc.pod());
    if (fake.has_value()) {
      *mac = *fake;
      return 0;
    }
  }
  const Interface* iface = stack_->FindInterfaceByName(ifname);
  if (iface == nullptr) return SysErr(CRUZ_ENODEV);
  *mac = iface->mac;
  return 0;
}

SysResult Os::SysGetIfAddr(Process& proc, const std::string& ifname,
                           net::Ipv4Address* ip) {
  ChargeSyscall(proc);
  if (proc.pod() != kNoPod && interposer_ != nullptr) {
    *ip = interposer_->PodAddress(proc.pod());
    return 0;
  }
  const Interface* iface = stack_->FindInterfaceByName(ifname);
  if (iface == nullptr) return SysErr(CRUZ_ENODEV);
  *ip = iface->ip;
  return 0;
}

// ---------------------------------------------------------------------------
// Syscalls: SysV IPC
// ---------------------------------------------------------------------------

SysResult Os::SysShmGet(Process& proc, std::int32_t key, std::size_t size) {
  ChargeSyscall(proc);
  if (proc.pod() == kNoPod || interposer_ == nullptr) {
    return sysv_.ShmGet(key, size, /*create=*/true);
  }
  std::int32_t k = interposer_->VirtualizeIpcKey(proc.pod(), key);
  SysResult real = sysv_.ShmGet(k, size, /*create=*/true);
  if (!SysOk(real)) return real;
  return interposer_->ShmIdToVirtual(proc.pod(), static_cast<ShmId>(real));
}

ShmId Os::RealShmId(Process& proc, ShmId id) {
  if (proc.pod() == kNoPod || interposer_ == nullptr) return id;
  return interposer_->ShmIdToReal(proc.pod(), id);
}

SemId Os::RealSemId(Process& proc, SemId id) {
  if (proc.pod() == kNoPod || interposer_ == nullptr) return id;
  return interposer_->SemIdToReal(proc.pod(), id);
}

SysResult Os::SysShmAt(Process& proc, ShmId id, std::uint64_t addr) {
  ChargeSyscall(proc);
  id = RealShmId(proc, id);
  ShmSegment* seg = sysv_.FindShm(id);
  if (seg == nullptr) return SysErr(CRUZ_EINVAL);
  ++seg->attach_count;
  proc.shm_attachments().push_back(ShmAttachment{id, addr});
  return 0;
}

SysResult Os::SysShmReadU64(Process& proc, ShmId id, std::uint64_t offset) {
  ChargeSyscall(proc);
  id = RealShmId(proc, id);
  ShmSegment* seg = sysv_.FindShm(id);
  if (seg == nullptr || offset + 8 > seg->data.size()) {
    return SysErr(CRUZ_EFAULT);
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | seg->data[offset + static_cast<std::uint64_t>(i)];
  }
  return static_cast<SysResult>(v);
}

SysResult Os::SysShmWriteU64(Process& proc, ShmId id, std::uint64_t offset,
                             std::uint64_t v) {
  ChargeSyscall(proc);
  id = RealShmId(proc, id);
  ShmSegment* seg = sysv_.FindShm(id);
  if (seg == nullptr || offset + 8 > seg->data.size()) {
    return SysErr(CRUZ_EFAULT);
  }
  for (int i = 0; i < 8; ++i) {
    seg->data[offset + static_cast<std::uint64_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
  return 0;
}

SysResult Os::SysSemGet(Process& proc, std::int32_t key,
                        std::int32_t initial) {
  ChargeSyscall(proc);
  if (proc.pod() == kNoPod || interposer_ == nullptr) {
    return sysv_.SemGet(key, initial, /*create=*/true);
  }
  std::int32_t k = interposer_->VirtualizeIpcKey(proc.pod(), key);
  SysResult real = sysv_.SemGet(k, initial, /*create=*/true);
  if (!SysOk(real)) return real;
  return interposer_->SemIdToVirtual(proc.pod(), static_cast<SemId>(real));
}

SysResult Os::SysSemOp(Process& proc, SemId id, std::int32_t delta) {
  ChargeSyscall(proc);
  id = RealSemId(proc, id);
  Semaphore* sem = sysv_.FindSem(id);
  if (sem == nullptr) return SysErr(CRUZ_EINVAL);
  if (delta >= 0) {
    sem->value += delta;
    if (delta > 0) WakeThreads(sem->waiters);
    return 0;
  }
  if (sem->value + delta < 0) return SysErr(CRUZ_EAGAIN);
  sem->value += delta;
  return 0;
}

void Os::ReportOpLatency(std::uint64_t conn, TimeNs intended) {
  TimeNs now = sim_.Now();
  std::uint64_t latency = now >= intended ? now - intended : 0;
  if (sim_.tracer().VerboseSample()) {
    sim_.tracer().Instant("kv", "kv.op",
                          obs::TraceAttrs{}
                              .Agent(node_name_)
                              .Arg("conn", conn)
                              .Arg("intended_ns", intended)
                              .Arg("latency_ns", latency));
  }
  if (op_latency_sink_) op_latency_sink_(conn, intended, now);
}

// ---------------------------------------------------------------------------
// ProcessCtx forwarding
// ---------------------------------------------------------------------------

TimeNs ProcessCtx::Now() const { return os_.sim().Now(); }

void ProcessCtx::BlockOnReadable(Fd fd) {
  parked_ = true;
  os_.BlockThreadOnFd(proc_, thread_, fd, /*writable=*/false);
}
void ProcessCtx::BlockOnWritable(Fd fd) {
  parked_ = true;
  os_.BlockThreadOnFd(proc_, thread_, fd, /*writable=*/true);
}
void ProcessCtx::BlockOnSem(SemId sem) {
  parked_ = true;
  os_.BlockThreadOnSem(proc_, thread_, sem);
}
void ProcessCtx::Sleep(DurationNs d) {
  parked_ = true;
  os_.SleepThread(proc_, thread_, d);
}
void ProcessCtx::ExitProcess(int code) {
  proc_.set_exit_code(code);
  proc_.set_state(ProcessState::kZombie);
  for (Thread& t : proc_.threads()) t.state = ThreadState::kExited;
}
void ProcessCtx::ExitThread() { thread_.state = ThreadState::kExited; }

void ProcessCtx::ReportOpLatency(std::uint64_t conn, TimeNs intended) {
  // During post-fault re-execution the original run already reported
  // this completion; replaying it would double-count the sample.
  if (ReplayActive()) return;
  os_.ReportOpLatency(conn, intended);
}

// Every wrapper below goes through the step journal (see Intercept /
// ReplayActive in program.h): during a post-fault re-execution the
// recorded result is returned without re-performing the side effect,
// which already happened in the aborted prefix. Park calls (BlockOn*,
// Sleep) are deliberately NOT journaled — AddWaiter dedups and the
// poll-retry program structure tolerates spurious wakeups.

SysResult ProcessCtx::Getpid() {
  return Intercept([&] { return os_.SysGetpid(proc_); });
}
SysResult ProcessCtx::Spawn(const std::string& program, cruz::ByteSpan args) {
  return Intercept([&] { return os_.SysSpawn(proc_, program, args); });
}
SysResult ProcessCtx::SpawnThread(std::uint64_t pc, std::uint64_t arg) {
  if (ReplayActive()) return ReplayNext().result;
  Registers regs;
  regs.r[0] = pc;
  regs.r[1] = arg;
  Tid tid = proc_.CreateThread(regs);
  os_.MakeRunnable(ThreadRef{proc_.pid(), tid});
  if (Recording()) Record(tid);
  return tid;
}
SysResult ProcessCtx::Kill(Pid pid, int signal) {
  return Intercept([&] { return os_.SysKill(proc_, pid, signal); });
}
SysResult ProcessCtx::Open(const std::string& path, bool create) {
  return Intercept([&] { return os_.SysOpen(proc_, path, create); });
}
SysResult ProcessCtx::Read(Fd fd, cruz::Bytes& out, std::size_t max) {
  if (ReplayActive()) {
    const SysRecord& rec = ReplayNext();
    out.insert(out.end(), rec.out.begin(), rec.out.end());
    return rec.result;
  }
  std::size_t before = out.size();
  SysResult r = os_.SysRead(proc_, fd, out, max);
  if (Recording()) {
    Record(r).out.assign(out.begin() + static_cast<std::ptrdiff_t>(before),
                         out.end());
  }
  return r;
}
SysResult ProcessCtx::Write(Fd fd, cruz::ByteSpan data) {
  return Intercept([&] { return os_.SysWrite(proc_, fd, data); });
}
SysResult ProcessCtx::Close(Fd fd) {
  return Intercept([&] { return os_.SysClose(proc_, fd); });
}
SysResult ProcessCtx::Dup(Fd fd) {
  return Intercept([&] { return os_.SysDup(proc_, fd); });
}
SysResult ProcessCtx::MakePipe(Fd* read_end, Fd* write_end) {
  if (ReplayActive()) {
    const SysRecord& rec = ReplayNext();
    *read_end = static_cast<Fd>(rec.a);
    *write_end = static_cast<Fd>(rec.b);
    return rec.result;
  }
  SysResult r = os_.SysPipe(proc_, read_end, write_end);
  if (Recording()) {
    SysRecord& rec = Record(r);
    rec.a = static_cast<std::uint64_t>(*read_end);
    rec.b = static_cast<std::uint64_t>(*write_end);
  }
  return r;
}
SysResult ProcessCtx::SocketTcp() {
  return Intercept([&] { return os_.SysSocketTcp(proc_); });
}
SysResult ProcessCtx::SocketUdp() {
  return Intercept([&] { return os_.SysSocketUdp(proc_); });
}
SysResult ProcessCtx::Bind(Fd fd, net::Endpoint local) {
  return Intercept([&] { return os_.SysBind(proc_, fd, local); });
}
SysResult ProcessCtx::Listen(Fd fd, int backlog) {
  return Intercept([&] { return os_.SysListen(proc_, fd, backlog); });
}
SysResult ProcessCtx::Accept(Fd fd) {
  return Intercept([&] { return os_.SysAccept(proc_, fd); });
}
SysResult ProcessCtx::Connect(Fd fd, net::Endpoint remote) {
  return Intercept([&] { return os_.SysConnect(proc_, fd, remote); });
}
SysResult ProcessCtx::SendTcp(Fd fd, cruz::ByteSpan data) {
  return Intercept([&] { return os_.SysSendTcp(proc_, fd, data); });
}
SysResult ProcessCtx::SendTcpFrom(Fd fd, std::uint64_t addr,
                                 std::size_t len) {
  if (Recording()) {
    // Pages may be missing: read the source before the syscall, as the
    // Bytes form's caller does, so a fault aborts the step before any
    // side effect.
    cruz::Bytes data = Mem().ReadBytes(addr, len);
    tcp::CountTcpPayloadCopy(data.size());
    return SendTcp(fd, data);
  }
  return os_.SysSendTcpFrom(proc_, fd, addr, len);
}
SysResult ProcessCtx::TcpSendSpace(Fd fd) {
  return Intercept([&] { return os_.SysTcpSendSpace(proc_, fd); });
}
SysResult ProcessCtx::RecvTcp(Fd fd, cruz::Bytes& out, std::size_t max,
                              bool peek) {
  if (ReplayActive()) {
    const SysRecord& rec = ReplayNext();
    out.insert(out.end(), rec.out.begin(), rec.out.end());
    return rec.result;
  }
  std::size_t before = out.size();
  SysResult r = os_.SysRecvTcp(proc_, fd, out, max, peek);
  if (Recording()) {
    Record(r).out.assign(out.begin() + static_cast<std::ptrdiff_t>(before),
                         out.end());
  }
  return r;
}
SysResult ProcessCtx::RecvTcpInto(Fd fd, std::uint64_t addr,
                                 std::size_t max) {
  if (Recording()) {
    // The journal keeps the received bytes, and the copy into memory may
    // fault after the receive consumed them: a re-execution replays the
    // receive and redoes the copy.
    cruz::Bytes buf;
    SysResult r = RecvTcp(fd, buf, max);
    Mem().WriteBytes(addr, buf);
    tcp::CountTcpPayloadCopy(buf.size());
    return r;
  }
  return os_.SysRecvTcpInto(proc_, fd, addr, max);
}
SysResult ProcessCtx::SendToUdp(Fd fd, net::Endpoint remote,
                                cruz::ByteSpan data) {
  return Intercept([&] { return os_.SysSendToUdp(proc_, fd, remote, data); });
}
SysResult ProcessCtx::RecvFromUdp(Fd fd, cruz::Bytes& out,
                                  net::Endpoint* from) {
  if (ReplayActive()) {
    const SysRecord& rec = ReplayNext();
    out.insert(out.end(), rec.out.begin(), rec.out.end());
    if (from != nullptr) *from = rec.from;
    return rec.result;
  }
  std::size_t before = out.size();
  net::Endpoint src{};
  SysResult r = os_.SysRecvFromUdp(proc_, fd, out, &src);
  if (from != nullptr) *from = src;
  if (Recording()) {
    SysRecord& rec = Record(r);
    rec.out.assign(out.begin() + static_cast<std::ptrdiff_t>(before),
                   out.end());
    rec.from = src;
  }
  return r;
}
SysResult ProcessCtx::SetNodelay(Fd fd, bool on) {
  return Intercept([&] { return os_.SysSetNodelay(proc_, fd, on); });
}
SysResult ProcessCtx::SetCork(Fd fd, bool on) {
  return Intercept([&] { return os_.SysSetCork(proc_, fd, on); });
}
SysResult ProcessCtx::ShutdownTcp(Fd fd) {
  return Intercept([&] { return os_.SysShutdownTcp(proc_, fd); });
}
SysResult ProcessCtx::GetIfHwAddr(const std::string& ifname,
                                  net::MacAddress* mac) {
  if (ReplayActive()) {
    const SysRecord& rec = ReplayNext();
    for (int i = 0; i < 6; ++i) {
      mac->octets[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(rec.a >> (8 * i));
    }
    return rec.result;
  }
  SysResult r = os_.SysGetIfHwAddr(proc_, ifname, mac);
  if (Recording()) {
    std::uint64_t packed = 0;
    for (int i = 5; i >= 0; --i) {
      packed = (packed << 8) | mac->octets[static_cast<std::size_t>(i)];
    }
    Record(r).a = packed;
  }
  return r;
}
SysResult ProcessCtx::GetIfAddr(const std::string& ifname,
                                net::Ipv4Address* ip) {
  if (ReplayActive()) {
    const SysRecord& rec = ReplayNext();
    ip->value = static_cast<std::uint32_t>(rec.a);
    return rec.result;
  }
  SysResult r = os_.SysGetIfAddr(proc_, ifname, ip);
  if (Recording()) Record(r).a = ip->value;
  return r;
}
SysResult ProcessCtx::ShmGet(std::int32_t key, std::size_t size) {
  return Intercept([&] { return os_.SysShmGet(proc_, key, size); });
}
SysResult ProcessCtx::ShmAt(ShmId id, std::uint64_t addr) {
  return Intercept([&] { return os_.SysShmAt(proc_, id, addr); });
}
SysResult ProcessCtx::ShmReadU64(ShmId id, std::uint64_t offset) {
  return Intercept([&] { return os_.SysShmReadU64(proc_, id, offset); });
}
SysResult ProcessCtx::ShmWriteU64(ShmId id, std::uint64_t offset,
                                  std::uint64_t v) {
  return Intercept([&] { return os_.SysShmWriteU64(proc_, id, offset, v); });
}
SysResult ProcessCtx::SemGet(std::int32_t key, std::int32_t initial) {
  return Intercept([&] { return os_.SysSemGet(proc_, key, initial); });
}
SysResult ProcessCtx::SemOp(SemId id, std::int32_t delta) {
  return Intercept([&] { return os_.SysSemOp(proc_, id, delta); });
}

// ---------------------------------------------------------------------------
// ProgramRegistry
// ---------------------------------------------------------------------------

ProgramRegistry& ProgramRegistry::Instance() {
  static ProgramRegistry registry;
  return registry;
}

void ProgramRegistry::Register(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<Program> ProgramRegistry::Create(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw UsageError("unknown program: " + name);
  }
  return it->second();
}

bool ProgramRegistry::Contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

}  // namespace cruz::os
