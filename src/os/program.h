// Application programs and the registry that re-instantiates them at
// restart.
//
// A Program is the *code* of an application: a resumable state machine
// driven by the scheduler. Each invocation of Step() runs one bounded
// burst of work for one thread. All persistent state must live in the
// process address space (ctx.Mem()) or the thread register file
// (ctx.Reg(i)); the Program object itself must stay stateless, because a
// restored process gets a *fresh* Program instance (looked up by name in
// the ProgramRegistry) with only memory + registers carried over — the
// exact contract of a transparent checkpointer.
//
// Blocking: syscalls never block; they return -EAGAIN. A program that
// needs to wait calls ctx.BlockOnReadable(fd) / BlockOnWritable(fd) /
// Sleep(d) and returns from Step(); the scheduler re-runs Step() at the
// same pc after the wakeup, and the program re-issues the syscall. This is
// the classic poll-retry structure of event-driven code, and it is what
// makes a thread restored as "runnable" simply re-enter its wait.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/sysresult.h"
#include "common/units.h"
#include "net/address.h"
#include "os/memory.h"
#include "os/process.h"
#include "os/types.h"

namespace cruz::os {

class Os;

// The syscall/CPU surface handed to Program::Step. Thin wrapper around
// (Os, Process, Thread); see os.h for the kernel-side implementations.
class ProcessCtx {
 public:
  ProcessCtx(Os& os, Process& proc, Thread& thread)
      : os_(os), proc_(proc), thread_(thread) {}

  // --- CPU state -------------------------------------------------------------
  std::uint64_t& Reg(int i) { return thread_.regs.r[i]; }
  std::uint64_t& Pc() { return thread_.regs.pc(); }
  Memory& Mem() { return proc_.memory(); }
  Tid tid() const { return thread_.tid; }

  // --- scheduling ---------------------------------------------------------------
  TimeNs Now() const;
  // Accounts simulated CPU time for this step (the next step of this
  // thread is scheduled after the accumulated charge).
  void ChargeCpu(DurationNs d) { cpu_charge_ += d; }
  // Parks the thread; a wakeup re-runs Step at the current pc.
  void BlockOnReadable(Fd fd);
  void BlockOnWritable(Fd fd);
  void BlockOnSem(SemId sem);
  void Sleep(DurationNs d);
  void ExitProcess(int code);
  void ExitThread();

  // --- observability ---------------------------------------------------------
  // Reports one completed request: latency is Now() - intended, where
  // `intended` is the open-loop schedule's intended send time (measuring
  // from the intended, not actual, send makes coordinated omission
  // impossible by construction). Emits a sampled `kv.op` trace instant
  // and feeds the node's op-latency sink. No-op during post-fault
  // replay — the original execution already reported the sample.
  void ReportOpLatency(std::uint64_t conn, TimeNs intended);

  // --- process management ----------------------------------------------------------
  SysResult Getpid();
  SysResult Spawn(const std::string& program, cruz::ByteSpan args);
  SysResult SpawnThread(std::uint64_t pc, std::uint64_t arg);
  SysResult Kill(Pid pid, int signal);

  // --- files / pipes -----------------------------------------------------------------
  SysResult Open(const std::string& path, bool create);
  SysResult Read(Fd fd, cruz::Bytes& out, std::size_t max);
  SysResult Write(Fd fd, cruz::ByteSpan data);
  SysResult Close(Fd fd);
  SysResult Dup(Fd fd);
  SysResult MakePipe(Fd* read_end, Fd* write_end);

  // --- sockets ------------------------------------------------------------------------
  SysResult SocketTcp();
  SysResult SocketUdp();
  SysResult Bind(Fd fd, net::Endpoint local);
  SysResult Listen(Fd fd, int backlog);
  SysResult Accept(Fd fd);
  SysResult Connect(Fd fd, net::Endpoint remote);
  SysResult SendTcp(Fd fd, cruz::ByteSpan data);
  // send(fd, addr, len) from this process's memory: the bytes are copied
  // once, into the send buffer.
  SysResult SendTcpFrom(Fd fd, std::uint64_t addr, std::size_t len);
  // Bytes a SendTcp on `fd` would accept right now (Linux: SO_SNDBUF
  // minus SIOCOUTQ); 0 before the connection exists. A free query: it
  // charges no syscall cost, so sizing a send by it leaves the simulated
  // timeline unchanged.
  SysResult TcpSendSpace(Fd fd);
  SysResult RecvTcp(Fd fd, cruz::Bytes& out, std::size_t max,
                    bool peek = false);
  // recv(fd, addr, max) into this process's memory: the bytes are copied
  // once, out of the receive buffer.
  SysResult RecvTcpInto(Fd fd, std::uint64_t addr, std::size_t max);
  SysResult SendToUdp(Fd fd, net::Endpoint remote, cruz::ByteSpan data);
  SysResult RecvFromUdp(Fd fd, cruz::Bytes& out, net::Endpoint* from);
  SysResult SetNodelay(Fd fd, bool on);
  SysResult SetCork(Fd fd, bool on);
  SysResult ShutdownTcp(Fd fd);  // orderly close of the write side

  // --- network ioctls (SIOCGIFHWADDR et al.) ----------------------------------
  SysResult GetIfHwAddr(const std::string& ifname, net::MacAddress* mac);
  SysResult GetIfAddr(const std::string& ifname, net::Ipv4Address* ip);

  // --- SysV IPC -------------------------------------------------------------------
  SysResult ShmGet(std::int32_t key, std::size_t size);
  SysResult ShmAt(ShmId id, std::uint64_t addr);
  SysResult ShmReadU64(ShmId id, std::uint64_t offset);
  SysResult ShmWriteU64(ShmId id, std::uint64_t offset, std::uint64_t v);
  SysResult SemGet(std::int32_t key, std::int32_t initial);
  SysResult SemOp(SemId id, std::int32_t delta);  // -EAGAIN if would block

  // Internal: state consumed by the scheduler after Step returns.
  DurationNs cpu_charge() const { return cpu_charge_; }
  bool parked() const { return parked_; }

 private:
  friend class Os;

  // Step-journal interception (see StepJournal in process.h). While a
  // post-fault re-execution is replaying, each syscall wrapper returns
  // the recorded result of the aborted prefix instead of re-performing
  // the (already applied) side effect; past the prefix, and whenever the
  // address space has missing pages, live results are recorded. Both are
  // no-ops on the common path (journal == nullptr).
  bool ReplayActive() const {
    return thread_.journal != nullptr &&
           thread_.journal->cursor < thread_.journal->records.size();
  }
  const SysRecord& ReplayNext() {
    return thread_.journal->records[thread_.journal->cursor++];
  }
  bool Recording() const { return thread_.journal != nullptr; }
  SysRecord& Record(SysResult result) {
    thread_.journal->records.push_back(SysRecord{result, {}, {}, 0, 0});
    thread_.journal->cursor = thread_.journal->records.size();
    return thread_.journal->records.back();
  }
  // Replay/record wrapper for syscalls whose only output is the result.
  template <typename Live>
  SysResult Intercept(Live&& live) {
    if (ReplayActive()) return ReplayNext().result;
    SysResult r = live();
    if (Recording()) Record(r);
    return r;
  }

  Os& os_;
  Process& proc_;
  Thread& thread_;
  DurationNs cpu_charge_ = 0;
  bool parked_ = false;
};

class Program {
 public:
  virtual ~Program() = default;
  // Runs one step for one thread. Must not retain references to ctx.
  virtual void Step(ProcessCtx& ctx) = 0;
};

// Name -> factory registry. Programs self-register at static-init time via
// RegisterProgram, or tests register lambdas directly.
class ProgramRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Program>()>;

  static ProgramRegistry& Instance();

  void Register(const std::string& name, Factory factory);
  // Throws UsageError for unknown names (a restart on a machine without
  // the application binary is a deployment error, not a silent no-op).
  std::unique_ptr<Program> Create(const std::string& name) const;
  bool Contains(const std::string& name) const;

 private:
  std::map<std::string, Factory> factories_;
};

// Helper for static registration:
//   CRUZ_REGISTER_PROGRAM("slm_rank", SlmRankProgram);
#define CRUZ_REGISTER_PROGRAM(name, Type)                              \
  static const bool cruz_prog_reg_##Type = [] {                        \
    ::cruz::os::ProgramRegistry::Instance().Register(                  \
        (name), [] { return std::make_unique<Type>(); });              \
    return true;                                                       \
  }()

}  // namespace cruz::os
