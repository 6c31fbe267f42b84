// The simulated kernel: process table, thread scheduler, syscalls, signal
// delivery, and the pod interposition hooks.
//
// Zap's architecture interposes a thin virtualization layer between
// applications and the OS (paper Fig. 1). Here that boundary is explicit:
// every syscall a Program issues flows through ProcessCtx into Os, and Os
// consults the installed SyscallInterposer (implemented by the pod layer)
// at exactly the points the paper describes — pid virtualization, bind and
// connect address rewriting, and the SIOCGIFHWADDR fake-MAC ioctl. The
// base "kernel" has no knowledge of pods beyond this hook interface,
// mirroring "without requiring ... base kernel modifications".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sysresult.h"
#include "common/units.h"
#include "os/netfs.h"
#include "os/netstack.h"
#include "os/process.h"
#include "os/program.h"
#include "os/sysv_ipc.h"
#include "os/types.h"

namespace cruz::sim {
class Simulator;
}

namespace cruz::os {

// Hook interface implemented by the pod layer (Zap's interposition).
class SyscallInterposer {
 public:
  virtual ~SyscallInterposer() = default;
  virtual void OnProcessCreated(PodId pod, Pid real) = 0;
  virtual void OnProcessExited(PodId pod, Pid real) = 0;
  virtual Pid ToVirtualPid(PodId pod, Pid real) = 0;
  virtual Pid ToRealPid(PodId pod, Pid virt) = 0;
  // IP address of the pod's VIF; bind/connect wrappers substitute it.
  virtual net::Ipv4Address PodAddress(PodId pod) = 0;
  // Fake MAC returned by the intercepted SIOCGIFHWADDR (paper §4.2).
  virtual std::optional<net::MacAddress> FakeMac(PodId pod) = 0;
  // Pod-private SysV key namespace.
  virtual std::int32_t VirtualizeIpcKey(PodId pod, std::int32_t key) = 0;
  // SysV identifier virtualization: programs inside pods only ever see
  // virtual shm/sem ids, which stay stable across restore even though the
  // kernel assigns fresh real ids (same principle as virtual pids).
  virtual ShmId ShmIdToVirtual(PodId pod, ShmId real) = 0;
  virtual ShmId ShmIdToReal(PodId pod, ShmId virt) = 0;
  virtual SemId SemIdToVirtual(PodId pod, SemId real) = 0;
  virtual SemId SemIdToReal(PodId pod, SemId virt) = 0;
};

class Os {
 public:
  Os(sim::Simulator& sim, std::string node_name, NetworkStack* stack,
     NetworkFileSystem* fs);

  const std::string& node_name() const { return node_name_; }
  sim::Simulator& sim() { return sim_; }
  NetworkStack& stack() { return *stack_; }
  NetworkFileSystem& fs() { return *fs_; }
  SysVIpc& sysv() { return sysv_; }

  void set_interposer(SyscallInterposer* i) { interposer_ = i; }
  SyscallInterposer* interposer() { return interposer_; }

  // Called when a process fully exits (harness / job-scheduler hook).
  void set_process_exit_hook(std::function<void(Pid, int)> hook) {
    process_exit_hook_ = std::move(hook);
  }

  // Called for every request latency a program reports via
  // ProcessCtx::ReportOpLatency (load-generator hook). Receives the
  // connection id, the *intended* send time and the completion time.
  using OpLatencySink =
      std::function<void(std::uint64_t conn, TimeNs intended, TimeNs completed)>;
  void set_op_latency_sink(OpLatencySink sink) {
    op_latency_sink_ = std::move(sink);
  }
  // Emits a sampled `kv.op` trace instant, then feeds the sink (which
  // gets every sample — trace sampling only decimates timeline volume).
  void ReportOpLatency(std::uint64_t conn, TimeNs intended);

  // --- process management ------------------------------------------------------
  // Creates a process running `program` with `args` copied into its
  // address space. Returns the real pid.
  Pid Spawn(const std::string& program, cruz::ByteSpan args,
            PodId pod = kNoPod, Pid ppid = kNoPid);
  Process* FindProcess(Pid pid);
  const std::map<Pid, std::unique_ptr<Process>>& processes() const {
    return processes_;
  }
  std::vector<Pid> PodProcesses(PodId pod) const;

  // Signal delivery: SIGSTOP freezes scheduling, SIGCONT resumes,
  // SIGKILL/SIGTERM terminate.
  SysResult Signal(Pid pid, int signal);
  // Immediate teardown of a process (releases fds, wakes peers).
  void DestroyProcess(Pid pid, int exit_code);

  // Restore path: installs a process rebuilt from a checkpoint (memory and
  // threads already populated by the engine). Threads start runnable.
  // Construct the process with a pid from AllocatePid().
  Pid AllocatePid() { return next_pid_++; }
  Pid InstallProcess(std::unique_ptr<Process> proc);
  void StartProcessThreads(Pid pid);

  // --- demand paging (post-copy migration) -------------------------------------
  // Delivers the content of a missing page to `pid`. If the page was the
  // one a thread is parked on, the thread (and the rest of the process,
  // which stalls as a unit while a fault is pending) resumes. Returns
  // false and installs nothing when the page is not missing — duplicate
  // deliveries (retransmits, push racing a demand fetch) are dropped.
  bool FillPage(Pid pid, std::uint64_t page_index, cruz::ByteSpan content);
  // Handler invoked when a thread of `pid` touches a missing page; the
  // migration target's page-server client uses it to issue the demand
  // fetch. The faulting process is already parked when it runs.
  void SetPageFaultHandler(Pid pid,
                           std::function<void(std::uint64_t)> handler) {
    page_fault_handlers_[pid] = std::move(handler);
  }
  void ClearPageFaultHandler(Pid pid) { page_fault_handlers_.erase(pid); }

  // --- scheduling --------------------------------------------------------------
  void MakeRunnable(ThreadRef ref);
  void WakeThreads(std::vector<ThreadRef>& refs);
  // True if every process on this node is idle (no runnable threads).
  bool Quiescent() const;

  std::uint64_t steps_executed() const { return steps_executed_; }
  std::uint64_t syscall_count() const { return syscall_count_; }

  // --- syscall implementations (called via ProcessCtx) --------------------------
  SysResult SysGetpid(Process& proc);
  SysResult SysSpawn(Process& proc, const std::string& program,
                     cruz::ByteSpan args);
  SysResult SysKill(Process& proc, Pid pid, int signal);

  SysResult SysOpen(Process& proc, const std::string& path, bool create);
  SysResult SysRead(Process& proc, Fd fd, cruz::Bytes& out, std::size_t max);
  SysResult SysWrite(Process& proc, Fd fd, cruz::ByteSpan data);
  SysResult SysClose(Process& proc, Fd fd);
  SysResult SysDup(Process& proc, Fd fd);
  SysResult SysPipe(Process& proc, Fd* read_end, Fd* write_end);

  SysResult SysSocketTcp(Process& proc);
  SysResult SysSocketUdp(Process& proc);
  SysResult SysBind(Process& proc, Fd fd, net::Endpoint local);
  SysResult SysListen(Process& proc, Fd fd, int backlog);
  SysResult SysAccept(Process& proc, Fd fd);
  SysResult SysConnect(Process& proc, Fd fd, net::Endpoint remote);
  SysResult SysSendTcp(Process& proc, Fd fd, cruz::ByteSpan data);
  // send(fd, addr, len): the bytes go from `proc`'s memory straight into
  // the send buffer.
  SysResult SysSendTcpFrom(Process& proc, Fd fd, std::uint64_t addr,
                           std::size_t len);
  SysResult SysTcpSendSpace(Process& proc, Fd fd);
  SysResult SysRecvTcp(Process& proc, Fd fd, cruz::Bytes& out,
                       std::size_t max, bool peek);
  // recv(fd, addr, max): the bytes go from the receive buffer straight
  // into `proc`'s memory.
  SysResult SysRecvTcpInto(Process& proc, Fd fd, std::uint64_t addr,
                           std::size_t max);
  SysResult SysSendToUdp(Process& proc, Fd fd, net::Endpoint remote,
                         cruz::ByteSpan data);
  SysResult SysRecvFromUdp(Process& proc, Fd fd, cruz::Bytes& out,
                           net::Endpoint* from);
  SysResult SysSetNodelay(Process& proc, Fd fd, bool on);
  SysResult SysSetCork(Process& proc, Fd fd, bool on);
  SysResult SysShutdownTcp(Process& proc, Fd fd);
  SysResult SysGetIfHwAddr(Process& proc, const std::string& ifname,
                           net::MacAddress* mac);
  SysResult SysGetIfAddr(Process& proc, const std::string& ifname,
                         net::Ipv4Address* ip);

  SysResult SysShmGet(Process& proc, std::int32_t key, std::size_t size);
  SysResult SysShmAt(Process& proc, ShmId id, std::uint64_t addr);
  SysResult SysShmReadU64(Process& proc, ShmId id, std::uint64_t offset);
  SysResult SysShmWriteU64(Process& proc, ShmId id, std::uint64_t offset,
                           std::uint64_t v);
  SysResult SysSemGet(Process& proc, std::int32_t key, std::int32_t initial);
  SysResult SysSemOp(Process& proc, SemId id, std::int32_t delta);

  // Blocking registration used by ProcessCtx::BlockOn*.
  // Id translation helpers (virtual -> real for in-pod processes).
  ShmId RealShmId(Process& proc, ShmId id);
  SemId RealSemId(Process& proc, SemId id);

  void BlockThreadOnFd(Process& proc, Thread& thread, Fd fd, bool writable);
  void BlockThreadOnSem(Process& proc, Thread& thread, SemId sem);
  void SleepThread(Process& proc, Thread& thread, DurationNs d);

 private:
  void ScheduleStep(ThreadRef ref, DurationNs delay);
  void RunStep(ThreadRef ref);
  void ReleaseFd(Process& proc, const std::shared_ptr<FileDescription>& d);
  TcpSocketObject* TcpFromFd(Process& proc, Fd fd,
                             std::shared_ptr<FileDescription>* desc_out);
  // The TCP send and receive syscalls over a byte source and sink: the
  // Bytes forms and the process-memory forms differ only in those.
  SysResult SendTcp(Process& proc, Fd fd, std::size_t len,
                    tcp::SendBuffer::Source read);
  SysResult RecvTcp(Process& proc, Fd fd, std::size_t max, bool peek,
                    tcp::RecvBuffer::Sink deliver);
  // Charges the Zap interposition cost for syscalls issued from inside a
  // pod (the paper's <0.5% runtime overhead).
  void ChargeSyscall(Process& proc);

  sim::Simulator& sim_;
  std::string node_name_;
  NetworkStack* stack_;
  NetworkFileSystem* fs_;
  SysVIpc sysv_;
  SyscallInterposer* interposer_ = nullptr;
  std::function<void(Pid, int)> process_exit_hook_;
  OpLatencySink op_latency_sink_;

  std::map<Pid, std::unique_ptr<Process>> processes_;
  std::map<Pid, std::function<void(std::uint64_t)>> page_fault_handlers_;
  Pid next_pid_ = 100;
  PipeId next_pipe_id_ = 1;

  DurationNs step_granularity_ = 1 * kMicrosecond;
  static constexpr DurationNs kInterpositionCost = 50;  // ns per syscall
  std::uint64_t steps_executed_ = 0;
  std::uint64_t syscall_count_ = 0;
  DurationNs pending_syscall_charge_ = 0;
};

}  // namespace cruz::os
