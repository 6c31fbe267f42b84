// Tests for the simulated OS: scheduling, processes, pipes, signals,
// SysV IPC, sockets through the full network stack, DHCP, and netfilter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "os/dhcp.h"
#include "os/node.h"
#include "os/program.h"
#include "sim/simulator.h"

namespace cruz::os {
namespace {

constexpr std::uint64_t kResultAddr = 0x200000;

// --- test programs -----------------------------------------------------------

// Increments a counter in memory; exits after `iters` (from args).
class CounterProgram : public Program {
 public:
  void Step(ProcessCtx& ctx) override {
    if (ctx.Pc() == 0) {
      Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
      ByteReader r(args);
      ctx.Reg(3) = r.GetU64();  // iterations
      ctx.Pc() = 1;
      return;
    }
    std::uint64_t count = ctx.Mem().ReadU64(kResultAddr);
    ctx.Mem().WriteU64(kResultAddr, count + 1);
    ctx.ChargeCpu(10 * kMicrosecond);
    if (count + 1 >= ctx.Reg(3)) ctx.ExitProcess(0);
  }
};

// Creates a pipe, writes a pattern, reads it back, checks, exits.
class PipeLoopProgram : public Program {
 public:
  void Step(ProcessCtx& ctx) override {
    switch (ctx.Pc()) {
      case 0: {
        Fd rd = -1, wr = -1;
        ASSERT_EQ(ctx.MakePipe(&rd, &wr), 0);
        ctx.Reg(3) = static_cast<std::uint64_t>(rd);
        ctx.Reg(4) = static_cast<std::uint64_t>(wr);
        Bytes msg = {'p', 'i', 'n', 'g'};
        ASSERT_EQ(ctx.Write(static_cast<Fd>(ctx.Reg(4)), msg), 4);
        ctx.Pc() = 1;
        break;
      }
      case 1: {
        Bytes out;
        SysResult n = ctx.Read(static_cast<Fd>(ctx.Reg(3)), out, 16);
        ASSERT_EQ(n, 4);
        ctx.Mem().WriteBytes(kResultAddr, out);
        ctx.Close(static_cast<Fd>(ctx.Reg(3)));
        ctx.Close(static_cast<Fd>(ctx.Reg(4)));
        ctx.ExitProcess(0);
        break;
      }
    }
  }
};

// Echo server: listens on the port in args, echoes one connection's bytes
// until EOF, then exits.
class EchoServerProgram : public Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kAccept, kEcho };
    switch (ctx.Pc()) {
      case kInit: {
        Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
        ByteReader r(args);
        std::uint16_t port = r.GetU16();
        SysResult fd = ctx.SocketTcp();
        ASSERT_TRUE(SysOk(fd));
        ASSERT_EQ(ctx.Bind(static_cast<Fd>(fd),
                           net::Endpoint{net::kAnyAddress, port}),
                  0);
        ASSERT_EQ(ctx.Listen(static_cast<Fd>(fd), 8), 0);
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kAccept;
        break;
      }
      case kAccept: {
        SysResult c = ctx.Accept(static_cast<Fd>(ctx.Reg(3)));
        if (SysErrno(c) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(static_cast<Fd>(ctx.Reg(3)));
          break;
        }
        ASSERT_TRUE(SysOk(c));
        ctx.Reg(4) = static_cast<std::uint64_t>(c);
        ctx.Pc() = kEcho;
        break;
      }
      case kEcho: {
        Bytes buf;
        SysResult n = ctx.RecvTcp(static_cast<Fd>(ctx.Reg(4)), buf, 4096);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(static_cast<Fd>(ctx.Reg(4)));
          break;
        }
        if (n == 0) {  // EOF
          ctx.Close(static_cast<Fd>(ctx.Reg(4)));
          ctx.ExitProcess(0);
          break;
        }
        if (n < 0) {
          ctx.ExitProcess(2);
          break;
        }
        ctx.SendTcp(static_cast<Fd>(ctx.Reg(4)), buf);
        break;
      }
    }
  }
};

// Echo client: connects to (ip, port) in args, sends a message, waits for
// the echo, stores it at kResultAddr, closes, exits.
class EchoClientProgram : public Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kConnect, kSend, kRecv };
    switch (ctx.Pc()) {
      case kInit: {
        SysResult fd = ctx.SocketTcp();
        ASSERT_TRUE(SysOk(fd));
        ctx.Reg(3) = static_cast<std::uint64_t>(fd);
        ctx.Pc() = kConnect;
        break;
      }
      case kConnect: {
        Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
        ByteReader r(args);
        net::Endpoint server{net::Ipv4Address{r.GetU32()}, r.GetU16()};
        SysResult res = ctx.Connect(static_cast<Fd>(ctx.Reg(3)), server);
        if (res == 0) {
          ctx.Pc() = kSend;
          break;
        }
        Errno e = SysErrno(res);
        if (e == CRUZ_EINPROGRESS || e == CRUZ_EALREADY) {
          ctx.BlockOnWritable(static_cast<Fd>(ctx.Reg(3)));
          break;
        }
        ctx.ExitProcess(static_cast<int>(e));
        break;
      }
      case kSend: {
        Bytes msg = {'h', 'e', 'l', 'l', 'o'};
        SysResult n = ctx.SendTcp(static_cast<Fd>(ctx.Reg(3)), msg);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnWritable(static_cast<Fd>(ctx.Reg(3)));
          break;
        }
        ASSERT_EQ(n, 5);
        ctx.Pc() = kRecv;
        break;
      }
      case kRecv: {
        Bytes out;
        SysResult n = ctx.RecvTcp(static_cast<Fd>(ctx.Reg(3)), out, 64);
        if (SysErrno(n) == CRUZ_EAGAIN) {
          ctx.BlockOnReadable(static_cast<Fd>(ctx.Reg(3)));
          break;
        }
        ASSERT_EQ(n, 5);
        ctx.Mem().WriteBytes(kResultAddr, out);
        ctx.Close(static_cast<Fd>(ctx.Reg(3)));
        ctx.ExitProcess(0);
        break;
      }
    }
  }
};

// Two threads increment a shared (in-process) counter guarded by a SysV
// semaphore; also exercises SpawnThread.
class SemPairProgram : public Program {
 public:
  void Step(ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kLoop, kWorker = 100 };
    if (ctx.tid() == 0) {
      switch (ctx.Pc()) {
        case kInit: {
          SysResult sem = ctx.SemGet(42, 1);
          ASSERT_TRUE(SysOk(sem));
          ctx.Reg(3) = static_cast<std::uint64_t>(sem);
          ctx.Mem().WriteU64(kResultAddr, 0);
          ctx.SpawnThread(kWorker, static_cast<std::uint64_t>(sem));
          ctx.Pc() = kLoop;
          break;
        }
        case kLoop: {
          SemId sem = static_cast<SemId>(ctx.Reg(3));
          SysResult r = ctx.SemOp(sem, -1);
          if (SysErrno(r) == CRUZ_EAGAIN) {
            ctx.BlockOnSem(sem);
            break;
          }
          std::uint64_t v = ctx.Mem().ReadU64(kResultAddr);
          ctx.Mem().WriteU64(kResultAddr, v + 1);
          ctx.SemOp(sem, 1);
          ctx.ChargeCpu(5 * kMicrosecond);
          if (v + 1 >= 100) ctx.ExitProcess(0);
          break;
        }
      }
      return;
    }
    // Worker thread: same loop, different register bank (pc starts at
    // kWorker with the sem id in r1).
    SemId sem = static_cast<SemId>(ctx.Reg(1));
    SysResult r = ctx.SemOp(sem, -1);
    if (SysErrno(r) == CRUZ_EAGAIN) {
      ctx.BlockOnSem(sem);
      return;
    }
    std::uint64_t v = ctx.Mem().ReadU64(kResultAddr + 8);
    ctx.Mem().WriteU64(kResultAddr + 8, v + 1);
    ctx.SemOp(sem, 1);
    ctx.ChargeCpu(5 * kMicrosecond);
    if (v + 1 >= 100) ctx.ExitThread();
  }
};

// Writes its virtual pid to memory, spawns a child (which does the same),
// and exits.
class PidProbeProgram : public Program {
 public:
  void Step(ProcessCtx& ctx) override {
    ctx.Mem().WriteU64(kResultAddr, static_cast<std::uint64_t>(ctx.Getpid()));
    ctx.ExitProcess(0);
  }
};

bool g_registered = [] {
  auto& reg = ProgramRegistry::Instance();
  reg.Register("counter", [] { return std::make_unique<CounterProgram>(); });
  reg.Register("pipe_loop",
               [] { return std::make_unique<PipeLoopProgram>(); });
  reg.Register("echo_server",
               [] { return std::make_unique<EchoServerProgram>(); });
  reg.Register("echo_client",
               [] { return std::make_unique<EchoClientProgram>(); });
  reg.Register("sem_pair", [] { return std::make_unique<SemPairProgram>(); });
  reg.Register("pid_probe",
               [] { return std::make_unique<PidProbeProgram>(); });
  return true;
}();

// --- fixture ------------------------------------------------------------------

struct Cluster {
  sim::Simulator sim{1};
  net::EthernetSwitch ethernet{sim, net::LinkParams{}};
  NetworkFileSystem fs;
  Node n1;
  Cluster()
      : n1(sim, ethernet, fs, "node1", 1,
           NodeConfig{.ip = net::Ipv4Address::Parse("10.0.0.1"), .netmask = net::Ipv4Address::FromOctets(255, 255, 255, 0), .tcp = {}}) {}
};

struct TwoNodeCluster : Cluster {
  Node n2;
  TwoNodeCluster()
      : n2(sim, ethernet, fs, "node2", 2,
           NodeConfig{.ip = net::Ipv4Address::Parse("10.0.0.2"), .netmask = net::Ipv4Address::FromOctets(255, 255, 255, 0), .tcp = {}}) {}
};

Bytes U64Args(std::uint64_t v) {
  ByteWriter w;
  w.PutU64(v);
  return w.Take();
}

// --- tests -----------------------------------------------------------------------

TEST(OsProcess, SpawnRunExit) {
  Cluster c;
  Pid pid = c.n1.os().Spawn("counter", U64Args(50));
  Process* proc = c.n1.os().FindProcess(pid);
  ASSERT_NE(proc, nullptr);
  int exit_code = -1;
  c.n1.os().set_process_exit_hook(
      [&](Pid p, int code) { if (p == pid) exit_code = code; });
  c.sim.Run();
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(c.n1.os().FindProcess(pid), nullptr);
}

TEST(OsProcess, CpuChargeAdvancesTime) {
  Cluster c;
  c.n1.os().Spawn("counter", U64Args(100));
  c.sim.Run();
  // 100 iterations x 10us plus scheduling granularity.
  EXPECT_GE(c.sim.Now(), 99 * 10 * kMicrosecond);
  EXPECT_LT(c.sim.Now(), 100 * 20 * kMicrosecond);
}

TEST(OsProcess, SigstopFreezesExecution) {
  Cluster c;
  Pid pid = c.n1.os().Spawn("counter", U64Args(1000));
  c.sim.RunFor(200 * kMicrosecond);
  c.n1.os().Signal(pid, kSigStop);
  Process* proc = c.n1.os().FindProcess(pid);
  ASSERT_NE(proc, nullptr);
  std::uint64_t frozen = proc->memory().ReadU64(kResultAddr);
  c.sim.RunFor(10 * kMillisecond);
  EXPECT_EQ(proc->memory().ReadU64(kResultAddr), frozen);
  c.n1.os().Signal(pid, kSigCont);
  c.sim.RunFor(kMillisecond);
  EXPECT_GT(proc->memory().ReadU64(kResultAddr), frozen);
}

TEST(OsProcess, SigkillDestroys) {
  Cluster c;
  Pid pid = c.n1.os().Spawn("counter", U64Args(1ull << 40));
  c.sim.RunFor(kMillisecond);
  c.n1.os().Signal(pid, kSigKill);
  EXPECT_EQ(c.n1.os().FindProcess(pid), nullptr);
}

TEST(OsProcess, FindThreadFindsRestoredTidsInAnyOrder) {
  // A restore installs the tids a checkpoint recorded, which need not
  // match their position in the thread list.
  Process proc(7, "counter");
  const Tid order[] = {5, 2, 0, 1};
  for (Tid tid : order) {
    Registers regs;
    regs.r[3] = static_cast<std::uint64_t>(tid) + 100;
    proc.InstallThread(tid, regs);
  }
  for (Tid tid : order) {
    Thread* t = proc.FindThread(tid);
    ASSERT_NE(t, nullptr) << "tid " << tid;
    EXPECT_EQ(t->tid, tid);
    EXPECT_EQ(t->regs.r[3], static_cast<std::uint64_t>(tid) + 100);
  }
  EXPECT_EQ(proc.FindThread(3), nullptr);
  EXPECT_EQ(proc.FindThread(4), nullptr);
  EXPECT_EQ(proc.FindThread(-1), nullptr);
  // A thread spawned after the restore takes the next free tid.
  Tid spawned = proc.CreateThread(Registers{});
  EXPECT_EQ(spawned, 6);
  ASSERT_NE(proc.FindThread(spawned), nullptr);
  EXPECT_EQ(proc.FindThread(spawned)->tid, spawned);
  EXPECT_THROW(proc.InstallThread(2, Registers{}), InvariantError);
}

TEST(OsProcess, SignalUnknownPidFails) {
  Cluster c;
  EXPECT_EQ(c.n1.os().Signal(4242, kSigKill), SysErr(CRUZ_ESRCH));
}

TEST(OsPipe, WriteReadRoundTrip) {
  Cluster c;
  Pid pid = c.n1.os().Spawn("pipe_loop", {});
  Process* proc = c.n1.os().FindProcess(pid);
  ASSERT_NE(proc, nullptr);
  Bytes result;
  int exit_code = -1;
  c.n1.os().set_process_exit_hook([&](Pid p, int code) {
    if (p == pid) exit_code = code;
  });
  // Snapshot memory before exit: run until the process is about to exit.
  c.sim.Run();
  EXPECT_EQ(exit_code, 0);
}

TEST(OsSockets, EchoOverLoopback) {
  Cluster c;
  Pid server = c.n1.os().Spawn("echo_server", [] {
    ByteWriter w;
    w.PutU16(7777);
    return w.Take();
  }());
  (void)server;
  c.sim.RunFor(kMillisecond);  // let the server reach accept
  ByteWriter w;
  w.PutU32(net::Ipv4Address::Parse("10.0.0.1").value);
  w.PutU16(7777);
  Pid client = c.n1.os().Spawn("echo_client", w.Take());
  Process* cproc = c.n1.os().FindProcess(client);
  ASSERT_NE(cproc, nullptr);
  Bytes echoed;
  int client_code = -1;
  c.n1.os().set_process_exit_hook([&](Pid p, int code) {
    if (p == client) {
      client_code = code;
      echoed = c.n1.os().FindProcess(p)->memory().ReadBytes(kResultAddr, 5);
    }
  });
  c.sim.RunFor(5 * kSecond);
  EXPECT_EQ(client_code, 0);
  EXPECT_EQ(echoed, (Bytes{'h', 'e', 'l', 'l', 'o'}));
}

TEST(OsSockets, EchoAcrossNodes) {
  TwoNodeCluster c;
  c.n1.os().Spawn("echo_server", [] {
    ByteWriter w;
    w.PutU16(8080);
    return w.Take();
  }());
  c.sim.RunFor(kMillisecond);
  ByteWriter w;
  w.PutU32(c.n1.ip().value);
  w.PutU16(8080);
  Pid client = c.n2.os().Spawn("echo_client", w.Take());
  int client_code = -1;
  Bytes echoed;
  c.n2.os().set_process_exit_hook([&](Pid p, int code) {
    if (p == client) {
      client_code = code;
      echoed = c.n2.os().FindProcess(p)->memory().ReadBytes(kResultAddr, 5);
    }
  });
  c.sim.RunFor(10 * kSecond);
  EXPECT_EQ(client_code, 0);
  EXPECT_EQ(echoed, (Bytes{'h', 'e', 'l', 'l', 'o'}));
  EXPECT_GT(c.n1.stack().arp_requests_sent() +
                c.n2.stack().arp_requests_sent(),
            0u);
}

TEST(OsSockets, ConnectRefusedWithoutListener) {
  TwoNodeCluster c;
  ByteWriter w;
  w.PutU32(c.n1.ip().value);
  w.PutU16(9999);  // nobody listening
  Pid client = c.n2.os().Spawn("echo_client", w.Take());
  int client_code = -1;
  c.n2.os().set_process_exit_hook([&](Pid p, int code) {
    if (p == client) client_code = code;
  });
  c.sim.RunFor(30 * kSecond);
  EXPECT_EQ(client_code, CRUZ_ECONNREFUSED);
}

TEST(OsSemaphores, TwoThreadsInterleave) {
  Cluster c;
  Pid pid = c.n1.os().Spawn("sem_pair", {});
  Process* proc = c.n1.os().FindProcess(pid);
  ASSERT_NE(proc, nullptr);
  std::uint64_t main_count = 0, worker_count = 0;
  c.n1.os().set_process_exit_hook([&](Pid p, int) {
    if (p == pid) {
      Process* pr = c.n1.os().FindProcess(p);
      main_count = pr->memory().ReadU64(kResultAddr);
      worker_count = pr->memory().ReadU64(kResultAddr + 8);
    }
  });
  c.sim.RunFor(10 * kSecond);
  EXPECT_GE(main_count, 100u);
  EXPECT_GE(worker_count, 1u);  // worker made progress under the semaphore
}

TEST(OsFiles, OpenWriteReadThroughNetfs) {
  Cluster c;
  // Exercise the file syscalls directly at the kernel interface.
  Pid pid = c.n1.os().Spawn("counter", U64Args(1));
  Process* proc = c.n1.os().FindProcess(pid);
  ASSERT_NE(proc, nullptr);
  Os& os = c.n1.os();
  SysResult fd = os.SysOpen(*proc, "/data/test.txt", /*create=*/true);
  ASSERT_TRUE(SysOk(fd));
  Bytes payload = {'a', 'b', 'c'};
  EXPECT_EQ(os.SysWrite(*proc, static_cast<Fd>(fd), payload), 3);
  // Reopen and read back (fresh offset).
  SysResult fd2 = os.SysOpen(*proc, "/data/test.txt", false);
  ASSERT_TRUE(SysOk(fd2));
  Bytes out;
  EXPECT_EQ(os.SysRead(*proc, static_cast<Fd>(fd2), out, 10), 3);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(os.SysClose(*proc, static_cast<Fd>(fd)), 0);
  EXPECT_EQ(os.SysClose(*proc, static_cast<Fd>(fd2)), 0);
  EXPECT_EQ(os.SysClose(*proc, static_cast<Fd>(fd2)), SysErr(CRUZ_EBADF));
}

TEST(OsNetfilter, DropRuleBlocksTraffic) {
  TwoNodeCluster c;
  c.n1.os().Spawn("echo_server", [] {
    ByteWriter w;
    w.PutU16(8080);
    return w.Take();
  }());
  c.sim.RunFor(kMillisecond);
  // Install the Cruz agent-style drop rule on node1 for its own address.
  net::Ipv4Address blocked = c.n1.ip();
  std::uint64_t rule = c.n1.stack().AddFilter(
      [blocked](const net::Ipv4Header& pkt) {
        return pkt.src == blocked || pkt.dst == blocked;
      });
  ByteWriter w;
  w.PutU32(c.n1.ip().value);
  w.PutU16(8080);
  Pid client = c.n2.os().Spawn("echo_client", w.Take());
  int client_code = -1;
  c.n2.os().set_process_exit_hook([&](Pid p, int code) {
    if (p == client) client_code = code;
  });
  c.sim.RunFor(3 * kSecond);
  EXPECT_EQ(client_code, -1);  // SYN dropped silently: still retrying
  EXPECT_GT(c.n1.stack().filtered_packets(), 0u);
  // Remove the rule: the pending connection completes via retransmission.
  c.n1.stack().RemoveFilter(rule);
  c.sim.RunFor(30 * kSecond);
  EXPECT_EQ(client_code, 0);
}

TEST(OsDhcp, LeaseStableByChaddr) {
  TwoNodeCluster c;
  DhcpServer server(c.n1.stack(), net::Ipv4Address::Parse("10.0.0.100"), 10);
  net::MacAddress fake = net::MacAddress::FromId(0xFA4E);
  net::Ipv4Address got1, got2;
  DhcpClient::Request(c.n2.stack(), fake,
                      [&](net::Ipv4Address ip) { got1 = ip; });
  c.sim.RunFor(kSecond);
  EXPECT_EQ(got1, net::Ipv4Address::Parse("10.0.0.100"));
  // Second request with the same chaddr — from a different node, as after
  // migration — must return the same lease.
  DhcpClient::Request(c.n1.stack(), fake,
                      [&](net::Ipv4Address ip) { got2 = ip; });
  c.sim.RunFor(kSecond);
  EXPECT_EQ(got2, got1);
  EXPECT_EQ(server.lease_count(), 1u);
}

TEST(OsDhcp, DistinctChaddrsGetDistinctLeases) {
  TwoNodeCluster c;
  DhcpServer server(c.n1.stack(), net::Ipv4Address::Parse("10.0.0.100"), 10);
  net::Ipv4Address a, b;
  DhcpClient::Request(c.n2.stack(), net::MacAddress::FromId(1),
                      [&](net::Ipv4Address ip) { a = ip; });
  c.sim.RunFor(kSecond);
  DhcpClient::Request(c.n2.stack(), net::MacAddress::FromId(2),
                      [&](net::Ipv4Address ip) { b = ip; });
  c.sim.RunFor(kSecond);
  EXPECT_NE(a, b);
  EXPECT_EQ(server.lease_count(), 2u);
}

TEST(OsNode, DiskModelScalesWithBytes) {
  Cluster c;
  DurationNs d1 = c.n1.DiskWriteDuration(10 * kMiB);
  DurationNs d2 = c.n1.DiskWriteDuration(20 * kMiB);
  EXPECT_GT(d2, d1);
  EXPECT_LT(c.n1.DiskReadDuration(10 * kMiB), d1);
}

TEST(OsNode, FailStopsEverything) {
  TwoNodeCluster c;
  Pid pid = c.n1.os().Spawn("counter", U64Args(1ull << 40));
  c.sim.RunFor(kMillisecond);
  c.n1.Fail();
  EXPECT_EQ(c.n1.os().FindProcess(pid), nullptr);
  EXPECT_TRUE(c.n1.failed());
}

TEST(OsVif, AddRemoveVirtualInterface) {
  TwoNodeCluster c;
  net::MacAddress vif_mac = net::MacAddress::FromId(0xBEEF);
  net::Ipv4Address vif_ip = net::Ipv4Address::Parse("10.0.0.50");
  c.n1.stack().AddInterface("pod1", vif_mac, vif_ip,
                            net::Ipv4Address::FromOctets(255, 255, 255, 0),
                            /*is_virtual=*/true);
  EXPECT_TRUE(c.n1.stack().OwnsIp(vif_ip));
  EXPECT_TRUE(c.n1.nic().HasMacFilter(vif_mac));
  c.n1.stack().RemoveInterface("pod1");
  EXPECT_FALSE(c.n1.stack().OwnsIp(vif_ip));
  EXPECT_FALSE(c.n1.nic().HasMacFilter(vif_mac));
}

TEST(OsVif, SharedMacFallbackUsesPromiscuous) {
  sim::Simulator sim{1};
  net::EthernetSwitch ethernet{sim, net::LinkParams{}};
  NetworkFileSystem fs;
  NodeConfig cfg;
  cfg.ip = net::Ipv4Address::Parse("10.0.0.1");
  cfg.nic_supports_multiple_macs = false;
  Node n(sim, ethernet, fs, "node1", 1, cfg);
  n.stack().AddInterface("pod1", net::MacAddress::FromId(0xBEEF),
                         net::Ipv4Address::Parse("10.0.0.50"),
                         net::Ipv4Address::FromOctets(255, 255, 255, 0),
                         true);
  EXPECT_TRUE(n.nic().promiscuous());
}

TEST(OsMemory, TypedAccessAndPages) {
  Memory m;
  m.WriteU64(0x5000, 0x1122334455667788ull);
  EXPECT_EQ(m.ReadU64(0x5000), 0x1122334455667788ull);
  m.WriteF64(0x5008, 3.25);
  EXPECT_DOUBLE_EQ(m.ReadF64(0x5008), 3.25);
  // Cross-page write.
  Bytes big(kPageSize * 2, 0x7);
  m.WriteBytes(kPageSize - 100, big);
  EXPECT_EQ(m.ReadBytes(kPageSize - 100, big.size()), big);
  EXPECT_GE(m.PageCount(), 3u);
  // Unwritten memory reads as zero.
  EXPECT_EQ(m.ReadU64(0x999000), 0u);
  std::size_t before = m.PageCount();
  m.WriteU64(0x800000, 0);  // allocates an all-zero page
  EXPECT_EQ(m.PageCount(), before + 1);
  m.DropZeroPages();
  EXPECT_LE(m.PageCount(), before);
}

// Differential test for the word-indexed dirty bitmap: drive a long
// randomized sequence of writes / clears / probes through Memory while a
// plain std::set reference model tracks what "dirty since last clear"
// must mean; both views have to agree at every step.
TEST(OsMemory, DirtyBitmapMatchesReferenceSet) {
  Memory m;
  std::set<std::uint64_t> ref;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int step = 0; step < 4000; ++step) {
    std::uint64_t r = next();
    // Sparse page universe: clusters near 0, near a high base, and a few
    // scattered singletons, so many bitmap words are exercised, including
    // words holding a single bit.
    std::uint64_t page;
    switch (r % 4) {
      case 0: page = (r >> 8) % 256; break;
      case 1: page = 0x40000 + (r >> 8) % 256; break;
      case 2: page = (r >> 8) % (std::uint64_t{1} << 40); break;
      default: page = 63 + 64 * ((r >> 8) % 8); break;  // word boundaries
    }
    switch ((r >> 4) % 8) {
      case 0: {  // cross-page write dirties every page it touches
        Bytes blob(kPageSize + 64, static_cast<std::uint8_t>(r));
        m.WriteBytes(page * kPageSize + kPageSize - 32, blob);
        ref.insert(page);
        ref.insert(page + 1);
        ref.insert(page + 2);
        break;
      }
      case 1:
        m.ClearDirty();
        ref.clear();
        break;
      default:
        m.WriteU64(page * kPageSize + 8 * ((r >> 16) % 16), r);
        ref.insert(page);
        break;
    }
    EXPECT_EQ(m.IsDirty(page), ref.count(page) != 0);
    std::uint64_t probe = next() % (std::uint64_t{1} << 40);
    EXPECT_EQ(m.IsDirty(probe), ref.count(probe) != 0);
    EXPECT_EQ(m.DirtyPageCount(), ref.size());
    if (step % 97 == 0) {
      EXPECT_EQ(m.dirty_pages(), ref);
    }
  }
  EXPECT_EQ(m.dirty_pages(), ref);
  m.ClearDirty();
  EXPECT_TRUE(m.dirty_pages().empty());
  EXPECT_EQ(m.DirtyPageCount(), 0u);
}

// Demand-paging (post-copy migration) unit semantics: a missing page
// faults on any touch, absent pages still read as zero, and fills are
// idempotent — the first wins, duplicates are dropped.
TEST(OsMemory, MissingPagesFaultUntilFilled) {
  Memory m;
  m.WriteU64(0x1000, 7);  // resident page 1
  m.MarkMissing(5);
  m.MarkMissing(9);
  m.MarkMissing(9);  // re-marking is harmless
  EXPECT_TRUE(m.HasMissingPages());
  EXPECT_EQ(m.missing_pages(), (std::set<std::uint64_t>{5, 9}));
  EXPECT_TRUE(m.IsMissing(5));
  EXPECT_FALSE(m.IsMissing(1));

  // Absent != missing: page 2 was never written and reads as zeros.
  EXPECT_EQ(m.ReadU64(2 * kPageSize), 0u);

  // Any touch of a missing page faults, reporting which page — reads,
  // writes, and multi-byte accesses that merely graze the page.
  try {
    m.ReadU64(5 * kPageSize + 16);
    FAIL() << "read of missing page did not fault";
  } catch (const PageFault& f) {
    EXPECT_EQ(f.page_index, 5u);
  }
  EXPECT_THROW(m.WriteU64(9 * kPageSize, 1), PageFault);
  EXPECT_THROW(m.ReadBytes(5 * kPageSize - 4, 8), PageFault);

  // First fill installs the content and clears the missing bit.
  Bytes content(kPageSize, 0xAB);
  EXPECT_TRUE(m.FillPage(5, content));
  EXPECT_FALSE(m.IsMissing(5));
  EXPECT_EQ(m.ReadBytes(5 * kPageSize, 8), Bytes(8, 0xAB));

  // Duplicate fill (retransmit / push racing a fetch) is dropped and
  // does not clobber what is already resident.
  m.WriteU64(5 * kPageSize, 0x1234);
  Bytes stale(kPageSize, 0xCD);
  EXPECT_FALSE(m.FillPage(5, stale));
  EXPECT_EQ(m.ReadU64(5 * kPageSize), 0x1234u);

  EXPECT_TRUE(m.FillPage(9, content));
  EXPECT_FALSE(m.HasMissingPages());
  // With the residue delivered, snapshots are legal again.
  EXPECT_EQ(m.Snapshot().PageCount(), m.PageCount());
}

// --- typed spans vs per-word accessors ---------------------------------------

// Per-word reference for Memory::ReadF64s / WriteF64s.
void WriteF64sPerWord(Memory& m, std::uint64_t addr,
                      const std::vector<double>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    m.WriteF64(addr + 8 * i, values[i]);
  }
}

std::vector<double> ReadF64sPerWord(const Memory& m, std::uint64_t addr,
                                    std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = m.ReadF64(addr + 8 * i);
  return out;
}

std::vector<double> RandomRow(Rng& rng, std::size_t n) {
  std::vector<double> row(n);
  for (double& v : row) v = rng.NextDouble() * 1e6 - 5e5;
  return row;
}

// Two memories with identical history: one driven by spans, one word by
// word. Rows cross page boundaries and land on never-written pages.
TEST(OsMemory, F64SpansMatchPerWordAccessors) {
  Rng rng(15);
  Memory spans, words;
  spans.WriteU64(3 * kPageSize, 42);
  words.WriteU64(3 * kPageSize, 42);
  spans.ClearDirty();
  words.ClearDirty();

  // A 1200-cell row from mid page 3 through never-written pages 4 and 5.
  const std::uint64_t addr = 3 * kPageSize + 1000;
  std::vector<double> row = RandomRow(rng, 1200);
  spans.WriteF64s(addr, row);
  WriteF64sPerWord(words, addr, row);
  EXPECT_EQ(spans.ReadBytes(2 * kPageSize, 5 * kPageSize),
            words.ReadBytes(2 * kPageSize, 5 * kPageSize));
  EXPECT_EQ(spans.dirty_pages(), words.dirty_pages());
  EXPECT_EQ(spans.dirty_pages(), (std::set<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(spans.PageCount(), words.PageCount());

  // Reads agree too, including cells on never-written pages (zeros).
  std::vector<double> got(1400);
  spans.ReadF64s(addr - 8 * 100, got);
  EXPECT_EQ(got, ReadF64sPerWord(words, addr - 8 * 100, got.size()));
  std::vector<double> absent(600, 1.0);
  spans.ReadF64s(40 * kPageSize + 8, absent);
  EXPECT_EQ(absent, std::vector<double>(600, 0.0));
  EXPECT_EQ(spans.PageCount(), words.PageCount());  // reads allocate none
}

// A row written over pages shared with a snapshot copies each page once,
// exactly as the per-word writes do, and the snapshot stays byte-stable.
TEST(OsMemory, F64SpanOnSnapshotPagesCountsSameCowFaults) {
  Rng rng(16);
  Memory spans, words;
  std::vector<double> base = RandomRow(rng, 1024);  // pages 8 and 9
  spans.WriteF64s(8 * kPageSize, base);
  WriteF64sPerWord(words, 8 * kPageSize, base);
  MemorySnapshot spans_snap = spans.Snapshot();
  MemorySnapshot words_snap = words.Snapshot();
  const Bytes frozen(spans_snap.Find(8)->begin(), spans_snap.Find(8)->end());

  std::vector<double> row = RandomRow(rng, 300);  // straddles 8 and 9
  spans.WriteF64s(9 * kPageSize - 8 * 150, row);
  WriteF64sPerWord(words, 9 * kPageSize - 8 * 150, row);
  EXPECT_EQ(spans.cow_faults(), 2u);
  EXPECT_EQ(spans.cow_faults(), words.cow_faults());
  EXPECT_EQ(spans.ReadBytes(8 * kPageSize, 2 * kPageSize),
            words.ReadBytes(8 * kPageSize, 2 * kPageSize));
  EXPECT_EQ(Bytes(spans_snap.Find(8)->begin(), spans_snap.Find(8)->end()),
            frozen);
  std::vector<double> snap_row(512);
  std::memcpy(snap_row.data(), spans_snap.Find(9)->data(), kPageSize);
  EXPECT_EQ(snap_row, std::vector<double>(base.begin() + 512, base.end()));
}

// A row touching a missing page faults on the same page as the per-word
// loop, but before any byte of the row is written.
TEST(OsMemory, F64SpanOnMissingPageFaultsBeforeWriting) {
  Rng rng(17);
  Memory spans, words;
  for (Memory* m : {&spans, &words}) {
    m->WriteU64(4 * kPageSize, 7);
    m->MarkMissing(5);
    m->MarkMissing(7);
    m->ClearDirty();
  }
  const std::uint64_t addr = 5 * kPageSize - 8 * 64;  // pages 4, 5, 6, 7
  std::vector<double> row = RandomRow(rng, 1100);
  const Bytes before = spans.ReadBytes(4 * kPageSize, kPageSize);

  std::uint64_t span_fault = 0, word_fault = 0;
  try {
    spans.WriteF64s(addr, row);
  } catch (const PageFault& f) {
    span_fault = f.page_index;
  }
  try {
    WriteF64sPerWord(words, addr, row);
  } catch (const PageFault& f) {
    word_fault = f.page_index;
  }
  EXPECT_EQ(span_fault, 5u);
  EXPECT_EQ(span_fault, word_fault);
  EXPECT_EQ(spans.ReadBytes(4 * kPageSize, kPageSize), before);
  EXPECT_TRUE(spans.dirty_pages().empty());

  std::vector<double> out(1100);
  try {
    spans.ReadF64s(addr, out);
    FAIL() << "read of a missing page did not fault";
  } catch (const PageFault& f) {
    EXPECT_EQ(f.page_index, 5u);
  }
  spans.FillPage(5, Bytes(kPageSize, 0));
  try {
    spans.ReadF64s(addr, out);
    FAIL() << "read of a missing page did not fault";
  } catch (const PageFault& f) {
    EXPECT_EQ(f.page_index, 7u);
  }
}

// --- page table vs a reference model -------------------------------------

// os::Memory rebuilt from plain maps and sets. Every page version gets a
// number, and `held` counts the versions snapshots and images hold, so
// whether a write copies (a COW fault) is explicit.
struct MemoryModel {
  struct Entry {
    Bytes bytes;
    std::uint64_t version = 0;
  };
  std::map<std::uint64_t, Entry> pages;
  std::set<std::uint64_t> dirty, missing;
  std::multiset<std::uint64_t> held;
  std::uint64_t cow_faults = 0;
  std::uint64_t next_version = 1;

  // The page a typed span faults on before moving any byte.
  std::optional<std::uint64_t> SpanFault(std::uint64_t addr,
                                         std::size_t n) const {
    auto it = missing.lower_bound(addr >> kPageShift);
    if (n != 0 && it != missing.end() &&
        *it <= (addr + n - 1) >> kPageShift) {
      return *it;
    }
    return std::nullopt;
  }
  // WriteBytes: page by page, so the pages before a missing one are
  // written (and dirtied) before it faults.
  std::optional<std::uint64_t> Write(std::uint64_t addr, const Bytes& data) {
    for (std::size_t done = 0; done < data.size();) {
      const std::uint64_t a = addr + done;
      const std::uint64_t page = a >> kPageShift;
      const std::size_t offset = a & (kPageSize - 1);
      const std::size_t n = std::min(data.size() - done, kPageSize - offset);
      if (missing.count(page) != 0) return page;
      dirty.insert(page);
      auto it = pages.find(page);
      if (it == pages.end()) {
        it = pages.emplace(page, Entry{Bytes(kPageSize, 0), next_version++})
                 .first;
      } else if (held.count(it->second.version) != 0) {
        ++cow_faults;
        it->second.version = next_version++;
      }
      std::copy(data.begin() + done, data.begin() + done + n,
                it->second.bytes.begin() + offset);
      done += n;
    }
    return std::nullopt;
  }
  std::optional<std::uint64_t> Read(std::uint64_t addr, std::size_t n,
                                    Bytes& out) const {
    out.assign(n, 0);
    for (std::size_t done = 0; done < n;) {
      const std::uint64_t a = addr + done;
      const std::uint64_t page = a >> kPageShift;
      const std::size_t offset = a & (kPageSize - 1);
      const std::size_t take = std::min(n - done, kPageSize - offset);
      if (missing.count(page) != 0) return page;
      auto it = pages.find(page);
      if (it != pages.end()) {
        std::copy(it->second.bytes.begin() + offset,
                  it->second.bytes.begin() + offset + take,
                  out.begin() + done);
      }
      done += take;
    }
    return std::nullopt;
  }
  std::uint64_t Install(std::uint64_t page, const Bytes& content) {
    pages[page] = Entry{content, next_version};
    dirty.insert(page);
    return next_version++;
  }
};

// Runs `op` and returns the page it faulted on, if any.
template <typename Op>
std::optional<std::uint64_t> FaultOf(Op&& op) {
  try {
    op();
  } catch (const PageFault& f) {
    return f.page_index;
  }
  return std::nullopt;
}

// Seeded random operation sequences against MemoryModel: every access
// form (bytes, words, spans across page edges), installs, adoptions kept
// and released, snapshots then writes, zero-page drops, demand paging and
// both clears, over pages clustered inside leaves, on leaf edges and far
// apart. Bytes, page order, counts, dirty and missing bits, COW faults,
// fault pages and the snapshots' and images' bytes must all agree.
TEST(OsMemory, PageTableMatchesReferenceModel) {
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Memory m;
    MemoryModel model;
    struct HeldSnapshot {
      MemorySnapshot snap;
      std::map<std::uint64_t, Bytes> bytes;
      std::vector<std::uint64_t> versions;
    };
    struct HeldImage {
      SharedPage page;
      Bytes bytes;
      std::uint64_t version;
    };
    std::vector<HeldSnapshot> snapshots;
    std::vector<HeldImage> images;

    auto pick_page = [&rng]() -> std::uint64_t {
      switch (rng.NextBelow(8)) {
        case 0:
        case 1:
        case 2: return rng.NextBelow(200);  // leaves 0..3
        case 3:
        case 4: return 0x40000 + rng.NextBelow(130);
        case 5:
        case 6: return 64 * rng.NextBelow(4) + 62 + rng.NextBelow(4);
        default: return rng.NextBelow(std::uint64_t{1} << 40);
      }
    };
    auto random_bytes = [&rng](std::size_t n) {
      // Zeros a third of the time, so DropZeroPages has pages to drop.
      const bool zero = rng.NextBelow(3) == 0;
      Bytes b(n, 0);
      if (!zero) {
        for (auto& x : b) {
          x = static_cast<std::uint8_t>(1 + rng.NextBelow(255));
        }
      }
      return b;
    };
    auto check_contents = [&] {
      std::vector<std::uint64_t> order;
      for (const auto& [index, page] : m.pages()) {
        order.push_back(index);
        auto it = model.pages.find(index);
        ASSERT_NE(it, model.pages.end()) << "page " << index;
        EXPECT_EQ(*page, it->second.bytes) << "page " << index;
      }
      std::vector<std::uint64_t> want;
      for (const auto& [index, entry] : model.pages) want.push_back(index);
      EXPECT_EQ(order, want);
      EXPECT_EQ(m.dirty_pages(), model.dirty);
      EXPECT_EQ(m.missing_pages(), model.missing);
      for (const HeldSnapshot& h : snapshots) {
        std::map<std::uint64_t, Bytes> got;
        for (const auto& [index, page] : h.snap.pages()) got[index] = *page;
        EXPECT_EQ(got, h.bytes);
      }
      for (const HeldImage& h : images) EXPECT_EQ(*h.page, h.bytes);
    };

    for (int step = 0; step < 2500; ++step) {
      const std::uint64_t page = pick_page();
      const std::uint64_t addr = page * kPageSize + rng.NextBelow(kPageSize);
      switch (rng.NextBelow(21)) {
        case 0:
        case 1: {  // bytes, up to three pages
          Bytes data = random_bytes(1 + rng.NextBelow(2 * kPageSize + 64));
          auto want = model.Write(addr, data);
          EXPECT_EQ(FaultOf([&] { m.WriteBytes(addr, data); }), want);
          break;
        }
        case 2: {
          const std::uint64_t v = rng.NextU64();
          Bytes data(8);
          for (int i = 0; i < 8; ++i) {
            data[i] = static_cast<std::uint8_t>(v >> (8 * i));
          }
          auto want = model.Write(addr, data);
          EXPECT_EQ(FaultOf([&] { m.WriteU64(addr, v); }), want);
          break;
        }
        case 3:
        case 4: {  // a row of doubles across a page edge
          std::vector<double> row(1 + rng.NextBelow(1100));
          for (double& d : row) d = rng.NextDouble();
          const std::uint64_t at =
              (page + 1) * kPageSize - 8 * rng.NextBelow(row.size() + 1);
          Bytes data(row.size() * 8);
          std::memcpy(data.data(), row.data(), data.size());
          auto want = model.SpanFault(at, data.size());
          if (!want) model.Write(at, data);
          EXPECT_EQ(FaultOf([&] { m.WriteF64s(at, row); }), want);
          break;
        }
        case 5:
        case 6: {
          Bytes want_bytes;
          auto want =
              model.Read(addr, 1 + rng.NextBelow(2 * kPageSize), want_bytes);
          Bytes got(want_bytes.size());
          EXPECT_EQ(
              FaultOf([&] { m.ReadBytes(addr, got.data(), got.size()); }),
              want);
          if (!want) {
            EXPECT_EQ(got, want_bytes);
          }
          break;
        }
        case 7: {
          Bytes want_bytes;
          auto want = model.Read(addr, 8, want_bytes);
          std::uint64_t got = 0;
          EXPECT_EQ(FaultOf([&] { got = m.ReadU64(addr); }), want);
          std::uint64_t v = 0;
          for (int i = 7; i >= 0; --i) v = (v << 8) | want_bytes[i];
          if (!want) {
            EXPECT_EQ(got, v);
          }
          break;
        }
        case 8: {
          std::vector<double> row(1 + rng.NextBelow(1100));
          const std::uint64_t at =
              (page + 1) * kPageSize - 8 * rng.NextBelow(row.size() + 1);
          auto want = model.SpanFault(at, row.size() * 8);
          Bytes want_bytes;
          if (!want) model.Read(at, row.size() * 8, want_bytes);
          EXPECT_EQ(FaultOf([&] { m.ReadF64s(at, row); }), want);
          if (!want) {
            EXPECT_EQ(std::memcmp(row.data(), want_bytes.data(),
                                  want_bytes.size()),
                      0);
          }
          break;
        }
        case 9: {
          Bytes content = random_bytes(kPageSize);
          m.InstallPage(page, content);
          model.Install(page, content);
          break;
        }
        case 10: {  // adopt; the image keeps its handle half the time
          Bytes content = random_bytes(kPageSize);
          auto handle = std::make_shared<Page>(content);
          const std::uint64_t version = model.Install(page, content);
          m.AdoptPage(page, handle);
          if (rng.NextBelow(2) == 0) {
            model.held.insert(version);
            images.push_back(HeldImage{std::move(handle), content, version});
          }
          break;
        }
        case 11:
        case 12:
          if (model.missing.empty()) {
            HeldSnapshot h{m.Snapshot(), {}, {}};
            for (const auto& [index, entry] : model.pages) {
              h.bytes[index] = entry.bytes;
              h.versions.push_back(entry.version);
              model.held.insert(entry.version);
            }
            snapshots.push_back(std::move(h));
          }
          break;
        case 13:  // drop the oldest snapshot or image
          if (!snapshots.empty() && rng.NextBelow(2) == 0) {
            for (std::uint64_t v : snapshots.front().versions) {
              model.held.erase(model.held.find(v));
            }
            snapshots.erase(snapshots.begin());
          } else if (!images.empty()) {
            model.held.erase(model.held.find(images.front().version));
            images.erase(images.begin());
          }
          break;
        case 14:
          m.DropZeroPages();
          std::erase_if(model.pages, [](const auto& kv) {
            return std::all_of(kv.second.bytes.begin(), kv.second.bytes.end(),
                               [](std::uint8_t b) { return b == 0; });
          });
          break;
        case 15:
          if (model.pages.count(page) == 0) {
            m.MarkMissing(page);
            model.missing.insert(page);
          }
          break;
        case 16:
        case 17: {  // fill a missing page, or try to fill a random one
          std::uint64_t target = page;
          if (!model.missing.empty() && rng.NextBelow(4) != 0) {
            auto it = model.missing.begin();
            std::advance(it, rng.NextBelow(model.missing.size()));
            target = *it;
          }
          Bytes content = random_bytes(kPageSize);
          const bool want = model.missing.erase(target) != 0;
          if (want) model.Install(target, content);
          EXPECT_EQ(m.FillPage(target, content), want);
          break;
        }
        case 18:
          m.ClearDirty();
          model.dirty.clear();
          break;
        case 19:
          if (rng.NextBelow(4) == 0) {
            m.Clear();
            model.pages.clear();
            model.missing.clear();
          }
          break;
        default: {  // probes only
          EXPECT_EQ(m.IsDirty(page), model.dirty.count(page) != 0);
          EXPECT_EQ(m.IsMissing(page), model.missing.count(page) != 0);
          break;
        }
      }
      ASSERT_EQ(m.PageCount(), model.pages.size()) << "step " << step;
      ASSERT_EQ(m.ResidentBytes(), model.pages.size() * kPageSize);
      ASSERT_EQ(m.DirtyPageCount(), model.dirty.size()) << "step " << step;
      ASSERT_EQ(m.HasMissingPages(), !model.missing.empty());
      ASSERT_EQ(m.cow_faults(), model.cow_faults) << "step " << step;
      EXPECT_EQ(m.IsDirty(page), model.dirty.count(page) != 0);
      EXPECT_EQ(m.IsMissing(page), model.missing.count(page) != 0);
      if (step % 50 == 0) {
        check_contents();
        if (::testing::Test::HasFailure()) return;
      }
    }
    check_contents();
  }
}

TEST(OsNetfs, BasicOperations) {
  NetworkFileSystem fs;
  EXPECT_FALSE(fs.Exists("/a"));
  fs.WriteFile("/a", {1, 2, 3});
  EXPECT_TRUE(fs.Exists("/a"));
  EXPECT_EQ(fs.FileSize("/a"), 3);
  fs.AppendFile("/a", Bytes{4, 5});
  Bytes out;
  EXPECT_EQ(fs.ReadFile("/a", out), 5);
  EXPECT_EQ(out, (Bytes{1, 2, 3, 4, 5}));
  out.clear();
  EXPECT_EQ(fs.ReadAt("/a", 3, 10, out), 2);
  EXPECT_EQ(out, (Bytes{4, 5}));
  EXPECT_EQ(fs.List("/").size(), 1u);
  EXPECT_EQ(fs.Remove("/a"), 0);
  EXPECT_EQ(fs.Remove("/a"), SysErr(CRUZ_ENOENT));
  EXPECT_EQ(fs.ReadFile("/a", out), SysErr(CRUZ_ENOENT));
}

}  // namespace
}  // namespace cruz::os
