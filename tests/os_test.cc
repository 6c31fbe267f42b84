// Tests for the simulated OS: scheduling, processes, pipes, signals,
// SysV IPC, sockets through the full network stack, DHCP, and netfilter.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
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
