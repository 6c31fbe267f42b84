// Tests for the single-node checkpoint-restart engine: image codec,
// non-destructive capture, local restore, cross-node migration with live
// TCP connections to external (non-Zap) peers, pipes, and SysV IPC.
#include <gtest/gtest.h>

#include "apps/programs.h"
#include "ckpt/engine.h"
#include "ckpt/image.h"
#include "cruz/cluster.h"

namespace cruz::ckpt {
namespace {

using coord::Coordinator;

// Program pair connected by a pipe inside one pod: the writer pushes an
// incrementing byte sequence, the reader verifies it. Used to prove pipe
// contents and both processes survive checkpoint-restart.
class PipeWriterProgram : public os::Program {
 public:
  void Step(os::ProcessCtx& ctx) override {
    // args: u32 write fd is communicated via spawn arrangement — here the
    // harness pre-installs fds, so args carry the fd number and total.
    cruz::Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
    cruz::ByteReader r(args);
    os::Fd fd = static_cast<os::Fd>(r.GetU32());
    std::uint64_t total = r.GetU64();
    std::uint64_t written = ctx.Mem().ReadU64(apps::kStatusAddr);
    if (written >= total) {
      ctx.Close(fd);
      ctx.ExitProcess(0);
      return;
    }
    cruz::Bytes chunk(std::min<std::uint64_t>(512, total - written));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = apps::PatternByte(written + i);
    }
    SysResult n = ctx.Write(fd, chunk);
    if (SysErrno(n) == CRUZ_EAGAIN) {
      ctx.BlockOnWritable(fd);
      return;
    }
    if (n < 0) {
      ctx.ExitProcess(3);
      return;
    }
    ctx.Mem().WriteU64(apps::kStatusAddr,
                       written + static_cast<std::uint64_t>(n));
    ctx.ChargeCpu(20 * kMicrosecond);  // slow producer
  }
};

class PipeReaderProgram : public os::Program {
 public:
  void Step(os::ProcessCtx& ctx) override {
    cruz::Bytes args = ctx.Mem().ReadBytes(ctx.Reg(1), ctx.Reg(2));
    cruz::ByteReader r(args);
    os::Fd fd = static_cast<os::Fd>(r.GetU32());
    cruz::Bytes buf;
    SysResult n = ctx.Read(fd, buf, 4096);
    if (SysErrno(n) == CRUZ_EAGAIN) {
      ctx.BlockOnReadable(fd);
      return;
    }
    if (n == 0) {
      ctx.ExitProcess(0);  // EOF: writer finished
      return;
    }
    if (n < 0) {
      ctx.ExitProcess(3);
      return;
    }
    std::uint64_t seen = ctx.Mem().ReadU64(apps::kStatusAddr);
    std::uint64_t bad = ctx.Mem().ReadU64(apps::kStatusAddr + 8);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i] != apps::PatternByte(seen + i)) ++bad;
    }
    ctx.Mem().WriteU64(apps::kStatusAddr,
                       seen + static_cast<std::uint64_t>(n));
    ctx.Mem().WriteU64(apps::kStatusAddr + 8, bad);
  }
};

// Program using SysV shm + a semaphore: increments a u64 in shared memory
// under the semaphore forever.
class ShmCounterProgram : public os::Program {
 public:
  void Step(os::ProcessCtx& ctx) override {
    enum : std::uint64_t { kInit, kLoop };
    switch (ctx.Pc()) {
      case kInit: {
        SysResult shm = ctx.ShmGet(7, 4096);
        SysResult sem = ctx.SemGet(8, 1);
        if (!SysOk(shm) || !SysOk(sem)) {
          ctx.ExitProcess(1);
          return;
        }
        ctx.ShmAt(static_cast<os::ShmId>(shm), 0x700000);
        ctx.Reg(3) = static_cast<std::uint64_t>(shm);
        ctx.Reg(4) = static_cast<std::uint64_t>(sem);
        ctx.Pc() = kLoop;
        break;
      }
      case kLoop: {
        os::SemId sem = static_cast<os::SemId>(ctx.Reg(4));
        SysResult r = ctx.SemOp(sem, -1);
        if (SysErrno(r) == CRUZ_EAGAIN) {
          ctx.BlockOnSem(sem);
          return;
        }
        os::ShmId shm = static_cast<os::ShmId>(ctx.Reg(3));
        std::uint64_t v = static_cast<std::uint64_t>(ctx.ShmReadU64(shm, 0));
        ctx.ShmWriteU64(shm, 0, v + 1);
        ctx.SemOp(sem, 1);
        ctx.ChargeCpu(10 * kMicrosecond);
        break;
      }
    }
  }
};

bool g_registered = [] {
  auto& reg = os::ProgramRegistry::Instance();
  reg.Register("test.pipe_writer",
               [] { return std::make_unique<PipeWriterProgram>(); });
  reg.Register("test.pipe_reader",
               [] { return std::make_unique<PipeReaderProgram>(); });
  reg.Register("test.shm_counter",
               [] { return std::make_unique<ShmCounterProgram>(); });
  return true;
}();

// --- image codec -------------------------------------------------------------

TEST(Image, SerializeDeserializeRoundTrip) {
  PodCheckpoint ck;
  ck.pod_id = 1001;
  ck.pod_name = "job";
  ck.ip = net::Ipv4Address::Parse("10.0.0.100");
  ck.vif_mac = net::MacAddress::FromId(0x200001);
  ck.fake_mac = net::MacAddress::FromId(0xFA0001);
  ck.next_vpid = 5;
  ck.shm.push_back(ShmRecord{1, 7, cruz::Bytes(4096, 0xAB)});
  ck.sems.push_back(SemRecord{1, 8, 1});
  ck.pipes.push_back(PipeRecord{3, {1, 2, 3}});
  DescRecord d;
  d.ref = 1;
  d.kind = os::FileDescription::Kind::kPipeRead;
  d.pipe_id = 3;
  ck.descs.push_back(d);
  ConnRecord conn;
  conn.socket_ref = 10;
  conn.conn.tuple.local = {ck.ip, 9000};
  conn.conn.tuple.remote = {net::Ipv4Address::Parse("10.0.0.2"), 4000};
  conn.conn.state = tcp::TcpState::kEstablished;
  conn.conn.send_packets.push_back(cruz::Bytes(100, 1));
  conn.conn.recv_pending = cruz::Bytes(50, 2);
  ck.conns.push_back(conn);
  ck.listeners.push_back(ListenerRecord{11, 9000, 8, {10}});
  UdpRecord u;
  u.socket_ref = 12;
  u.port = 5353;
  u.rx.emplace_back(net::Endpoint{net::Ipv4Address::Parse("10.0.0.3"), 99},
                    cruz::Bytes{9, 9});
  ck.udp.push_back(u);
  ProcessRecord p;
  p.vpid = 1;
  p.program = "cruz.counter";
  p.threads.push_back(ThreadRecord{0, {}});
  p.pages.push_back(
      PageRecord{16, std::make_shared<cruz::Bytes>(os::kPageSize, 0x11)});
  p.fds.push_back(FdRecord{3, 1});
  p.shm_attachments.push_back(ShmAttachRecord{7, 0x700000});
  ck.processes.push_back(p);

  cruz::Bytes image = ck.Serialize();
  PodCheckpoint d2 = PodCheckpoint::Deserialize(image);
  EXPECT_EQ(d2.pod_id, ck.pod_id);
  EXPECT_EQ(d2.pod_name, ck.pod_name);
  EXPECT_EQ(d2.ip, ck.ip);
  EXPECT_EQ(d2.vif_mac, ck.vif_mac);
  EXPECT_EQ(d2.fake_mac, ck.fake_mac);
  ASSERT_EQ(d2.shm.size(), 1u);
  EXPECT_EQ(d2.shm[0].data, ck.shm[0].data);
  ASSERT_EQ(d2.conns.size(), 1u);
  EXPECT_EQ(d2.conns[0].conn.send_packets[0], conn.conn.send_packets[0]);
  ASSERT_EQ(d2.listeners.size(), 1u);
  EXPECT_EQ(d2.listeners[0].accept_queue, ck.listeners[0].accept_queue);
  ASSERT_EQ(d2.processes.size(), 1u);
  EXPECT_EQ(*d2.processes[0].pages[0].content, *p.pages[0].content);
  EXPECT_GT(d2.StateBytes(), 4096u);
}

TEST(Image, CorruptionDetected) {
  PodCheckpoint ck;
  ck.pod_name = "x";
  cruz::Bytes image = ck.Serialize();
  cruz::Bytes bad = image;
  bad[20] ^= 0x1;
  EXPECT_THROW(PodCheckpoint::Deserialize(bad), cruz::CodecError);
  cruz::Bytes not_an_image(64, 0);
  EXPECT_THROW(PodCheckpoint::Deserialize(not_an_image), cruz::CodecError);
  cruz::Bytes truncated(image.begin(), image.begin() + 10);
  EXPECT_THROW(PodCheckpoint::Deserialize(truncated), cruz::CodecError);
}

// --- engine: local checkpoint/restore --------------------------------------------

TEST(Engine, CaptureIsNonDestructive) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(10 * kMillisecond);
  CaptureStats stats;
  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id, &stats);
  EXPECT_EQ(stats.processes, 1u);
  EXPECT_GT(stats.state_bytes, 0u);
  // Pod is stopped; resume and verify it keeps counting.
  os::Pid real = c.pods(0).ToRealPid(id, 1);
  std::uint64_t frozen =
      apps::ReadCounter(*c.node(0).os().FindProcess(real));
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_EQ(apps::ReadCounter(*c.node(0).os().FindProcess(real)), frozen);
  CheckpointEngine::ResumePod(c.pods(0), id);
  c.sim().RunFor(10 * kMillisecond);
  EXPECT_GT(apps::ReadCounter(*c.node(0).os().FindProcess(real)), frozen);
}

// Live migration charges a stop from one serialization of the image with
// its pages removed: a raw (v1) image is exactly that plus, per page, a
// u64 index and the page. FindPage reads the snapshot's frozen pages.
TEST(Engine, RawImageIsBarePlusFixedPageRecords) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  os::Pid vpid =
      c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  os::Process* proc =
      c.node(0).os().FindProcess(c.pods(0).ToRealPid(id, vpid));
  proc->memory().InstallPage(0x900, cruz::Bytes(os::kPageSize, 0x5a));
  c.sim().RunFor(10 * kMillisecond);
  PodSnapshot snap = CheckpointEngine::SnapshotPod(c.pods(0), id, {});
  PodCheckpoint ck = snap.Materialize();
  std::uint64_t pages = snap.SnapshotPages();
  ASSERT_GT(pages, 1u);
  EXPECT_EQ(ck.Serialize(/*compress=*/false).size(),
            snap.meta().Serialize(/*compress=*/false).size() +
                pages * (sizeof(std::uint64_t) + os::kPageSize));
  const os::MemorySnapshot::Page* page = snap.FindPage(vpid, 0x900);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ((*page)[0], 0x5a);
  EXPECT_EQ(snap.FindPage(vpid, 0x901), nullptr);
  EXPECT_EQ(snap.FindPage(vpid + 1, 0x900), nullptr);
}

TEST(Engine, LocalRestoreContinuesExactly) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(2000));
  c.sim().RunFor(5 * kMillisecond);  // ~500 iterations in
  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id);
  std::uint64_t at_capture = 0;
  {
    os::Pid real = c.pods(0).ToRealPid(id, 1);
    at_capture = apps::ReadCounter(*c.node(0).os().FindProcess(real));
  }
  ASSERT_GT(at_capture, 100u);
  ASSERT_LT(at_capture, 2000u);
  c.pods(0).DestroyPod(id);

  // Round-trip through the serialized image, as the agent does.
  PodCheckpoint loaded = PodCheckpoint::Deserialize(ck.Serialize());
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), loaded);
  EXPECT_EQ(restored, id);
  os::Pid real = c.pods(0).ToRealPid(restored, 1);
  ASSERT_NE(real, os::kNoPid);
  // The counter resumes from exactly the captured value.
  EXPECT_EQ(apps::ReadCounter(*c.node(0).os().FindProcess(real)),
            at_capture);
  CheckpointEngine::ResumePod(c.pods(0), restored);
  bool exited = false;
  c.node(0).os().set_process_exit_hook([&](os::Pid p, int code) {
    if (p == real) {
      exited = true;
      EXPECT_EQ(code, 0);
      EXPECT_EQ(apps::ReadCounter(*c.node(0).os().FindProcess(p)), 2000u);
    }
  });
  c.sim().RunFor(60 * kSecond);
  EXPECT_TRUE(exited);
}

TEST(Engine, RestoredVirtualPidsSurviveRealPidCollision) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "job");
  c.pods(0).SpawnInPod(id, "cruz.counter", apps::CounterArgs(1u << 30));
  c.sim().RunFor(kMillisecond);
  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id);
  os::Pid old_real = c.pods(0).ToRealPid(id, 1);
  c.pods(0).DestroyPod(id);
  // Occupy the old real pid's slot with unrelated processes.
  for (int i = 0; i < 5; ++i) {
    c.node(0).os().Spawn("cruz.counter", apps::CounterArgs(1u << 30));
  }
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), ck);
  os::Pid new_real = c.pods(0).ToRealPid(restored, 1);
  ASSERT_NE(new_real, os::kNoPid);
  EXPECT_NE(new_real, old_real);  // kernel pid changed...
  os::Process* proc = c.node(0).os().FindProcess(new_real);
  // ...but the pod-visible pid did not.
  EXPECT_EQ(c.node(0).os().SysGetpid(*proc), 1);
}

TEST(Engine, PipeContentsSurviveRestore) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "pipes");
  // Build the pair manually: spawn both, then wire a pipe between them.
  os::Os& os = c.node(0).os();
  os::Pid writer_v = c.pods(0).SpawnInPod(id, "test.pipe_writer", {});
  os::Pid reader_v = c.pods(0).SpawnInPod(id, "test.pipe_reader", {});
  os::Process* writer = os.FindProcess(c.pods(0).ToRealPid(id, writer_v));
  os::Process* reader = os.FindProcess(c.pods(0).ToRealPid(id, reader_v));
  ASSERT_NE(writer, nullptr);
  ASSERT_NE(reader, nullptr);
  os::Fd rd = -1, wr = -1;
  ASSERT_EQ(os.SysPipe(*writer, &rd, &wr), 0);
  // Move the read end's description into the reader's fd table.
  auto rd_desc = writer->LookupFd(rd);
  writer->RemoveFd(rd);
  reader->InstallFd(100, rd_desc);
  // Write args (fd + total) into each process's memory.
  const std::uint64_t total = 100000;
  {
    cruz::ByteWriter w;
    w.PutU32(static_cast<std::uint32_t>(wr));
    w.PutU64(total);
    writer->memory().WriteBytes(writer->MainThread().regs.r[1] = 0x1000,
                                w.data());
    writer->MainThread().regs.r[2] = w.size();
  }
  {
    cruz::ByteWriter w;
    w.PutU32(100);
    reader->memory().WriteBytes(reader->MainThread().regs.r[1] = 0x1000,
                                w.data());
    reader->MainThread().regs.r[2] = w.size();
  }
  // Run to mid-transfer (the writer needs ~20 us per 512-byte chunk, so
  // the whole stream takes ~4 ms; stop after a fraction of it).
  os::Pid reader_real = reader->pid();
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        os::Process* p = os.FindProcess(reader_real);
        return p != nullptr &&
               p->memory().ReadU64(apps::kStatusAddr) >= total / 4;
      },
      c.sim().Now() + 60 * kSecond));
  reader = os.FindProcess(reader_real);
  ASSERT_NE(reader, nullptr);
  std::uint64_t read_before =
      reader->memory().ReadU64(apps::kStatusAddr);
  ASSERT_GT(read_before, 0u);
  ASSERT_LT(read_before, total);

  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id);
  c.pods(0).DestroyPod(id);
  os::PodId restored =
      CheckpointEngine::RestorePod(c.pods(0), PodCheckpoint::Deserialize(
                                                  ck.Serialize()));
  CheckpointEngine::ResumePod(c.pods(0), restored);
  os::Process* reader2 =
      os.FindProcess(c.pods(0).ToRealPid(restored, reader_v));
  ASSERT_NE(reader2, nullptr);
  os::Pid reader2_pid = reader2->pid();
  bool reader_exited = false;
  std::uint64_t final_read = 0, final_bad = 0;
  os.set_process_exit_hook([&](os::Pid p, int code) {
    if (p == reader2_pid) {
      reader_exited = true;
      EXPECT_EQ(code, 0);
      os::Process* pr = os.FindProcess(p);
      final_read = pr->memory().ReadU64(apps::kStatusAddr);
      final_bad = pr->memory().ReadU64(apps::kStatusAddr + 8);
    }
  });
  c.sim().RunFor(60 * kSecond);
  EXPECT_TRUE(reader_exited);
  EXPECT_EQ(final_read, total);  // every byte exactly once, in order
  EXPECT_EQ(final_bad, 0u);
}

TEST(Engine, ShmAndSemaphoreSurviveRestore) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "shm");
  c.pods(0).SpawnInPod(id, "test.shm_counter", {});
  c.sim().RunFor(20 * kMillisecond);
  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id);
  ASSERT_EQ(ck.shm.size(), 1u);
  ASSERT_EQ(ck.sems.size(), 1u);
  EXPECT_EQ(ck.sems[0].value, 1);
  // Current shared counter value is embedded in the shm data.
  std::uint64_t counted = 0;
  for (int i = 7; i >= 0; --i) {
    counted = (counted << 8) | ck.shm[0].data[static_cast<std::size_t>(i)];
  }
  ASSERT_GT(counted, 0u);
  c.pods(0).DestroyPod(id);

  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), ck);
  CheckpointEngine::ResumePod(c.pods(0), restored);
  c.sim().RunFor(20 * kMillisecond);
  // The counter continued from the captured value in the restored shm.
  os::Pid real = c.pods(0).ToRealPid(restored, 1);
  os::Process* proc = c.node(0).os().FindProcess(real);
  ASSERT_NE(proc, nullptr);
  ASSERT_FALSE(proc->shm_attachments().empty());
  os::ShmSegment* seg =
      c.node(0).os().sysv().FindShm(proc->shm_attachments()[0].shm_id);
  ASSERT_NE(seg, nullptr);
  std::uint64_t now = 0;
  for (int i = 7; i >= 0; --i) {
    now = (now << 8) | seg->data[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(now, counted);
}

// --- migration with a live external client ---------------------------------------

TEST(Engine, MigrationPreservesConnectionToExternalClient) {
  ClusterConfig config;
  config.num_nodes = 3;
  Cluster c(config);
  // Echo server inside a pod on node1.
  os::PodId id = c.CreatePod(0, "srv");
  net::Ipv4Address pod_ip = c.pods(0).Find(id)->ip;
  c.pods(0).SpawnInPod(id, "cruz.echo_server", apps::EchoServerArgs(9000));
  c.sim().RunFor(10 * kMillisecond);
  // External client on node3 — a plain process, NOT under Zap control —
  // sends many messages with verification.
  os::Pid client = c.node(2).os().Spawn(
      "cruz.echo_client",
      apps::EchoClientArgs(pod_ip, 9000, 60, 256, 2 * kMillisecond));
  os::Process* client_proc = c.node(2).os().FindProcess(client);
  ASSERT_NE(client_proc, nullptr);
  // Let the exchange get going.
  ASSERT_TRUE(c.sim().RunWhile(
      [&] {
        return apps::ReadEchoClientStatus(*client_proc).messages_done >= 10;
      },
      c.sim().Now() + 30 * kSecond));

  // Checkpoint on node1, destroy, restore on node2 (migration).
  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id);
  c.pods(0).DestroyPod(id);
  c.sim().RunFor(50 * kMillisecond);  // downtime; client retransmits
  os::PodId restored = CheckpointEngine::RestorePod(
      c.pods(1), PodCheckpoint::Deserialize(ck.Serialize()));
  CheckpointEngine::ResumePod(c.pods(1), restored);
  EXPECT_TRUE(c.node(1).stack().OwnsIp(pod_ip));

  // The client finishes all 60 messages against the SAME address, over
  // the SAME connection, with zero corruption.
  int client_code = -1;
  apps::EchoClientStatus final_status;
  c.node(2).os().set_process_exit_hook([&](os::Pid p, int code) {
    if (p == client) {
      client_code = code;
      final_status =
          apps::ReadEchoClientStatus(*c.node(2).os().FindProcess(p));
    }
  });
  c.sim().RunFor(120 * kSecond);
  EXPECT_EQ(client_code, 0);
  EXPECT_EQ(final_status.messages_done, 60u);
  EXPECT_EQ(final_status.mismatches, 0u);
}

TEST(Engine, ListenerAcceptQueueSurvivesRestore) {
  Cluster c;
  os::PodId id = c.CreatePod(0, "srv");
  net::Ipv4Address pod_ip = c.pods(0).Find(id)->ip;
  c.pods(0).SpawnInPod(id, "cruz.echo_server", apps::EchoServerArgs(9000));
  c.sim().RunFor(10 * kMillisecond);
  // Stop the pod BEFORE clients connect: connections complete in the
  // kernel (SYN handled by the stack) and sit in the accept queue.
  CheckpointEngine::StopPod(c.pods(0), id);
  os::Pid c1 = c.node(1).os().Spawn(
      "cruz.echo_client", apps::EchoClientArgs(pod_ip, 9000, 1, 32, 0));
  c.sim().RunFor(100 * kMillisecond);
  PodCheckpoint ck = CheckpointEngine::CapturePod(c.pods(0), id);
  EXPECT_EQ(ck.listeners.size(), 1u);
  // There are two connections total across listener queue + established.
  c.pods(0).DestroyPod(id);
  os::PodId restored = CheckpointEngine::RestorePod(c.pods(0), ck);
  CheckpointEngine::ResumePod(c.pods(0), restored);
  int code = -1;
  c.node(1).os().set_process_exit_hook(
      [&](os::Pid p, int exit_code) { if (p == c1) code = exit_code; });
  c.sim().RunFor(60 * kSecond);
  EXPECT_EQ(code, 0);  // the queued connection was accepted after restore
}

}  // namespace
}  // namespace cruz::ckpt
