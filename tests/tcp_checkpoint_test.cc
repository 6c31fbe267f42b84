// Tests for TCP checkpoint-restart (paper §4.1 and the §5.1 correctness
// argument at the transport level): the two-sequence-number rewrite, packet
// boundary preservation, one-sided restore against a live peer, two-sided
// coordinated restore, and property tests of the Fig. 3 invariant
//     unack_nxt <= rcv_nxt <= snd_nxt
// at randomly chosen checkpoint instants.
#include <gtest/gtest.h>

#include "common/error.h"
#include "tcp/checkpoint_state.h"
#include "tcp/connection.h"
#include "tcp_harness.h"

namespace cruz::tcp {
namespace {

using testing::PatternBytes;
using testing::ReceiveInto;
using testing::TcpPair;

TEST(TcpCheckpoint, SerializationRoundTrip) {
  TcpConnCheckpoint ck;
  ck.tuple.local = {net::Ipv4Address::Parse("10.0.0.1"), 4000};
  ck.tuple.remote = {net::Ipv4Address::Parse("10.0.0.2"), 5000};
  ck.state = TcpState::kEstablished;
  ck.iss = 100;
  ck.irs = 200;
  ck.snd_una = 150;
  ck.rcv_nxt = 250;
  ck.snd_wnd = 4096;
  ck.nagle_enabled = false;
  ck.cork_enabled = true;
  ck.cwnd_bytes = 2920;
  ck.ssthresh_bytes = 65535;
  ck.app_closed = true;
  ck.fin_acked = false;
  ck.send_packets = {PatternBytes(100, 1), PatternBytes(60, 2)};
  ck.recv_pending = PatternBytes(33, 3);

  ByteWriter w;
  Fields(w, ck);
  ByteReader r(w.data());
  TcpConnCheckpoint d;
  Fields(r, d);
  EXPECT_EQ(d.tuple, ck.tuple);
  EXPECT_EQ(d.state, ck.state);
  EXPECT_EQ(d.snd_una, ck.snd_una);
  EXPECT_EQ(d.rcv_nxt, ck.rcv_nxt);
  EXPECT_EQ(d.snd_wnd, ck.snd_wnd);
  EXPECT_EQ(d.nagle_enabled, ck.nagle_enabled);
  EXPECT_EQ(d.cork_enabled, ck.cork_enabled);
  EXPECT_EQ(d.app_closed, ck.app_closed);
  EXPECT_EQ(d.fin_acked, ck.fin_acked);
  ASSERT_EQ(d.send_packets.size(), 2u);
  EXPECT_EQ(d.send_packets[0], ck.send_packets[0]);
  EXPECT_EQ(d.send_packets[1], ck.send_packets[1]);
  EXPECT_EQ(d.recv_pending, ck.recv_pending);
  EXPECT_EQ(d.TotalBytes(), 193u);
}

TEST(TcpCheckpoint, DeserializeRejectsBadState) {
  ByteWriter w;
  Fields(w, TcpConnCheckpoint{});
  Bytes data = w.Take();
  data[12] = 99;  // state byte (after 4+2+4+2 bytes of tuple)
  ByteReader r(data);
  TcpConnCheckpoint d;
  EXPECT_THROW(Fields(r, d), cruz::CodecError);
}

TEST(TcpCheckpoint, ExportIsNonDestructive) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Bytes msg = PatternBytes(5000);
  p.a->Send(msg);
  ASSERT_TRUE(p.sim.RunWhile([&] { return p.b->ReadableBytes() >= 5000; },
                             p.sim.Now() + kSecond));
  TcpConnCheckpoint ck = p.b->ExportCheckpoint();
  EXPECT_EQ(ck.recv_pending, msg);
  // The live connection still delivers everything after the export.
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.b, out, 10000), 5000);
  EXPECT_EQ(out, msg);
}

TEST(TcpCheckpoint, RewriteReflectsEmptyBuffers) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  // Queue data while the peer cannot ACK: send buffer stays full.
  p.SetCommDisabled(false, true);
  p.a->Send(PatternBytes(10000));
  p.sim.RunFor(10 * kMillisecond);
  ASSERT_NE(p.a->snd_nxt(), p.a->snd_una());

  TcpConnCheckpoint ck = p.a->ExportCheckpoint();
  // Saved unack_nxt, with the send data carried as packets.
  EXPECT_EQ(ck.snd_una, p.a->snd_una());
  std::size_t packet_bytes = 0;
  for (const auto& pkt : ck.send_packets) packet_bytes += pkt.size();
  EXPECT_EQ(packet_bytes, 10000u);

  // A restored connection starts with snd_nxt == snd_una and replays.
  TcpPair q;
  q.cfg_ = TcpConfig{};
  q.SetCommDisabled(true, true);  // keep it quiet
  q.RestoreA(ck);
  EXPECT_EQ(q.a->snd_una(), ck.snd_una);
  EXPECT_GE(SeqDiff(ck.snd_una, q.a->snd_nxt()), 0u);
}

TEST(TcpCheckpoint, PacketBoundariesPreservedAcrossRestore) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.SetCommDisabled(false, true);
  // Two odd-sized writes with Nagle off: distinctive packet boundaries.
  p.a->SetNagle(false);
  p.a->Send(PatternBytes(700, 1));
  p.sim.RunFor(kMillisecond);
  p.a->Send(PatternBytes(300, 2));
  p.sim.RunFor(10 * kMillisecond);
  TcpConnCheckpoint ck = p.a->ExportCheckpoint();
  ASSERT_EQ(ck.send_packets.size(), 2u);
  EXPECT_EQ(ck.send_packets[0].size(), 700u);
  EXPECT_EQ(ck.send_packets[1].size(), 300u);

  // Restore and confirm the replayed segments keep the same boundaries.
  TcpPair q;
  q.cfg_ = TcpConfig{};
  std::vector<std::size_t> sizes;
  q.RestoreA(ck);
  TcpConnCheckpoint ck2 = q.a->ExportCheckpoint();
  ASSERT_EQ(ck2.send_packets.size(), 2u);
  EXPECT_EQ(ck2.send_packets[0].size(), 700u);
  EXPECT_EQ(ck2.send_packets[1].size(), 300u);
  (void)sizes;
}

// One-sided checkpoint-restart of B in the middle of a bulk transfer, while
// A (the remote peer, not under checkpoint control) keeps running — the
// migration scenario of §4.2. The byte stream must arrive exactly once, in
// order, with no loss, combining B's alternate-buffer data (recv_pending)
// with post-restore receives.
TEST(TcpCheckpoint, OneSidedRestoreMidStream) {
  TcpPair p(/*seed=*/11);
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());

  const std::size_t total = 300 * 1000;
  Bytes data = PatternBytes(total, 42);
  std::size_t sent = 0;
  Bytes received;

  auto pump_a = [&] {
    while (sent < total) {
      SysResult r = p.a->Send(
          ByteSpan(data.data() + sent,
                   std::min<std::size_t>(8192, total - sent)));
      if (r <= 0) break;
      sent += static_cast<std::size_t>(r);
    }
  };
  auto drain_b = [&] {
    Bytes chunk;
    while (p.b && ReceiveInto(*p.b, chunk, 65536) > 0) {
      received.insert(received.end(), chunk.begin(), chunk.end());
      chunk.clear();
    }
  };

  // Run until roughly a third of the stream has been consumed.
  p.sim.RunWhile(
      [&] {
        pump_a();
        drain_b();
        return received.size() >= total / 3;
      },
      p.sim.Now() + 60 * kSecond);
  ASSERT_GE(received.size(), total / 3);

  // Let more data pile into B's receive buffer without draining, so the
  // checkpoint contains pending receive data.
  p.sim.RunFor(2 * kMillisecond);

  // --- checkpoint B: disable comm, export, destroy ---
  p.SetCommDisabled(false, true);
  TcpConnCheckpoint ck = p.b->ExportCheckpoint();
  p.b.reset();

  // Downtime: A retransmits into the void and backs off.
  p.sim.RunFor(500 * kMillisecond);

  // --- restart B (e.g. on another machine): restore, then enable comm ---
  p.RestoreB(ck);
  // recv_pending is what the restore engine feeds the app through the
  // alternate buffer: it is the next chunk of the stream.
  received.insert(received.end(), ck.recv_pending.begin(),
                  ck.recv_pending.end());
  p.SetCommDisabled(false, false);

  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        pump_a();
        drain_b();
        return received.size() >= total;
      },
      p.sim.Now() + 300 * kSecond));
  EXPECT_EQ(received.size(), total);
  EXPECT_EQ(received, data);
}

// Two-sided coordinated checkpoint-restart mid-stream: both endpoints are
// frozen (comm disabled first, per the Fig. 2 agent protocol), exported,
// destroyed, restored, and only then is communication re-enabled.
TEST(TcpCheckpoint, CoordinatedRestoreBothSides) {
  TcpPair p(/*seed=*/17);
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());

  const std::size_t total = 200 * 1000;
  Bytes data = PatternBytes(total, 7);
  std::size_t sent = 0;
  Bytes received;
  auto pump_a = [&] {
    while (p.a && sent < total) {
      SysResult r = p.a->Send(
          ByteSpan(data.data() + sent,
                   std::min<std::size_t>(8192, total - sent)));
      if (r <= 0) break;
      sent += static_cast<std::size_t>(r);
    }
  };
  auto drain_b = [&] {
    Bytes chunk;
    while (p.b && ReceiveInto(*p.b, chunk, 65536) > 0) {
      received.insert(received.end(), chunk.begin(), chunk.end());
      chunk.clear();
    }
  };

  p.sim.RunWhile(
      [&] {
        pump_a();
        drain_b();
        return received.size() >= total / 2;
      },
      p.sim.Now() + 60 * kSecond);
  ASSERT_GE(received.size(), total / 2);

  // Coordinated checkpoint: disable all communication first (in-flight
  // packets are dropped), then save both endpoint states independently.
  p.SetCommDisabled(true, true);
  p.SetCommDisabled(false, true);
  TcpConnCheckpoint ck_a = p.a->ExportCheckpoint();
  TcpConnCheckpoint ck_b = p.b->ExportCheckpoint();

  // The Fig. 3 invariant must hold in the saved global state:
  //   a.snd_una <= b.rcv_nxt  and  b.snd_una <= a.rcv_nxt
  EXPECT_TRUE(SeqLe(ck_a.snd_una, ck_b.rcv_nxt));
  EXPECT_TRUE(SeqLe(ck_b.snd_una, ck_a.rcv_nxt));

  // Destroy both (machines fail / job preempted).
  p.a.reset();
  p.b.reset();
  p.sim.RunFor(3 * kSecond);

  // Coordinated restart: restore both while communication is still
  // disabled, then re-enable everywhere.
  p.RestoreA(ck_a);
  p.RestoreB(ck_b);
  received.insert(received.end(), ck_b.recv_pending.begin(),
                  ck_b.recv_pending.end());
  // A's recv_pending belongs to the (unused) B->A direction.
  p.SetCommDisabled(true, false);
  p.SetCommDisabled(false, false);

  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        pump_a();
        drain_b();
        return received.size() >= total;
      },
      p.sim.Now() + 600 * kSecond));
  EXPECT_EQ(received, data);
}

// Restore with a pending close: B checkpointed after calling Close() but
// before the FIN was acknowledged. After restore the FIN must be re-issued
// and the shutdown completes.
TEST(TcpCheckpoint, RestoreReissuesPendingFin) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.SetCommDisabled(false, true);  // A never sees the FIN
  p.b->Close();
  p.sim.RunFor(10 * kMillisecond);
  ASSERT_EQ(p.b->state(), TcpState::kFinWait1);
  TcpConnCheckpoint ck = p.b->ExportCheckpoint();
  EXPECT_TRUE(ck.app_closed);
  EXPECT_FALSE(ck.fin_acked);
  p.b.reset();

  p.RestoreB(ck);
  p.SetCommDisabled(false, false);
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.a->state() == TcpState::kCloseWait; },
      p.sim.Now() + 60 * kSecond));
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.a, out, 10), 0);  // EOF observed at the live peer
}

// Property test over random checkpoint instants: checkpoint B at an
// arbitrary moment during a lossy bidirectional transfer, restore it, and
// require exactly-once in-order delivery of the full stream plus the saved
// invariant. Parameterized across seeds (different timings, loss patterns,
// and checkpoint instants).
class CheckpointInstantProperty : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointInstantProperty, StreamSurvivesRestore) {
  const int seed = GetParam();
  TcpPair p(static_cast<std::uint64_t>(seed));
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.set_loss(0.02);

  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 13);
  const std::size_t total = 60 * 1000 + rng.NextBelow(100000);
  Bytes data = PatternBytes(total, static_cast<std::uint64_t>(seed));
  std::size_t sent = 0;
  Bytes received;
  auto pump_a = [&] {
    while (sent < total) {
      SysResult r = p.a->Send(
          ByteSpan(data.data() + sent,
                   std::min<std::size_t>(4096, total - sent)));
      if (r <= 0) break;
      sent += static_cast<std::size_t>(r);
    }
  };
  auto drain_b = [&] {
    Bytes chunk;
    while (p.b && ReceiveInto(*p.b, chunk, 65536) > 0) {
      received.insert(received.end(), chunk.begin(), chunk.end());
      chunk.clear();
    }
  };

  // Run to a random progress point in [10%, 80%].
  std::size_t threshold =
      total / 10 + rng.NextBelow(total * 7 / 10);
  p.sim.RunWhile(
      [&] {
        pump_a();
        drain_b();
        return received.size() >= threshold;
      },
      p.sim.Now() + 300 * kSecond);

  // Random extra delay so the checkpoint lands between app-level reads.
  p.sim.RunFor(rng.NextBelow(5 * kMillisecond));

  p.SetCommDisabled(false, true);
  TcpConnCheckpoint ck_b = p.b->ExportCheckpoint();
  TcpConnCheckpoint ck_a = p.a->ExportCheckpoint();  // peer view (live)

  // Fig. 3 invariant, checked from the saved B state against live A:
  // B's saved rcv_nxt must be between A's unacked pointer and A's snd_nxt.
  EXPECT_TRUE(SeqLe(ck_a.snd_una, ck_b.rcv_nxt));
  EXPECT_TRUE(SeqLe(ck_b.rcv_nxt, p.a->snd_nxt()));

  p.b.reset();
  p.sim.RunFor(rng.NextBelow(2 * kSecond));

  p.RestoreB(ck_b);
  received.insert(received.end(), ck_b.recv_pending.begin(),
                  ck_b.recv_pending.end());
  p.SetCommDisabled(false, false);

  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        pump_a();
        drain_b();
        return received.size() >= total;
      },
      p.sim.Now() + 900 * kSecond))
      << "seed=" << seed << " received=" << received.size() << "/" << total;
  EXPECT_EQ(received.size(), total);
  EXPECT_EQ(received, data) << "stream corrupted for seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointInstantProperty,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace cruz::tcp
