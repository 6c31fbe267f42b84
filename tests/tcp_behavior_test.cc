// Behavioural tests for TCP mechanisms that the checkpoint machinery
// leans on: zero-window persist probing, go-back-N timeout recovery,
// ACK fast-forwarding past unsent-but-acknowledged data, TIME_WAIT,
// half-close semantics, and parameterized loss/delay integrity sweeps.
#include <gtest/gtest.h>

#include "common/error.h"
#include "tcp/connection.h"
#include "tcp_harness.h"

namespace cruz::tcp {
namespace {

using testing::PatternBytes;
using testing::ReceiveInto;
using testing::TcpPair;

// Drives an app-level pump until `total` bytes arrive at B; returns the
// received bytes.
Bytes PumpTransfer(TcpPair& p, const Bytes& data,
                   DurationNs deadline = 600 * kSecond) {
  std::size_t sent = 0;
  Bytes received;
  p.sim.RunWhile(
      [&] {
        while (sent < data.size()) {
          SysResult r = p.a->Send(ByteSpan(
              data.data() + sent,
              std::min<std::size_t>(8192, data.size() - sent)));
          if (r <= 0) break;
          sent += static_cast<std::size_t>(r);
        }
        Bytes chunk;
        while (p.b && ReceiveInto(*p.b, chunk, 65536) > 0) {
          received.insert(received.end(), chunk.begin(), chunk.end());
          chunk.clear();
        }
        return received.size() >= data.size();
      },
      p.sim.Now() + deadline);
  return received;
}

// --- persist timer / zero-window probing -----------------------------------

TEST(TcpBehavior, ZeroWindowProbeRecoversLostWindowUpdate) {
  TcpConfig cfg;
  cfg.recv_buffer_capacity = 4096;  // tiny receiver
  TcpPair p;
  p.Connect(cfg);
  ASSERT_TRUE(p.RunUntilEstablished());
  // Fill the receiver's buffer completely; sender stalls on zero window.
  Bytes data = PatternBytes(4096);
  std::size_t sent = 0;
  while (sent < data.size()) {
    SysResult r = p.a->Send(ByteSpan(data.data() + sent,
                                     data.size() - sent));
    if (r <= 0) break;
    sent += static_cast<std::size_t>(r);
  }
  p.sim.RunFor(2 * kSecond);
  EXPECT_EQ(p.b->ReadableBytes(), 4096u);
  // Queue more; the window is zero so it cannot move.
  p.a->Send(PatternBytes(2000, 7));
  p.sim.RunFor(kSecond);
  // Drain the receiver while its window-update ACK is suppressed: drop
  // B->A traffic for a moment so the update is lost.
  p.SetCommDisabled(true, true);  // drop everything A receives
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.b, out, 65536), 4096);
  p.sim.RunFor(100 * kMillisecond);
  p.SetCommDisabled(true, false);
  // Only the persist probe can discover the opened window now.
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.b->ReadableBytes() >= 2000; },
      p.sim.Now() + 300 * kSecond));
  Bytes out2;
  EXPECT_EQ(ReceiveInto(*p.b, out2, 65536), 2000);
  EXPECT_EQ(out2, PatternBytes(2000, 7));
}

TEST(TcpBehavior, PersistProbeDoesNotFireWhenDataInFlight) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.SetCommDisabled(false, true);
  p.a->Send(PatternBytes(1000));
  p.sim.RunFor(50 * kMillisecond);
  // Data is outstanding: the RTO, not the persist timer, owns recovery.
  EXPECT_TRUE(p.a->rto_armed());
  EXPECT_FALSE(p.a->persist_armed());
}

// --- send buffer Split (window probe machinery) ------------------------------

TEST(TcpBehavior, SendBufferSplitPreservesBytes) {
  SendBuffer sb(100000, 1000);
  Bytes data = PatternBytes(1000);
  sb.Append(data, 0);
  sb.Split(0, 1);
  ASSERT_EQ(sb.segments().size(), 2u);
  EXPECT_EQ(sb.segments()[0].data.size(), 1u);
  EXPECT_EQ(sb.segments()[0].seq, 0u);
  EXPECT_EQ(sb.segments()[1].seq, 1u);
  EXPECT_EQ(sb.segments()[1].data.size(), 999u);
  EXPECT_EQ(sb.segments()[0].data[0], data[0]);
  EXPECT_EQ(sb.segments()[1].data[0], data[1]);
  EXPECT_EQ(sb.TotalBytes(), 1000u);
  // Split at a missing seq or oversized length is a no-op.
  sb.Split(500, 10);
  EXPECT_EQ(sb.segments().size(), 2u);
  sb.Split(1, 2000);
  EXPECT_EQ(sb.segments().size(), 2u);
}

// --- go-back-N timeout recovery ----------------------------------------------

TEST(TcpBehavior, WholeFlightDropRecoversViaGoBackN) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  // Drop an entire flight (both directions), as a checkpoint filter does.
  p.SetCommDisabled(false, true);
  Bytes data = PatternBytes(30000);
  std::size_t sent = 0;
  while (sent < data.size()) {
    SysResult r = p.a->Send(ByteSpan(data.data() + sent,
                                     data.size() - sent));
    if (r <= 0) break;
    sent += static_cast<std::size_t>(r);
  }
  p.sim.RunFor(50 * kMillisecond);
  std::uint64_t retx_before = p.a->retransmissions();
  p.SetCommDisabled(false, false);
  Bytes received;
  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        Bytes chunk;
        while (ReceiveInto(*p.b, chunk, 65536) > 0) {
          received.insert(received.end(), chunk.begin(), chunk.end());
          chunk.clear();
        }
        while (sent < data.size()) {
          SysResult r = p.a->Send(ByteSpan(data.data() + sent,
                                           data.size() - sent));
          if (r <= 0) break;
          sent += static_cast<std::size_t>(r);
        }
        return received.size() >= data.size();
      },
      p.sim.Now() + 120 * kSecond));
  EXPECT_EQ(received, data);
  // The whole in-flight window (initial cwnd = 3 segments) was resent,
  // not just one segment per timeout...
  EXPECT_GE(p.a->retransmissions() - retx_before, 3u);
  // ...and recovery happened within a few RTO periods, not one RTO per
  // lost segment (which is what the pre-go-back-N behaviour produced).
  EXPECT_LT(p.sim.Now(), 10 * kSecond);
}

// --- ACK fast-forward (restore transient) -------------------------------------

TEST(TcpBehavior, AckBeyondSndNxtWithinWrittenDataAccepted) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  // Transfer some data so both sides are in a known synchronized state.
  Bytes data = PatternBytes(20000);
  Bytes got = PumpTransfer(p, data);
  ASSERT_EQ(got, data);
  // Checkpoint A (the sender) and restore it: its snd_nxt rewinds to
  // snd_una while B's rcv_nxt is ahead of A's replay cursor. B's first
  // ACK acknowledges data A has not re-sent yet; A must accept it and
  // fast-forward rather than discard (else: deadlock, see §4.1).
  TcpConnCheckpoint ck = p.a->ExportCheckpoint();
  p.a.reset();
  p.RestoreA(ck);
  Bytes more = PatternBytes(20000, 5);
  std::size_t sent = 0;
  Bytes received;
  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        while (sent < more.size()) {
          SysResult r = p.a->Send(ByteSpan(more.data() + sent,
                                           more.size() - sent));
          if (r <= 0) break;
          sent += static_cast<std::size_t>(r);
        }
        Bytes chunk;
        while (ReceiveInto(*p.b, chunk, 65536) > 0) {
          received.insert(received.end(), chunk.begin(), chunk.end());
          chunk.clear();
        }
        return received.size() >= more.size();
      },
      p.sim.Now() + 120 * kSecond));
  EXPECT_EQ(received, more);
}

// --- close-path details -----------------------------------------------------------

TEST(TcpBehavior, TimeWaitAcksRetransmittedFin) {
  TcpConfig cfg;
  cfg.time_wait_duration = 2 * kSecond;
  TcpPair p;
  p.Connect(cfg);
  ASSERT_TRUE(p.RunUntilEstablished());
  p.a->Close();
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.b->state() == TcpState::kCloseWait; },
      p.sim.Now() + 10 * kSecond));
  p.b->Close();
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.a->state() == TcpState::kTimeWait; },
      p.sim.Now() + 10 * kSecond));
  // B's final-ACK was delivered; simulate a retransmitted FIN from B and
  // verify A (in TIME_WAIT) still ACKs it instead of RSTing.
  std::uint64_t sent_before = p.a->segments_sent();
  TcpSegment fin;
  fin.src_port = p.b->tuple().local.port;
  fin.dst_port = p.b->tuple().remote.port;
  fin.seq = p.b->snd_nxt() - 1;
  fin.ack = p.a->snd_nxt();
  fin.ack_flag = true;
  fin.fin = true;
  p.a->OnSegment(fin);
  EXPECT_EQ(p.a->segments_sent(), sent_before + 1);  // the dup-FIN ACK
  EXPECT_EQ(p.a->state(), TcpState::kTimeWait);
  // TIME_WAIT eventually expires to CLOSED.
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.a->state() == TcpState::kClosed; },
      p.sim.Now() + 30 * kSecond));
}

TEST(TcpBehavior, HalfCloseStillDeliversPeerData) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  // A closes its write side; B can keep sending (half-close).
  p.a->Close();
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.b->state() == TcpState::kCloseWait; },
      p.sim.Now() + 10 * kSecond));
  Bytes msg = PatternBytes(5000);
  std::size_t sent = 0;
  while (sent < msg.size()) {
    SysResult r = p.b->Send(ByteSpan(msg.data() + sent,
                                     msg.size() - sent));
    if (r <= 0) break;
    sent += static_cast<std::size_t>(r);
  }
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.a->ReadableBytes() >= msg.size(); },
      p.sim.Now() + 10 * kSecond));
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.a, out, 10000), static_cast<SysResult>(msg.size()));
  EXPECT_EQ(out, msg);
}

TEST(TcpBehavior, SimultaneousClose) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  // Both sides close at the same instant: FINs cross (CLOSING path).
  p.a->Close();
  p.b->Close();
  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        return p.a->state() == TcpState::kClosed &&
               p.b->state() == TcpState::kClosed;
      },
      p.sim.Now() + 60 * kSecond));
}

// --- parameterized integrity sweep over loss x delay ---------------------------

struct SweepParam {
  double loss;
  DurationNs delay;
};

class LossDelaySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LossDelaySweep, TransferIntact) {
  SweepParam param = GetParam();
  TcpPair p(/*seed=*/7, param.delay);
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished(60 * kSecond));
  p.set_loss(param.loss);
  Bytes data = PatternBytes(150 * 1000, 3);
  Bytes got = PumpTransfer(p, data, 1200 * kSecond);
  EXPECT_EQ(got, data) << "loss=" << param.loss
                       << " delay=" << ToMicros(param.delay) << "us";
}

INSTANTIATE_TEST_SUITE_P(
    LossAndDelay, LossDelaySweep,
    ::testing::Values(SweepParam{0.0, 5 * kMicrosecond},
                      SweepParam{0.01, 50 * kMicrosecond},
                      SweepParam{0.05, 50 * kMicrosecond},
                      SweepParam{0.10, 200 * kMicrosecond},
                      SweepParam{0.02, 2 * kMillisecond},
                      SweepParam{0.15, 500 * kMicrosecond}));

}  // namespace
}  // namespace cruz::tcp
