// Unit and integration tests for the TCP implementation: handshake, data
// transfer, loss recovery, Nagle/CORK, close semantics, and the
// checkpoint-restart mechanics of §4.1.
#include <gtest/gtest.h>

#include "common/error.h"
#include "tcp/connection.h"
#include "tcp/recv_buffer.h"
#include "tcp/segment.h"
#include "tcp/send_buffer.h"
#include "tcp_harness.h"

namespace cruz::tcp {
namespace {

using testing::PatternBytes;
using testing::ReceiveInto;
using testing::TcpPair;

// --- segment codec ----------------------------------------------------------

TEST(Segment, RoundTrip) {
  TcpSegment s;
  s.src_port = 1234;
  s.dst_port = 80;
  s.seq = 0xDEADBEEF;
  s.ack = 0x12345678;
  s.syn = true;
  s.ack_flag = true;
  s.window = 5840;
  s.mss_option = 1460;
  const Bytes payload = {1, 2, 3};
  s.payload = payload;
  const Bytes wire = s.Encode();
  TcpSegment t = TcpSegment::Decode(wire);
  EXPECT_EQ(t.src_port, s.src_port);
  EXPECT_EQ(t.dst_port, s.dst_port);
  EXPECT_EQ(t.seq, s.seq);
  EXPECT_EQ(t.ack, s.ack);
  EXPECT_TRUE(t.syn);
  EXPECT_TRUE(t.ack_flag);
  EXPECT_FALSE(t.fin);
  EXPECT_FALSE(t.rst);
  EXPECT_EQ(t.window, 5840);
  EXPECT_EQ(t.mss_option, 1460);
  EXPECT_EQ(Bytes(t.payload.begin(), t.payload.end()), payload);
}

TEST(Segment, SeqLenCountsFlags) {
  TcpSegment s;
  const Bytes payload = {1, 2, 3};
  s.payload = payload;
  EXPECT_EQ(s.SeqLen(), 3u);
  s.syn = true;
  EXPECT_EQ(s.SeqLen(), 4u);
  s.fin = true;
  EXPECT_EQ(s.SeqLen(), 5u);
}

TEST(Segment, DecodeRejectsBadOffset) {
  TcpSegment s;
  Bytes wire = s.Encode();
  wire[12] = 0x30;  // data offset 3 < 5
  EXPECT_THROW(TcpSegment::Decode(wire), cruz::CodecError);
}

TEST(Segment, ToStringNames) {
  TcpSegment s;
  s.syn = true;
  s.ack_flag = true;
  EXPECT_NE(s.ToString().find("SYN,ACK"), std::string::npos);
}

// --- sequence arithmetic ------------------------------------------------------

TEST(Seq, WrapAroundComparisons) {
  Seq near_max = 0xFFFFFFF0u;
  Seq wrapped = 0x10u;
  EXPECT_TRUE(SeqLt(near_max, wrapped));
  EXPECT_TRUE(SeqGt(wrapped, near_max));
  EXPECT_EQ(SeqDiff(near_max, wrapped), 0x20u);
}

// --- send buffer ---------------------------------------------------------------

TEST(SendBuffer, PacketizesAtMss) {
  SendBuffer sb(100000, 1000);
  Bytes data = PatternBytes(2500);
  EXPECT_EQ(sb.Append(data, 0), 2500u);
  ASSERT_EQ(sb.segments().size(), 3u);
  EXPECT_EQ(sb.segments()[0].data.size(), 1000u);
  EXPECT_EQ(sb.segments()[1].data.size(), 1000u);
  EXPECT_EQ(sb.segments()[2].data.size(), 500u);
  EXPECT_EQ(sb.segments()[2].seq, 2000u);
}

TEST(SendBuffer, AppendsToUnsealedTail) {
  SendBuffer sb(100000, 1000);
  sb.Append(PatternBytes(400), 0);
  sb.Append(PatternBytes(300), 400);
  ASSERT_EQ(sb.segments().size(), 1u);
  EXPECT_EQ(sb.segments()[0].data.size(), 700u);
}

TEST(SendBuffer, SealedTailNotExtended) {
  SendBuffer sb(100000, 1000);
  sb.Append(PatternBytes(400), 0);
  sb.MarkTransmitted(0);
  sb.Append(PatternBytes(300), 400);
  ASSERT_EQ(sb.segments().size(), 2u);
  EXPECT_EQ(sb.segments()[0].data.size(), 400u);
  EXPECT_EQ(sb.segments()[1].seq, 400u);
}

TEST(SendBuffer, RespectsCapacity) {
  SendBuffer sb(1000, 600);
  EXPECT_EQ(sb.Append(PatternBytes(1500), 0), 1000u);
  EXPECT_EQ(sb.FreeBytes(), 0u);
}

TEST(SendBuffer, AckRemovesWholeSegments) {
  SendBuffer sb(100000, 1000);
  sb.Append(PatternBytes(2500), 0);
  EXPECT_EQ(sb.AckUpTo(2000), 2000u);
  ASSERT_EQ(sb.segments().size(), 1u);
  EXPECT_EQ(sb.segments()[0].seq, 2000u);
}

TEST(SendBuffer, PartialAckTrimsSegment) {
  SendBuffer sb(100000, 1000);
  Bytes data = PatternBytes(1000);
  sb.Append(data, 0);
  EXPECT_EQ(sb.AckUpTo(300), 300u);
  ASSERT_EQ(sb.segments().size(), 1u);
  EXPECT_EQ(sb.segments()[0].seq, 300u);
  EXPECT_EQ(sb.segments()[0].data.size(), 700u);
  EXPECT_EQ(sb.segments()[0].data[0], data[300]);
}

TEST(SendBuffer, AppendSealedRequiresContiguity) {
  SendBuffer sb(100000, 1000);
  sb.AppendSealed(PatternBytes(100), 50);
  sb.AppendSealed(PatternBytes(200), 150);
  EXPECT_EQ(sb.TotalBytes(), 300u);
  EXPECT_THROW(sb.AppendSealed(PatternBytes(10), 999), cruz::InvariantError);
}

TEST(SendBuffer, SegmentAtFindsBySeq) {
  SendBuffer sb(100000, 1000);
  sb.Append(PatternBytes(2000), 100);
  EXPECT_NE(sb.SegmentAt(100), nullptr);
  EXPECT_NE(sb.SegmentAt(1100), nullptr);
  EXPECT_EQ(sb.SegmentAt(500), nullptr);
}

// --- recv buffer -----------------------------------------------------------------

TEST(RecvBuffer, InOrderDelivery) {
  RecvBuffer rb(10000, 100);
  Bytes data = PatternBytes(50);
  EXPECT_TRUE(rb.Insert(100, data));
  EXPECT_EQ(rb.rcv_nxt(), 150u);
  Bytes out;
  EXPECT_EQ(rb.Read(out, 100, false), 50u);
  EXPECT_EQ(out, data);
}

TEST(RecvBuffer, DuplicateTrimmed) {
  RecvBuffer rb(10000, 100);
  Bytes data = PatternBytes(50);
  rb.Insert(100, data);
  EXPECT_FALSE(rb.Insert(100, data));  // full duplicate
  EXPECT_EQ(rb.ReadableBytes(), 50u);
  // Overlapping: first 25 bytes duplicate, next 25 new.
  Bytes more = PatternBytes(50, 7);
  rb.Insert(125, more);
  EXPECT_EQ(rb.rcv_nxt(), 175u);
  EXPECT_EQ(rb.ReadableBytes(), 75u);
}

TEST(RecvBuffer, OutOfOrderReassembly) {
  RecvBuffer rb(10000, 0);
  Bytes first = PatternBytes(100, 1);
  Bytes second = PatternBytes(100, 2);
  EXPECT_FALSE(rb.Insert(100, second));  // gap
  EXPECT_EQ(rb.ReadableBytes(), 0u);
  EXPECT_TRUE(rb.Insert(0, first));  // gap fills, both deliverable
  EXPECT_EQ(rb.rcv_nxt(), 200u);
  Bytes out;
  rb.Read(out, 200, false);
  Bytes expect = first;
  expect.insert(expect.end(), second.begin(), second.end());
  EXPECT_EQ(out, expect);
}

TEST(RecvBuffer, PeekDoesNotConsume) {
  RecvBuffer rb(10000, 0);
  rb.Insert(0, PatternBytes(30));
  Bytes out;
  EXPECT_EQ(rb.Read(out, 100, true), 30u);
  EXPECT_EQ(rb.ReadableBytes(), 30u);
  Bytes out2;
  rb.PeekAll(out2);
  EXPECT_EQ(out2, out);
  EXPECT_EQ(rb.ReadableBytes(), 30u);
}

TEST(RecvBuffer, WindowShrinksWithOccupancy) {
  RecvBuffer rb(1000, 0);
  EXPECT_EQ(rb.Window(), 1000u);
  rb.Insert(0, PatternBytes(400));
  EXPECT_EQ(rb.Window(), 600u);
  Bytes out;
  rb.Read(out, 400, false);
  EXPECT_EQ(rb.Window(), 1000u);
}

TEST(RecvBuffer, BeyondWindowTrimmed) {
  RecvBuffer rb(100, 0);
  EXPECT_TRUE(rb.Insert(0, PatternBytes(200)));
  EXPECT_EQ(rb.ReadableBytes(), 100u);  // only the window's worth accepted
}

TEST(RecvBuffer, ConsumeFinAdvances) {
  RecvBuffer rb(100, 10);
  rb.ConsumeFin();
  EXPECT_EQ(rb.rcv_nxt(), 11u);
}

// --- connection: handshake and data -----------------------------------------

TEST(Connection, HandshakeEstablishes) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  EXPECT_EQ(p.a->state(), TcpState::kEstablished);
  EXPECT_EQ(p.b->state(), TcpState::kEstablished);
  EXPECT_EQ(p.a->snd_nxt(), p.a->snd_una());
}

TEST(Connection, SmallMessageDelivered) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Bytes msg = PatternBytes(100);
  EXPECT_EQ(p.a->Send(msg), 100);
  ASSERT_TRUE(p.sim.RunWhile([&] { return p.b->ReadableBytes() >= 100; },
                             p.sim.Now() + kSecond));
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.b, out, 1000), 100);
  EXPECT_EQ(out, msg);
}

TEST(Connection, ReceiveBeforeDataReturnsEagain) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.b, out, 100), SysErr(CRUZ_EAGAIN));
}

TEST(Connection, PeekLeavesDataReadable) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.a->Send(PatternBytes(64));
  ASSERT_TRUE(p.sim.RunWhile([&] { return p.b->ReadableBytes() >= 64; },
                             p.sim.Now() + kSecond));
  Bytes peeked, read;
  EXPECT_EQ(ReceiveInto(*p.b, peeked, 100, /*peek=*/true), 64);
  EXPECT_EQ(ReceiveInto(*p.b, read, 100), 64);
  EXPECT_EQ(peeked, read);
}

// Transfers `total` bytes a->b with app-level pumps; returns received bytes.
Bytes Transfer(TcpPair& p, std::size_t total, std::uint64_t seed = 99) {
  Bytes data = PatternBytes(total, seed);
  std::size_t sent = 0;
  Bytes received;
  auto pump_send = [&] {
    while (sent < total) {
      SysResult r = p.a->Send(
          ByteSpan(data.data() + sent, std::min<std::size_t>(
                                           8192, total - sent)));
      if (r <= 0) break;
      sent += static_cast<std::size_t>(r);
    }
  };
  p.sim.RunWhile(
      [&] {
        pump_send();
        Bytes chunk;
        while (p.b && ReceiveInto(*p.b, chunk, 65536) > 0) {
          received.insert(received.end(), chunk.begin(), chunk.end());
          chunk.clear();
        }
        return received.size() >= total;
      },
      p.sim.Now() + 600 * kSecond);
  return received;
}

TEST(Connection, BulkTransferIntegrity) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Bytes expect = PatternBytes(1 << 20, 5);
  Bytes got = Transfer(p, 1 << 20, 5);
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(p.a->retransmissions(), 0u);
}

TEST(Connection, BulkTransferWithLoss) {
  TcpPair p(/*seed=*/3);
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.set_loss(0.05);
  Bytes expect = PatternBytes(256 * 1024, 6);
  Bytes got = Transfer(p, 256 * 1024, 6);
  EXPECT_EQ(got, expect);
  EXPECT_GT(p.a->retransmissions(), 0u);
}

TEST(Connection, SendBeforeEstablishedReturnsEagain) {
  TcpPair p;
  p.Connect();
  Bytes msg = {1, 2, 3};
  EXPECT_EQ(p.a->Send(msg), SysErr(CRUZ_EAGAIN));
}

TEST(Connection, BidirectionalTransfer) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Bytes msg_ab = PatternBytes(10000, 1);
  Bytes msg_ba = PatternBytes(10000, 2);
  p.a->Send(msg_ab);
  p.b->Send(msg_ba);
  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        return p.a->ReadableBytes() >= 10000 &&
               p.b->ReadableBytes() >= 10000;
      },
      p.sim.Now() + 10 * kSecond));
  Bytes got_ab, got_ba;
  ReceiveInto(*p.b, got_ab, 20000);
  ReceiveInto(*p.a, got_ba, 20000);
  EXPECT_EQ(got_ab, msg_ab);
  EXPECT_EQ(got_ba, msg_ba);
}

// --- Nagle / CORK ---------------------------------------------------------

TEST(Connection, NagleCoalescesSmallWrites) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  std::uint64_t before = p.a->segments_sent();
  // 50 tiny writes back-to-back; Nagle should coalesce all but the first.
  for (int i = 0; i < 50; ++i) p.a->Send(PatternBytes(10, i));
  ASSERT_TRUE(p.sim.RunWhile([&] { return p.b->ReadableBytes() >= 500; },
                             p.sim.Now() + 10 * kSecond));
  std::uint64_t data_segments = p.a->segments_sent() - before;
  EXPECT_LE(data_segments, 5u);  // 1 immediate + coalesced follow-ups
}

TEST(Connection, NagleOffSendsEagerly) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.a->SetNagle(false);
  std::uint64_t before = p.a->segments_sent();
  for (int i = 0; i < 10; ++i) p.a->Send(PatternBytes(10, i));
  ASSERT_TRUE(p.sim.RunWhile([&] { return p.b->ReadableBytes() >= 100; },
                             p.sim.Now() + 10 * kSecond));
  // Without Nagle each write within cwnd goes straight out. Writes are
  // issued in one burst, so some tail merging into the unsealed segment is
  // possible, but clearly more than the Nagle case.
  EXPECT_GE(p.a->segments_sent() - before, 1u);
  EXPECT_TRUE(p.b != nullptr);
}

TEST(Connection, CorkHoldsPartialSegments) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.a->SetCork(true);
  p.a->Send(PatternBytes(100));
  p.sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(p.b->ReadableBytes(), 0u);  // held by CORK
  p.a->SetCork(false);                  // uncork flushes
  ASSERT_TRUE(p.sim.RunWhile([&] { return p.b->ReadableBytes() >= 100; },
                             p.sim.Now() + kSecond));
}

// --- close / abort -----------------------------------------------------------

TEST(Connection, OrderlyCloseBothWays) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.a->Close();
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.b->state() == TcpState::kCloseWait; },
      p.sim.Now() + 10 * kSecond));
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.b, out, 100), 0);  // EOF
  p.b->Close();
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.b->state() == TcpState::kClosed; },
      p.sim.Now() + 10 * kSecond));
  // A passes through TIME_WAIT and then fully closes.
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.a->state() == TcpState::kClosed; },
      p.sim.Now() + 60 * kSecond));
}

TEST(Connection, CloseFlushesQueuedDataFirst) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Bytes msg = PatternBytes(50000);
  std::size_t sent = 0;
  while (sent < msg.size()) {
    SysResult r = p.a->Send(ByteSpan(msg.data() + sent, msg.size() - sent));
    if (r <= 0) break;
    sent += static_cast<std::size_t>(r);
  }
  ASSERT_EQ(sent, msg.size());
  p.a->Close();
  Bytes received;
  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        Bytes chunk;
        while (ReceiveInto(*p.b, chunk, 65536) > 0) {
          received.insert(received.end(), chunk.begin(), chunk.end());
          chunk.clear();
        }
        return received.size() >= msg.size() &&
               p.b->state() == TcpState::kCloseWait;
      },
      p.sim.Now() + 60 * kSecond));
  EXPECT_EQ(received, msg);
}

TEST(Connection, SendAfterCloseReturnsEpipe) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  p.a->Close();
  Bytes msg = {1};
  EXPECT_EQ(p.a->Send(msg), SysErr(CRUZ_EPIPE));
}

TEST(Connection, AbortDeliversReset) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  Errno b_err = CRUZ_EOK;
  // Note: callbacks were default-initialized; attach via a fresh segment
  // path by checking pending_error instead.
  p.a->Abort();
  EXPECT_EQ(p.a->state(), TcpState::kClosed);
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.b->state() == TcpState::kClosed; },
      p.sim.Now() + kSecond));
  EXPECT_EQ(p.b->pending_error(), CRUZ_ECONNRESET);
  Bytes out;
  EXPECT_EQ(ReceiveInto(*p.b, out, 10), SysErr(CRUZ_ECONNRESET));
  (void)b_err;
}

// --- flow control ---------------------------------------------------------------

TEST(Connection, SenderRespectsReceiverWindow) {
  TcpConfig cfg;
  cfg.recv_buffer_capacity = 8 * 1024;  // small receiver
  TcpPair p;
  p.Connect(cfg);
  ASSERT_TRUE(p.RunUntilEstablished());
  // Fill without the receiver draining: sender must stop at ~8 KiB.
  Bytes data = PatternBytes(64 * 1024);
  std::size_t sent = 0;
  while (sent < data.size()) {
    SysResult r = p.a->Send(ByteSpan(data.data() + sent, 8192));
    if (r <= 0) break;
    sent += static_cast<std::size_t>(r);
    p.sim.RunFor(10 * kMillisecond);
  }
  p.sim.RunFor(2 * kSecond);
  EXPECT_LE(p.b->ReadableBytes(), 8 * 1024u);
  // Drain and verify the transfer completes (window reopens).
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
}

// --- retransmission behaviour ------------------------------------------------

TEST(Connection, RetransmissionRecoversDroppedBurst) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  // Disable B's communication (netfilter emulation), send, re-enable.
  p.SetCommDisabled(false, true);
  Bytes msg = PatternBytes(20000);
  std::size_t sent = 0;
  while (sent < msg.size()) {
    SysResult r = p.a->Send(ByteSpan(msg.data() + sent, msg.size() - sent));
    if (r <= 0) break;
    sent += static_cast<std::size_t>(r);
  }
  p.sim.RunFor(100 * kMillisecond);
  EXPECT_EQ(p.b->ReadableBytes(), 0u);
  p.SetCommDisabled(false, false);
  Bytes received;
  ASSERT_TRUE(p.sim.RunWhile(
      [&] {
        Bytes chunk;
        while (ReceiveInto(*p.b, chunk, 65536) > 0) {
          received.insert(received.end(), chunk.begin(), chunk.end());
          chunk.clear();
        }
        while (sent < msg.size()) {
          SysResult r = p.a->Send(ByteSpan(msg.data() + sent,
                                           msg.size() - sent));
          if (r <= 0) break;
          sent += static_cast<std::size_t>(r);
        }
        return received.size() >= msg.size();
      },
      p.sim.Now() + 120 * kSecond));
  EXPECT_EQ(received, msg);
  EXPECT_GT(p.a->retransmissions(), 0u);
}

TEST(Connection, RtoBacksOffExponentially) {
  TcpPair p;
  p.Connect();
  ASSERT_TRUE(p.RunUntilEstablished());
  DurationNs base_rto = p.a->rto();
  p.SetCommDisabled(false, true);
  p.a->Send(PatternBytes(100));
  p.sim.RunFor(5 * kSecond);
  EXPECT_GT(p.a->retransmissions(), 1u);
  EXPECT_GT(p.a->rto(), base_rto);
}

TEST(Connection, GivesUpAfterMaxRetransmits) {
  TcpConfig cfg;
  cfg.max_retransmits = 3;
  TcpPair p;
  p.Connect(cfg);
  ASSERT_TRUE(p.RunUntilEstablished());
  p.SetCommDisabled(false, true);
  p.a->Send(PatternBytes(100));
  ASSERT_TRUE(p.sim.RunWhile(
      [&] { return p.a->state() == TcpState::kClosed; },
      p.sim.Now() + 600 * kSecond));
  EXPECT_EQ(p.a->pending_error(), CRUZ_ETIMEDOUT);
}

TEST(Connection, SynRetransmittedWhenLost) {
  TcpPair p;
  // Drop everything initially; the SYN must be retried.
  p.SetCommDisabled(false, true);
  p.Connect();
  p.sim.RunFor(1500 * kMillisecond);
  p.SetCommDisabled(false, false);
  ASSERT_TRUE(p.RunUntilEstablished(30 * kSecond));
  EXPECT_GT(p.a->retransmissions(), 0u);
}

}  // namespace
}  // namespace cruz::tcp
