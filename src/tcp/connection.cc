#include "tcp/connection.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/log.h"
#include "sim/simulator.h"

namespace cruz::tcp {

TcpConnection::TcpConnection(sim::Simulator& sim, const TcpConfig& cfg,
                             net::FourTuple tuple, OutputFn output,
                             Callbacks callbacks)
    : sim_(sim),
      cfg_(cfg),
      tuple_(tuple),
      output_(std::move(output)),
      cb_(std::move(callbacks)),
      send_(cfg.send_buffer_capacity, cfg.mss),
      rto_(cfg.initial_rto) {
  cwnd_ = cfg_.initial_cwnd_segments * cfg_.mss;
}

TcpConnection::~TcpConnection() {
  CancelRto();
  CancelPersist();
  if (time_wait_timer_ != sim::kInvalidEventId) {
    sim_.Cancel(time_wait_timer_);
  }
}

// --------------------------------------------------------------------------
// Opening
// --------------------------------------------------------------------------

void TcpConnection::OpenActive() {
  CRUZ_CHECK(state_ == TcpState::kClosed, "OpenActive on non-closed socket");
  iss_ = static_cast<Seq>(sim_.rng().NextU64());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN occupies iss_
  write_seq_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, iss_);
  ArmRto();
}

void TcpConnection::OpenPassive(const TcpSegment& syn) {
  CRUZ_CHECK(state_ == TcpState::kClosed, "OpenPassive on non-closed socket");
  CRUZ_CHECK(syn.syn && !syn.ack_flag, "OpenPassive needs a pure SYN");
  iss_ = static_cast<Seq>(sim_.rng().NextU64());
  irs_ = syn.seq;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  write_seq_ = iss_ + 1;
  snd_wnd_ = syn.window;
  recv_.emplace(cfg_.recv_buffer_capacity, irs_ + 1);
  state_ = TcpState::kSynReceived;
  EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, iss_);  // SYN+ACK
  ArmRto();
}

// --------------------------------------------------------------------------
// Application data path
// --------------------------------------------------------------------------

SysResult TcpConnection::Send(cruz::ByteSpan data) {
  return Send(data.size(),
              [data](std::size_t offset, std::span<std::uint8_t> dst) {
                std::memcpy(dst.data(), data.data() + offset, dst.size());
              });
}

SysResult TcpConnection::Send(std::size_t len, SendBuffer::Source read) {
  if (pending_error_ != CRUZ_EOK) return SysErr(pending_error_);
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    return SysErr(CRUZ_EAGAIN);  // still connecting
  }
  if (app_closed_ || !CanSendData(state_)) return SysErr(CRUZ_EPIPE);
  if (len == 0) return 0;
  std::size_t accepted = send_.Append(len, write_seq_, read);
  write_seq_ += static_cast<Seq>(accepted);
  if (accepted == 0) return SysErr(CRUZ_EAGAIN);  // buffer full
  TrySend();
  return static_cast<SysResult>(accepted);
}

SysResult TcpConnection::Receive(std::size_t max, bool peek,
                                 RecvBuffer::Sink deliver) {
  if (!recv_) {
    return pending_error_ != CRUZ_EOK ? SysErr(pending_error_)
                                      : SysErr(CRUZ_ENOTCONN);
  }
  if (recv_->ReadableBytes() == 0) {
    if (pending_error_ != CRUZ_EOK) return SysErr(pending_error_);
    // EOF once the remote's FIN has been consumed and the buffer drained.
    switch (state_) {
      case TcpState::kCloseWait:
      case TcpState::kClosing:
      case TcpState::kLastAck:
      case TcpState::kTimeWait:
      case TcpState::kClosed:
        return 0;
      default:
        return SysErr(CRUZ_EAGAIN);
    }
  }
  std::size_t n = recv_->Read(max, peek, deliver);
  if (!peek) {
    bytes_delivered_to_app_ += n;
    CountTcpPayloadDelivered(n);
    // Window update: if consuming opened at least one MSS of window beyond
    // what the peer last saw, tell it (prevents zero-window deadlock).
    if (recv_->Window() >=
        last_advertised_window_ + static_cast<std::uint32_t>(cfg_.mss)) {
      SendAck();
    }
  }
  return static_cast<SysResult>(n);
}

void TcpConnection::Close() {
  if (app_closed_) return;
  app_closed_ = true;
  switch (state_) {
    case TcpState::kClosed:
      return;
    case TcpState::kSynSent:
      CancelRto();
      FinishClose();
      return;
    default:
      TrySend();  // FIN is emitted once queued data drains
  }
}

void TcpConnection::Abort() {
  if (state_ == TcpState::kClosed) return;
  if (state_ != TcpState::kSynSent) {
    SendRst(snd_nxt_);
  }
  CancelRto();
  FinishClose();
}

void TcpConnection::SetNagle(bool enabled) {
  nagle_ = enabled;
  if (enabled == false) TrySend();  // flush any held partial segment
}

void TcpConnection::SetCork(bool enabled) {
  cork_ = enabled;
  if (enabled == false) TrySend();
}

// --------------------------------------------------------------------------
// Transmit pump
// --------------------------------------------------------------------------

void TcpConnection::TrySend() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kSynSent ||
      state_ == TcpState::kSynReceived || state_ == TcpState::kTimeWait) {
    return;
  }
  bool sent_any = false;
  for (;;) {
    std::uint32_t inflight = SeqDiff(snd_una_, snd_nxt_);
    std::uint32_t wnd_allow =
        snd_wnd_ > inflight ? snd_wnd_ - inflight : 0;
    std::uint32_t cwnd_allow = cwnd_ > inflight ? cwnd_ - inflight : 0;
    std::uint32_t allow = std::min(wnd_allow, cwnd_allow);
    const SendSegment* seg = send_.SegmentAt(snd_nxt_);
    if (seg == nullptr) break;
    if (seg->data.size() > allow) break;  // window/cwnd exhausted
    if (!seg->sealed && seg->data.size() < cfg_.mss) {
      // Partial tail segment: CORK holds it unconditionally; Nagle holds it
      // while older data is in flight. Sealed segments (restored packets or
      // already-transmitted ones) bypass both, preserving boundaries.
      if (cork_) break;
      if (nagle_ && inflight > 0) break;
    }
    // A segment with a prior transmission is a retransmission (the pump
    // also drives go-back-N recovery after an RTO pulls snd_nxt back).
    bool is_retransmit = seg->transmit_count > 0;
    EmitDataSegment(*seg, is_retransmit);
    if (!rtt_sample_end_.has_value() && !is_retransmit) {
      rtt_sample_end_ = seg->end();
      rtt_sample_sent_at_ = sim_.Now();
    }
    send_.MarkTransmitted(seg->seq);
    snd_nxt_ = seg->end();
    sent_any = true;
  }
  // Emit FIN once the application closed and all queued data has been
  // packetized and transmitted.
  if (app_closed_ && send_.SegmentAt(snd_nxt_) == nullptr) {
    if (!FinSent()) {
      bool may_fin = false;
      switch (state_) {
        case TcpState::kEstablished:
          state_ = TcpState::kFinWait1;
          may_fin = true;
          break;
        case TcpState::kCloseWait:
          state_ = TcpState::kLastAck;
          may_fin = true;
          break;
        // A restored connection may already be in a FIN-in-flight state;
        // the FIN is re-queued without a state transition.
        case TcpState::kFinWait1:
        case TcpState::kClosing:
        case TcpState::kLastAck:
          may_fin = !fin_acked_;
          break;
        default:
          break;
      }
      if (may_fin) {
        fin_seq_ = snd_nxt_;
        EmitControl(/*syn_flag=*/false, /*fin_flag=*/true, snd_nxt_);
        snd_nxt_ += 1;
        sent_any = true;
      }
    } else if (!fin_acked_ && snd_nxt_ == FinSeq()) {
      // Go-back-N pulled snd_nxt back over an unacked FIN: re-emit it.
      EmitControl(/*syn_flag=*/false, /*fin_flag=*/true, snd_nxt_);
      ++retransmissions_;
      snd_nxt_ += 1;
      sent_any = true;
    }
  }
  if (sent_any && rto_timer_ == sim::kInvalidEventId) {
    ArmRto();
  }
  MaybeArmPersist();
}

void TcpConnection::MaybeArmPersist() {
  if (persist_timer_ != sim::kInvalidEventId) return;
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;
  if (snd_una_ != snd_nxt_) return;  // RTO covers outstanding data
  const SendSegment* seg = send_.SegmentAt(snd_nxt_);
  if (seg == nullptr) return;
  std::uint32_t allow = std::min<std::uint32_t>(snd_wnd_, cwnd_);
  if (seg->data.size() <= allow) return;  // pump will send it
  if (persist_interval_ == 0) persist_interval_ = rto_;
  persist_timer_ = sim_.Schedule(persist_interval_, [this] {
    persist_timer_ = sim::kInvalidEventId;
    OnPersistExpired();
  });
}

void TcpConnection::CancelPersist() {
  if (persist_timer_ != sim::kInvalidEventId) {
    sim_.Cancel(persist_timer_);
    persist_timer_ = sim::kInvalidEventId;
  }
  persist_interval_ = 0;
}

void TcpConnection::OnPersistExpired() {
  if (state_ == TcpState::kClosed || state_ == TcpState::kTimeWait) return;
  const SendSegment* seg = send_.SegmentAt(snd_nxt_);
  std::uint32_t allow = std::min<std::uint32_t>(snd_wnd_, cwnd_);
  if (seg == nullptr || snd_una_ != snd_nxt_ ||
      seg->data.size() <= allow) {
    // No longer blocked on the window; let the pump take over.
    persist_interval_ = 0;
    TrySend();
    return;
  }
  // Window probe: split one byte off the queued segment and force it out,
  // ignoring the (stale or zero) window — exactly what Linux's
  // tcp_write_wakeup does. The byte occupies sequence space, so the peer's
  // ACK (or duplicate ACK, if its window really is zero) flows through the
  // normal ACK path and refreshes snd_wnd.
  send_.Split(snd_nxt_, 1);
  const SendSegment* probe = send_.SegmentAt(snd_nxt_);
  CRUZ_CHECK(probe != nullptr && probe->data.size() == 1,
             "persist probe split failed");
  EmitDataSegment(*probe, /*retransmit=*/false);
  send_.MarkTransmitted(probe->seq);
  snd_nxt_ += 1;
  if (rto_timer_ == sim::kInvalidEventId) ArmRto();
  persist_interval_ =
      std::min<DurationNs>(persist_interval_ * 2, cfg_.max_rto);
  persist_timer_ = sim_.Schedule(persist_interval_, [this] {
    persist_timer_ = sim::kInvalidEventId;
    OnPersistExpired();
  });
}

void TcpConnection::EmitDataSegment(const SendSegment& seg, bool retransmit) {
  TcpSegment out;
  out.src_port = tuple_.local.port;
  out.dst_port = tuple_.remote.port;
  out.seq = seg.seq;
  out.payload = seg.data;
  out.ack_flag = recv_.has_value();
  out.ack = recv_ ? recv_->rcv_nxt() : 0;
  out.psh = seg.data.size() < cfg_.mss;
  out.window = AdvertisedWindow();
  last_advertised_window_ = out.window;
  ++segments_sent_;
  if (retransmit) {
    ++retransmissions_;
    sim_.metrics().counter("tcp.retransmits_total").Add();
  }
  if (sim_.tracer().VerboseSample()) {
    sim_.tracer().Instant("tcp", "tcp.tx",
                          obs::TraceAttrs{}
                              .Conn(tuple_.ToString())
                              .Arg("seq", seg.seq)
                              .Arg("len", seg.data.size())
                              .Arg("retransmit", retransmit ? "true"
                                                            : "false"));
  }
  output_(tuple_, out);
}

void TcpConnection::EmitControl(bool syn_flag, bool fin_flag, Seq seq) {
  TcpSegment out;
  out.src_port = tuple_.local.port;
  out.dst_port = tuple_.remote.port;
  out.seq = seq;
  out.syn = syn_flag;
  out.fin = fin_flag;
  out.ack_flag = recv_.has_value();
  out.ack = recv_ ? recv_->rcv_nxt() : 0;
  out.window = AdvertisedWindow();
  if (syn_flag) out.mss_option = static_cast<std::uint16_t>(cfg_.mss);
  last_advertised_window_ = out.window;
  ++segments_sent_;
  output_(tuple_, out);
}

void TcpConnection::SendAck() {
  TcpSegment out;
  out.src_port = tuple_.local.port;
  out.dst_port = tuple_.remote.port;
  out.seq = snd_nxt_;
  out.ack_flag = true;
  out.ack = recv_ ? recv_->rcv_nxt() : 0;
  out.window = AdvertisedWindow();
  last_advertised_window_ = out.window;
  ++segments_sent_;
  output_(tuple_, out);
}

void TcpConnection::SendRst(Seq seq) {
  TcpSegment out;
  out.src_port = tuple_.local.port;
  out.dst_port = tuple_.remote.port;
  out.seq = seq;
  out.rst = true;
  out.ack_flag = recv_.has_value();
  out.ack = recv_ ? recv_->rcv_nxt() : 0;
  ++segments_sent_;
  output_(tuple_, out);
}

std::uint16_t TcpConnection::AdvertisedWindow() const {
  std::uint32_t w = recv_ ? recv_->Window()
                          : static_cast<std::uint32_t>(
                                cfg_.recv_buffer_capacity);
  return static_cast<std::uint16_t>(std::min<std::uint32_t>(w, 0xFFFF));
}

// --------------------------------------------------------------------------
// Segment processing
// --------------------------------------------------------------------------

void TcpConnection::OnSegment(const TcpSegment& seg) {
  ++segments_received_;
  if (sim_.tracer().VerboseSample()) {
    sim_.tracer().Instant("tcp", "tcp.rx",
                          obs::TraceAttrs{}
                              .Conn(tuple_.ToString())
                              .Arg("seq", seg.seq)
                              .Arg("len", seg.payload.size())
                              .Arg("ack", seg.ack_flag ? seg.ack : 0));
  }
  switch (state_) {
    case TcpState::kClosed:
      if (!seg.rst) SendRst(seg.ack_flag ? seg.ack : 0);
      return;
    case TcpState::kListen:
      CRUZ_CHECK(false, "listener segments are demuxed by the stack");
      return;
    case TcpState::kSynSent: {
      if (seg.rst) {
        if (seg.ack_flag && seg.ack == snd_nxt_) {
          FailConnection(CRUZ_ECONNREFUSED);
        }
        return;
      }
      if (seg.syn && seg.ack_flag && seg.ack == snd_nxt_) {
        snd_una_ = seg.ack;
        irs_ = seg.seq;
        snd_wnd_ = seg.window;
        recv_.emplace(cfg_.recv_buffer_capacity, irs_ + 1);
        CancelRto();
        backoff_count_ = 0;
        rto_ = cfg_.initial_rto;
        EnterEstablished();
        SendAck();
        TrySend();
      }
      return;
    }
    case TcpState::kSynReceived: {
      if (seg.rst) {
        FailConnection(CRUZ_ECONNRESET);
        return;
      }
      if (seg.syn && !seg.ack_flag && seg.seq == irs_) {
        EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, iss_);
        return;  // duplicate SYN: re-answer with SYN+ACK
      }
      if (seg.ack_flag && seg.ack == snd_nxt_) {
        snd_una_ = seg.ack;
        snd_wnd_ = seg.window;
        CancelRto();
        backoff_count_ = 0;
        rto_ = cfg_.initial_rto;
        EnterEstablished();
        // The establishing ACK may piggyback data or FIN; fall through.
        if (!seg.payload.empty()) ProcessPayload(seg);
        if (seg.fin) ProcessFin(seg);
        TrySend();
      }
      return;
    }
    default:
      break;  // synchronized states handled below
  }

  // --- synchronized states -------------------------------------------------
  if (seg.rst) {
    // Accept an RST whose sequence number is within the receive window.
    Seq wnd_end = recv_->rcv_nxt() + recv_->Window();
    if (SeqGe(seg.seq, recv_->rcv_nxt()) && SeqLt(seg.seq, wnd_end)) {
      FailConnection(CRUZ_ECONNRESET);
    }
    return;
  }
  if (seg.syn && SeqLt(seg.seq, recv_->rcv_nxt())) {
    SendAck();  // stale duplicate SYN: challenge-ack
    return;
  }
  if (seg.ack_flag) {
    ProcessAck(seg);
    if (state_ == TcpState::kClosed) return;
  }
  if (!seg.payload.empty()) {
    ProcessPayload(seg);
  }
  if (seg.fin) {
    ProcessFin(seg);
  }
}

void TcpConnection::ProcessAck(const TcpSegment& seg) {
  Seq ack = seg.ack;
  // Upper bound of acknowledgeable sequence space: everything the
  // application has written (whether or not this incarnation of the
  // connection has transmitted it yet) plus a pending FIN. After a restore
  // — or after a go-back-N timeout — the peer's cumulative ACK may exceed
  // snd_nxt while still being genuine: it covers bytes a previous
  // transmission delivered. Such ACKs are accepted and snd_nxt
  // fast-forwards past the acknowledged data.
  Seq limit = write_seq_ + (FinSent() ? 1 : 0);
  if (SeqGt(ack, limit)) {
    // ACK for data that does not exist in our stream: bogus; answer with
    // an ACK and drop (RFC 793).
    SendAck();
    return;
  }
  if (SeqGt(ack, snd_una_)) {
    std::uint32_t acked = SeqDiff(snd_una_, ack);
    if (SeqGt(ack, snd_nxt_)) snd_nxt_ = ack;
    MaybeSampleRtt(ack);
    send_.AckUpTo(ack);
    snd_una_ = ack;
    OnAckAdvance(acked, retransmit_recovery_);
    dup_acks_ = 0;
    backoff_count_ = 0;
    snd_wnd_ = seg.window;
    CancelPersist();  // fresh window information; re-armed if still blocked
    // Congestion window growth: slow start below ssthresh, then one MSS
    // per window's worth of ACKed bytes (byte-counting CA).
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(acked, cfg_.mss);
    } else {
      bytes_acked_in_ca_ += acked;
      if (bytes_acked_in_ca_ >= cwnd_) {
        bytes_acked_in_ca_ = 0;
        cwnd_ += cfg_.mss;
      }
    }
    if (FinSent() && !fin_acked_ && SeqGe(snd_una_, FinSeq() + 1)) {
      fin_acked_ = true;
      switch (state_) {
        case TcpState::kFinWait1:
          state_ = TcpState::kFinWait2;
          break;
        case TcpState::kClosing:
          EnterTimeWait();
          break;
        case TcpState::kLastAck:
          FinishClose();
          return;
        default:
          break;
      }
    }
    if (snd_una_ == snd_nxt_) {
      CancelRto();
      rto_ = std::clamp(rto_, cfg_.min_rto, cfg_.max_rto);
    } else {
      ArmRto();  // restart for the next outstanding segment
    }
    TrySend();
    if (cb_.on_writable && send_.FreeBytes() > 0) cb_.on_writable();
    return;
  }
  // ack <= snd_una: old or duplicate ACK.
  if (ack == snd_una_) {
    snd_wnd_ = seg.window;  // window update
    CancelPersist();
    bool pure_dup = seg.payload.empty() && !seg.fin && !seg.syn &&
                    snd_una_ != snd_nxt_;
    if (pure_dup && ++dup_acks_ == 3) {
      // Fast retransmit of the oldest outstanding segment.
      const SendSegment* s = send_.SegmentAt(snd_una_);
      if (s != nullptr) {
        std::uint32_t inflight = SeqDiff(snd_una_, snd_nxt_);
        ssthresh_ = std::max(inflight / 2, 2 * cfg_.mss);
        cwnd_ = ssthresh_;
        bytes_acked_in_ca_ = 0;
        rtt_sample_end_.reset();  // Karn: invalidate the RTT sample
        if (!retransmit_recovery_) {
          retransmit_recovery_ = true;
          recovery_started_at_ = sim_.Now();
        }
        sim_.tracer().Instant("tcp", "tcp.fast_retransmit",
                              obs::TraceAttrs{}
                                  .Conn(tuple_.ToString())
                                  .Arg("seq", s->seq));
        EmitDataSegment(*s, /*retransmit=*/true);
        send_.MarkTransmitted(s->seq);
        ArmRto();
      }
    }
    TrySend();  // the window may have opened
  }
}

void TcpConnection::ProcessPayload(const TcpSegment& seg) {
  if (!recv_) return;
  bool advanced = recv_->Insert(seg.seq, seg.payload);
  // Quick-ACK every data segment: in-order data is cumulatively ACKed,
  // out-of-order or duplicate data generates the duplicate ACKs the sender
  // needs for fast retransmit — and, after a restore, the ACKs that move
  // the peer past its replayed packets.
  SendAck();
  if (advanced && cb_.on_readable) cb_.on_readable();
}

void TcpConnection::ProcessFin(const TcpSegment& seg) {
  if (!recv_) return;
  Seq fin_seq = seg.seq + static_cast<Seq>(seg.payload.size());
  if (SeqLt(fin_seq, recv_->rcv_nxt())) {
    SendAck();  // duplicate FIN (we already consumed it)
    return;
  }
  if (fin_seq != recv_->rcv_nxt()) {
    return;  // FIN beyond a gap; the missing data will be retransmitted
  }
  recv_->ConsumeFin();
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      break;
    case TcpState::kFinWait1:
      if (fin_acked_) {
        EnterTimeWait();
      } else {
        state_ = TcpState::kClosing;
      }
      break;
    case TcpState::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;  // duplicate FIN in CLOSING/TIME_WAIT handled above
  }
  SendAck();
  if (cb_.on_remote_close) cb_.on_remote_close();
  if (cb_.on_readable) cb_.on_readable();  // wake readers to observe EOF
}

// --------------------------------------------------------------------------
// State transitions
// --------------------------------------------------------------------------

void TcpConnection::EnterEstablished() {
  state_ = TcpState::kEstablished;
  if (cb_.on_established) cb_.on_established();
}

void TcpConnection::EnterTimeWait() {
  state_ = TcpState::kTimeWait;
  CancelRto();
  if (time_wait_timer_ == sim::kInvalidEventId) {
    time_wait_timer_ =
        sim_.Schedule(cfg_.time_wait_duration, [this] {
          time_wait_timer_ = sim::kInvalidEventId;
          FinishClose();
        });
  }
}

void TcpConnection::FailConnection(Errno err) {
  pending_error_ = err;
  CancelRto();
  CancelPersist();
  if (time_wait_timer_ != sim::kInvalidEventId) {
    sim_.Cancel(time_wait_timer_);
    time_wait_timer_ = sim::kInvalidEventId;
  }
  state_ = TcpState::kClosed;
  if (cb_.on_error) cb_.on_error(err);
}

void TcpConnection::FinishClose() {
  CancelRto();
  CancelPersist();
  if (time_wait_timer_ != sim::kInvalidEventId) {
    sim_.Cancel(time_wait_timer_);
    time_wait_timer_ = sim::kInvalidEventId;
  }
  state_ = TcpState::kClosed;
  if (cb_.on_closed) cb_.on_closed();
}

// --------------------------------------------------------------------------
// Timers / RTT
// --------------------------------------------------------------------------

void TcpConnection::ArmRto() {
  CancelRto();
  rto_timer_ = sim_.Schedule(rto_, [this] {
    rto_timer_ = sim::kInvalidEventId;
    OnRtoExpired();
  });
}

void TcpConnection::CancelRto() {
  if (rto_timer_ != sim::kInvalidEventId) {
    sim_.Cancel(rto_timer_);
    rto_timer_ = sim::kInvalidEventId;
  }
}

void TcpConnection::OnRtoExpired() {
  switch (state_) {
    case TcpState::kSynSent:
      if (++backoff_count_ > cfg_.max_syn_retransmits) {
        FailConnection(CRUZ_ETIMEDOUT);
        return;
      }
      EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, iss_);
      ++retransmissions_;
      rto_ = std::min<DurationNs>(rto_ * 2, cfg_.max_rto);
      ArmRto();
      return;
    case TcpState::kSynReceived:
      if (++backoff_count_ > cfg_.max_syn_retransmits) {
        FailConnection(CRUZ_ETIMEDOUT);
        return;
      }
      EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, iss_);
      ++retransmissions_;
      rto_ = std::min<DurationNs>(rto_ * 2, cfg_.max_rto);
      ArmRto();
      return;
    case TcpState::kClosed:
    case TcpState::kTimeWait:
      return;
    default:
      break;
  }
  if (snd_una_ == snd_nxt_) return;  // nothing outstanding
  if (++backoff_count_ > cfg_.max_retransmits) {
    FailConnection(CRUZ_ETIMEDOUT);
    return;
  }
  // Timeout congestion response: halve the pipe estimate, restart from one
  // MSS in slow start (this produces the Fig. 6 backoff curve), and go
  // back to snd_una — the whole unacknowledged flight is resent as the
  // congestion window reopens, which is how an entire flight dropped by
  // the checkpoint packet filter is recovered.
  std::uint32_t inflight = SeqDiff(snd_una_, snd_nxt_);
  ssthresh_ = std::max(inflight / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  bytes_acked_in_ca_ = 0;
  dup_acks_ = 0;
  rtt_sample_end_.reset();  // Karn's algorithm
  snd_nxt_ = snd_una_;      // go-back-N

  if (!retransmit_recovery_) {
    retransmit_recovery_ = true;
    recovery_started_at_ = sim_.Now();
  }
  sim_.tracer().Instant("tcp", "tcp.rto",
                        obs::TraceAttrs{}
                            .Conn(tuple_.ToString())
                            .Arg("inflight", inflight)
                            .Arg("backoff", static_cast<std::uint64_t>(
                                                backoff_count_))
                            .Arg("rto_ns", rto_));
  sim_.metrics().counter("tcp.rto_total").Add();

  rto_ = std::min<DurationNs>(rto_ * 2, cfg_.max_rto);
  ArmRto();
  TrySend();
}

void TcpConnection::OnAckAdvance(std::uint32_t acked_bytes,
                                 bool was_retransmit_recovery) {
  if (!was_retransmit_recovery) return;
  // First cumulative-ACK advance after a loss episode: the peer is
  // receiving our retransmissions again. This is the Fig. 6 "recovered"
  // moment — recovery_ns measures RTO/fast-retransmit until here.
  retransmit_recovery_ = false;
  sim_.tracer().Instant("tcp", "tcp.recovered",
                        obs::TraceAttrs{}
                            .Conn(tuple_.ToString())
                            .Arg("acked_bytes", acked_bytes)
                            .Arg("recovery_ns",
                                 sim_.Now() - recovery_started_at_));
}

void TcpConnection::MaybeSampleRtt(Seq ack) {
  if (!rtt_sample_end_.has_value() || SeqLt(ack, *rtt_sample_end_)) return;
  double sample = static_cast<double>(sim_.Now() - rtt_sample_sent_at_);
  rtt_sample_end_.reset();
  if (!rtt_valid_) {
    srtt_ns_ = sample;
    rttvar_ns_ = sample / 2;
    rtt_valid_ = true;
  } else {
    constexpr double kAlpha = 1.0 / 8.0;
    constexpr double kBeta = 1.0 / 4.0;
    rttvar_ns_ = (1 - kBeta) * rttvar_ns_ +
                 kBeta * std::abs(srtt_ns_ - sample);
    srtt_ns_ = (1 - kAlpha) * srtt_ns_ + kAlpha * sample;
  }
  double rto = srtt_ns_ +
               std::max(static_cast<double>(cfg_.rto_granularity),
                        4 * rttvar_ns_);
  rto_ = std::clamp(static_cast<DurationNs>(rto), cfg_.min_rto, cfg_.max_rto);
}

// --------------------------------------------------------------------------
// Checkpoint-restart
// --------------------------------------------------------------------------

TcpConnCheckpoint TcpConnection::ExportCheckpoint() const {
  TcpConnCheckpoint ck;
  ck.tuple = tuple_;
  ck.state = state_;
  ck.iss = iss_;
  ck.irs = irs_;
  ck.snd_una = snd_una_;
  ck.rcv_nxt = recv_ ? recv_->rcv_nxt() : 0;
  ck.snd_wnd = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(snd_wnd_, 0xFFFF));
  ck.nagle_enabled = nagle_;
  ck.cork_enabled = cork_;
  ck.cwnd_bytes = cwnd_;
  ck.ssthresh_bytes = ssthresh_;
  ck.app_closed = app_closed_;
  ck.fin_acked = fin_acked_;
  // Send-buffer walk: every segment from snd_una onward, one entry per
  // packet, boundaries preserved.
  for (const SendSegment& seg : send_.segments()) {
    ck.send_packets.push_back(seg.data);
  }
  // Receive-buffer peek (MSG_PEEK semantics: non-destructive).
  if (recv_) {
    recv_->PeekAll(ck.recv_pending);
  }
  std::uint64_t send_bytes = 0;
  for (const cruz::Bytes& p : ck.send_packets) send_bytes += p.size();
  sim_.tracer().Instant("tcp", "tcp.export",
                        obs::TraceAttrs{}
                            .Conn(tuple_.ToString())
                            .Arg("snd_una", ck.snd_una)
                            .Arg("snd_nxt", snd_nxt_)
                            .Arg("rcv_nxt", ck.rcv_nxt)
                            .Arg("send_buffer_bytes", send_bytes)
                            .Arg("recv_buffer_bytes",
                                 ck.recv_pending.size()));
  sim_.metrics().counter("tcp.exports_total").Add();
  return ck;
}

std::unique_ptr<TcpConnection> TcpConnection::Restore(
    sim::Simulator& sim, const TcpConfig& cfg, const TcpConnCheckpoint& ck,
    OutputFn output, Callbacks callbacks) {
  auto c = std::make_unique<TcpConnection>(sim, cfg, ck.tuple,
                                           std::move(output),
                                           std::move(callbacks));
  std::uint64_t replay_bytes = 0;
  for (const cruz::Bytes& p : ck.send_packets) replay_bytes += p.size();
  sim.tracer().Instant("tcp", "tcp.restore",
                       obs::TraceAttrs{}
                           .Conn(ck.tuple.ToString())
                           .Arg("snd_una", ck.snd_una)
                           .Arg("rcv_nxt", ck.rcv_nxt)
                           .Arg("replay_packets", ck.send_packets.size())
                           .Arg("replay_bytes", replay_bytes));
  sim.metrics().counter("tcp.restores_total").Add();
  c->state_ = ck.state;
  c->iss_ = ck.iss;
  c->irs_ = ck.irs;
  // The two-sequence-number rewrite: the restored socket starts with
  // snd_nxt == snd_una (empty send buffer, "data not yet issued") and the
  // saved rcv_nxt (empty receive buffer, "data already delivered").
  c->snd_una_ = ck.snd_una;
  c->snd_nxt_ = ck.snd_una;
  c->write_seq_ = ck.snd_una;
  c->snd_wnd_ = ck.snd_wnd;
  c->nagle_ = ck.nagle_enabled;
  c->cork_ = ck.cork_enabled;
  c->cwnd_ = std::max(ck.cwnd_bytes, cfg.mss);
  c->ssthresh_ = ck.ssthresh_bytes;
  c->app_closed_ = ck.app_closed;
  c->fin_acked_ = ck.fin_acked;

  switch (ck.state) {
    case TcpState::kClosed:
      return c;
    case TcpState::kSynSent:
      // Re-send the SYN; the normal handshake machinery takes over.
      c->snd_nxt_ = ck.snd_una + 1;
      c->write_seq_ = c->snd_nxt_;
      c->EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, c->iss_);
      c->ArmRto();
      return c;
    default:
      break;
  }
  c->recv_.emplace(cfg.recv_buffer_capacity, ck.rcv_nxt);
  if (ck.state == TcpState::kSynReceived) {
    c->snd_nxt_ = ck.snd_una + 1;
    c->write_seq_ = c->snd_nxt_;
    c->EmitControl(/*syn_flag=*/true, /*fin_flag=*/false, c->iss_);
    c->ArmRto();
    return c;
  }
  if (ck.fin_acked) {
    // Our FIN is already acknowledged; snd_una sits one past it.
    c->fin_seq_ = ck.snd_una - 1;
  }
  // Replay the saved send-buffer packets as sealed segments. Packet
  // boundaries are preserved exactly: each saved packet becomes one
  // segment regardless of Nagle/CORK (the sealed flag bypasses both,
  // which is the simulation's equivalent of "temporarily set the socket
  // TCP options to disable the Nagle algorithm ... before issuing the
  // send system calls").
  for (const cruz::Bytes& pkt : ck.send_packets) {
    c->send_.AppendSealed(pkt, c->write_seq_);
    c->write_seq_ += static_cast<Seq>(pkt.size());
  }
  if (ck.state == TcpState::kTimeWait) {
    c->EnterTimeWait();
    return c;
  }
  // Kick the transmit pump: replayed packets (and a pending FIN) go out
  // immediately. If the node's packet filter is still dropping traffic,
  // the retransmission timer recovers them once communication is enabled.
  c->TrySend();
  return c;
}

}  // namespace cruz::tcp
