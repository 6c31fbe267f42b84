// A single TCP connection (the protocol control block plus machinery).
//
// The connection is transport-only: it emits TcpSegment objects through an
// output callback (the OS network stack wraps them in IPv4/Ethernet) and
// receives demultiplexed segments through OnSegment(). Timers run on the
// simulation clock. The implementation covers what Cruz depends on:
//
//   * three-way handshake (active and passive open), RST handling
//   * cumulative ACKs, retransmission timeout with exponential backoff,
//     fast retransmit on three duplicate ACKs, Karn's algorithm for RTT
//   * flow control via the advertised window, slow start / congestion
//     avoidance for the Fig. 6 backoff-and-recover behaviour
//   * Nagle's algorithm and TCP_CORK (packet-boundary control at restore)
//   * orderly close (FIN in both directions, TIME_WAIT), abort (RST)
//   * checkpoint export / restore per §4.1 of the paper
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/sysresult.h"
#include "net/address.h"
#include "sim/event_queue.h"
#include "tcp/checkpoint_state.h"
#include "tcp/config.h"
#include "tcp/recv_buffer.h"
#include "tcp/segment.h"
#include "tcp/send_buffer.h"

namespace cruz::sim {
class Simulator;
}

namespace cruz::tcp {

class TcpConnection {
 public:
  using OutputFn =
      std::function<void(const net::FourTuple&, const TcpSegment&)>;

  struct Callbacks {
    std::function<void()> on_established;
    std::function<void()> on_readable;
    std::function<void()> on_writable;
    // Remote sent FIN; pending data may still be readable.
    std::function<void()> on_remote_close;
    // Connection destroyed by RST or retransmission give-up. The argument
    // is the errno the next syscall should report.
    std::function<void(Errno)> on_error;
    // Connection fully closed (both directions done, TIME_WAIT elapsed).
    std::function<void()> on_closed;
  };

  TcpConnection(sim::Simulator& sim, const TcpConfig& cfg,
                net::FourTuple tuple, OutputFn output, Callbacks callbacks);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- opening ------------------------------------------------------------
  void OpenActive();                       // client connect(): sends SYN
  void OpenPassive(const TcpSegment& syn); // from a listener's SYN demux

  // --- application data path ----------------------------------------------
  // Queues data; returns bytes accepted, 0 if the buffer is full, or
  // -errno (EPIPE after close, ENOTCONN before establishment).
  SysResult Send(cruz::ByteSpan data);
  // The same for `len` bytes that `read` copies straight into the send
  // buffer (Linux's send(fd, user_addr, len)).
  SysResult Send(std::size_t len, SendBuffer::Source read);
  // Reads up to `max` bytes, handing them to `deliver`, which copies them
  // out of the receive buffer (Linux's recv(fd, user_addr, len)). Returns
  // bytes read; 0 means EOF (remote closed and drained); -EAGAIN when no
  // data yet.
  SysResult Receive(std::size_t max, bool peek, RecvBuffer::Sink deliver);

  std::size_t ReadableBytes() const {
    return recv_ ? recv_->ReadableBytes() : 0;
  }
  std::size_t SendBufferFree() const { return send_.FreeBytes(); }

  void Close();  // orderly shutdown (FIN after queued data)
  void Abort();  // RST, immediate teardown

  // --- socket options -------------------------------------------------------
  void SetNagle(bool enabled);
  void SetCork(bool enabled);
  bool nagle() const { return nagle_; }
  bool cork() const { return cork_; }

  // --- stack-facing ----------------------------------------------------------
  void OnSegment(const TcpSegment& seg);

  // --- checkpoint-restart (paper §4.1) ---------------------------------------
  // Captures the connection state with the two-sequence-number rewrite.
  // Non-destructive: the live connection keeps running afterwards.
  TcpConnCheckpoint ExportCheckpoint() const;
  // Rebuilds a connection from a checkpoint: buffers start empty, then the
  // saved packets are replayed as sealed segments (boundary-preserving) and
  // a pending close is re-issued. Transmission starts immediately; if the
  // node's communication is still disabled those packets are dropped and
  // recovered by the retransmission timer.
  static std::unique_ptr<TcpConnection> Restore(sim::Simulator& sim,
                                                const TcpConfig& cfg,
                                                const TcpConnCheckpoint& ck,
                                                OutputFn output,
                                                Callbacks callbacks);

  // --- introspection -----------------------------------------------------------
  TcpState state() const { return state_; }
  const net::FourTuple& tuple() const { return tuple_; }
  Seq snd_una() const { return snd_una_; }
  Seq snd_nxt() const { return snd_nxt_; }
  Seq rcv_nxt() const { return recv_ ? recv_->rcv_nxt() : 0; }
  std::uint32_t cwnd() const { return cwnd_; }
  DurationNs rto() const { return rto_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t segments_received() const { return segments_received_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t bytes_delivered_to_app() const {
    return bytes_delivered_to_app_;
  }
  Errno pending_error() const { return pending_error_; }
  bool rto_armed() const { return rto_timer_ != sim::kInvalidEventId; }
  bool persist_armed() const { return persist_timer_ != sim::kInvalidEventId; }

 private:
  // Transmit pump: emits queued data allowed by cwnd and the peer window,
  // honouring Nagle/CORK for unsealed tails, then a pending FIN.
  void TrySend();
  void EmitDataSegment(const SendSegment& seg, bool retransmit);
  void EmitControl(bool syn_flag, bool fin_flag, Seq seq);
  void SendAck();
  void SendRst(Seq seq);

  void ProcessAck(const TcpSegment& seg);
  void ProcessPayload(const TcpSegment& seg);
  void ProcessFin(const TcpSegment& seg);

  void EnterEstablished();
  void EnterTimeWait();
  void FailConnection(Errno err);
  void FinishClose();

  void ArmRto();
  void CancelRto();
  void OnRtoExpired();
  // Persist timer: while the peer advertises a window too small for the
  // next queued segment and nothing is in flight, probe with one byte so
  // the peer's window updates are not lost forever (classic zero-window
  // probing). Essential after a restore, where the saved peer window can
  // be stale (the restored peer's buffers start empty).
  void MaybeArmPersist();
  void CancelPersist();
  void OnPersistExpired();
  void MaybeSampleRtt(Seq ack);
  void OnAckAdvance(std::uint32_t acked_bytes, bool was_retransmit_recovery);

  std::uint16_t AdvertisedWindow() const;
  bool FinSent() const { return fin_seq_.has_value(); }
  // Sequence number our FIN occupies (valid once the FIN is queued).
  Seq FinSeq() const { return *fin_seq_; }

  sim::Simulator& sim_;
  TcpConfig cfg_;
  net::FourTuple tuple_;
  OutputFn output_;
  Callbacks cb_;

  TcpState state_ = TcpState::kClosed;

  Seq iss_ = 0;
  Seq irs_ = 0;
  Seq snd_una_ = 0;
  Seq snd_nxt_ = 0;
  Seq write_seq_ = 0;  // next sequence number for appended app data
  std::uint32_t snd_wnd_ = 0;

  SendBuffer send_;
  std::optional<RecvBuffer> recv_;

  // Congestion control (byte-based slow start / congestion avoidance).
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0x7FFFFFFF;
  std::uint32_t bytes_acked_in_ca_ = 0;  // byte counter for CA growth
  int dup_acks_ = 0;

  // RTT estimation (Karn: only un-retransmitted segments are sampled).
  bool rtt_valid_ = false;
  double srtt_ns_ = 0;
  double rttvar_ns_ = 0;
  DurationNs rto_;
  std::optional<Seq> rtt_sample_end_;  // ack that completes the sample
  TimeNs rtt_sample_sent_at_ = 0;

  sim::EventId rto_timer_ = sim::kInvalidEventId;
  sim::EventId time_wait_timer_ = sim::kInvalidEventId;
  sim::EventId persist_timer_ = sim::kInvalidEventId;
  DurationNs persist_interval_ = 0;
  int backoff_count_ = 0;

  bool app_closed_ = false;            // Close() called
  std::optional<Seq> fin_seq_;         // seq our FIN occupies once queued
  bool fin_acked_ = false;

  bool nagle_ = true;
  bool cork_ = false;

  std::uint32_t last_advertised_window_ = 0;
  Errno pending_error_ = CRUZ_EOK;

  // Tracing: set while recovering lost data via RTO/fast retransmit;
  // cleared (with a tcp.recovered event) by the first advancing ACK.
  bool retransmit_recovery_ = false;
  TimeNs recovery_started_at_ = 0;

  std::uint64_t segments_sent_ = 0;
  std::uint64_t segments_received_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t bytes_delivered_to_app_ = 0;
};

}  // namespace cruz::tcp
