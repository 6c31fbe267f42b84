// The per-connection state captured at checkpoint time (paper §4.1).
//
// This is the "modified version of the TCP connection state which reflects
// an empty receive buffer ... and an empty send buffer": the saved snd_nxt
// is rewritten to unack_nxt (snd_una), send-buffer contents are saved as a
// list of packets whose boundaries must be preserved at restore, and
// received-but-undelivered bytes are saved separately so the restore engine
// can feed them through the pod's alternate receive buffer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "net/address.h"
#include "tcp/seq.h"
#include "tcp/state.h"

namespace cruz::tcp {

struct TcpConnCheckpoint {
  net::FourTuple tuple;
  TcpState state = TcpState::kClosed;

  Seq iss = 0;  // initial send sequence number
  Seq irs = 0;  // initial receive sequence number

  // unack_nxt in the paper's Fig. 3. The saved snd_nxt equals this value;
  // the send-buffer packets below re-advance it at restore.
  Seq snd_una = 0;
  Seq rcv_nxt = 0;

  std::uint16_t snd_wnd = 0;  // last peer-advertised window

  // Socket options that affect packetization (restored before replay).
  bool nagle_enabled = true;
  bool cork_enabled = false;

  // Congestion state (saved so post-restart behaviour matches the live
  // connection, including any backoff in progress).
  std::uint32_t cwnd_bytes = 0;
  std::uint32_t ssthresh_bytes = 0;

  // True if the application had already called close() (a FIN is pending
  // or in flight); the restore engine re-issues the close after replay.
  bool app_closed = false;
  // True if our FIN was already acknowledged by the peer.
  bool fin_acked = false;

  // Send-buffer contents from snd_una onward, one entry per packet
  // ("the data packetization indicated in the send buffer must be
  // preserved across checkpoint and restart").
  std::vector<cruz::Bytes> send_packets;

  // In-order received bytes not yet delivered to the application, obtained
  // with MSG_PEEK semantics. Restored via the pod's alternate buffer, not
  // through the TCP receive path.
  cruz::Bytes recv_pending;

  std::uint64_t TotalBytes() const {
    std::uint64_t n = recv_pending.size();
    for (const auto& p : send_packets) n += p.size();
    return n;
  }
};

// The record's one field list (see FieldRef in common/bytes.h).
template <typename Io>
void Fields(Io& io, cruz::FieldRef<Io, TcpConnCheckpoint> ck) {
  io.U32(ck.tuple.local.ip.value);
  io.U16(ck.tuple.local.port);
  io.U32(ck.tuple.remote.ip.value);
  io.U16(ck.tuple.remote.port);
  io.Enum(ck.state, [](TcpState s) { return s <= TcpState::kTimeWait; },
          "invalid TCP state in checkpoint");
  io.U32(ck.iss);
  io.U32(ck.irs);
  io.U32(ck.snd_una);
  io.U32(ck.rcv_nxt);
  io.U16(ck.snd_wnd);
  io.Bool(ck.nagle_enabled);
  io.Bool(ck.cork_enabled);
  io.U32(ck.cwnd_bytes);
  io.U32(ck.ssthresh_bytes);
  io.Bool(ck.app_closed);
  io.Bool(ck.fin_acked);
  io.Seq(ck.send_packets, [&](auto& packet) { io.Blob(packet); });
  io.Blob(ck.recv_pending);
}

}  // namespace cruz::tcp
