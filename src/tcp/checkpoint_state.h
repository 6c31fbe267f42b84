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

  // Writes the record to a cruz::ByteWriter, or sizes it with a
  // cruz::ByteCounter: one field list for both.
  template <typename Writer>
  void Serialize(Writer& w) const {
    w.PutU32(tuple.local.ip.value);
    w.PutU16(tuple.local.port);
    w.PutU32(tuple.remote.ip.value);
    w.PutU16(tuple.remote.port);
    w.PutU8(static_cast<std::uint8_t>(state));
    w.PutU32(iss);
    w.PutU32(irs);
    w.PutU32(snd_una);
    w.PutU32(rcv_nxt);
    w.PutU16(snd_wnd);
    w.PutBool(nagle_enabled);
    w.PutBool(cork_enabled);
    w.PutU32(cwnd_bytes);
    w.PutU32(ssthresh_bytes);
    w.PutBool(app_closed);
    w.PutBool(fin_acked);
    w.PutU32(static_cast<std::uint32_t>(send_packets.size()));
    for (const auto& p : send_packets) w.PutBlob(p);
    w.PutBlob(recv_pending);
  }
  static TcpConnCheckpoint Deserialize(cruz::ByteReader& r);
};

}  // namespace cruz::tcp
