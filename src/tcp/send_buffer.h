// TCP send buffer with stable packet boundaries.
//
// Mirrors the Linux skb queue the paper walks at checkpoint time (§4.1):
// application bytes are packetized into segments ("skbs") at send() time;
// a segment's boundaries never change once it is sealed (first transmitted,
// or inserted whole by the restore engine). This is what makes it possible
// to checkpoint "the application-level data found in the send buffer and
// record the packet boundaries, which are preserved on restart".
//
// Layout in sequence space:
//
//    snd_una                    snd_nxt                 write_seq
//      |--- in flight (sealed) ---|--- queued, unsent ----|
//
// All three pointers live in the owning TcpConnection; the buffer indexes
// its segments by starting sequence number.
//
// A steady stream allocates nothing: acked segments leave by advancing a
// head index, and their payload buffers are kept for the next Append.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/function_ref.h"
#include "tcp/seq.h"

namespace cruz::tcp {

struct SendSegment {
  Seq seq = 0;
  cruz::Bytes data;
  // A sealed segment's boundaries are final; unsealed tail segments may
  // still accept appended bytes (as tcp_sendmsg fills the last skb).
  bool sealed = false;
  // Retransmission bookkeeping.
  int transmit_count = 0;

  Seq end() const { return seq + static_cast<Seq>(data.size()); }
};

class SendBuffer {
 public:
  // Copies bytes [offset, offset + dst.size()) of the data being appended
  // into `dst`.
  using Source =
      cruz::FunctionRef<void(std::size_t offset, std::span<std::uint8_t> dst)>;

  SendBuffer(std::size_t capacity_bytes, std::uint32_t mss)
      : capacity_(capacity_bytes), mss_(mss) {}

  // Appends application data starting at sequence `write_seq`, packetizing
  // into MSS-sized segments. Returns the number of bytes accepted (limited
  // by free capacity).
  std::size_t Append(cruz::ByteSpan data, Seq write_seq);
  // The same for `len` bytes that `read` copies straight into the
  // segments (send from application memory, no staging buffer).
  std::size_t Append(std::size_t len, Seq write_seq, Source read);

  // Inserts one pre-packetized segment (restore path). The segment is
  // sealed immediately so later Appends cannot merge into it.
  void AppendSealed(cruz::Bytes data, Seq seq);

  // Removes data acknowledged up to `ack` (cumulative). Partially-acked
  // segments are trimmed in place. Returns bytes freed.
  std::size_t AckUpTo(Seq ack);

  // Returns the segment containing `seq` (it must start exactly at `seq`
  // after normal operation), or nullptr if none.
  const SendSegment* SegmentAt(Seq seq) const;
  // Marks the segment at `seq` transmitted and seals it.
  void MarkTransmitted(Seq seq);

  // Splits the segment starting at `seq` so its first part holds exactly
  // `first_len` bytes (used by zero-window probing, which transmits a
  // one-byte split just as Linux's tcp_write_wakeup fragments an skb).
  // No-op if the segment is missing or already short enough.
  void Split(Seq seq, std::uint32_t first_len);

  bool Empty() const { return head_ == segments_.size(); }
  std::size_t TotalBytes() const { return total_bytes_; }
  std::size_t FreeBytes() const {
    return total_bytes_ >= capacity_ ? 0 : capacity_ - total_bytes_;
  }
  std::size_t capacity() const { return capacity_; }
  std::uint32_t mss() const { return mss_; }

  // First unacknowledged segment (retransmission target), or nullptr.
  const SendSegment* Front() const {
    return Empty() ? nullptr : &segments_[head_];
  }

  // Iteration for checkpoint: all segments in sequence order.
  std::span<const SendSegment> segments() const {
    return std::span<const SendSegment>(segments_).subspan(head_);
  }

 private:
  // A new segment for `seq`, on a kept payload buffer when there is one.
  SendSegment& NewSegment(Seq seq);
  // Retires the front segment, keeping its payload buffer.
  void PopFront();

  std::size_t capacity_;
  std::uint32_t mss_;
  // Live segments are segments_[head_..]; retired slots before head_ are
  // dropped when the queue drains or head_ passes half the vector.
  std::vector<SendSegment> segments_;
  std::size_t head_ = 0;
  std::vector<cruz::Bytes> spare_;  // payload buffers of retired segments
  std::size_t total_bytes_ = 0;
};

}  // namespace cruz::tcp
