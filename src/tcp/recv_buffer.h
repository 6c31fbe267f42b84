// TCP receive buffer: in-order byte queue plus out-of-order reassembly.
//
// Incoming segments are trimmed against rcv_nxt and the advertised window,
// contiguous data is appended to the in-order queue, and out-of-order
// segments are parked in a reassembly map until the gap fills. Reads support
// MSG_PEEK semantics — the checkpoint engine peeks the undelivered bytes
// without consuming them (paper §4.1). A read consumes by advancing a head
// offset; the consumed prefix is dropped when the queue drains or when
// dropping it saves growing the buffer.
#pragma once

#include <cstdint>
#include <map>

#include "common/bytes.h"
#include "common/function_ref.h"
#include "tcp/seq.h"

namespace cruz::tcp {

class RecvBuffer {
 public:
  // Takes the bytes a read hands out, oldest first.
  using Sink = cruz::FunctionRef<void(cruz::ByteSpan)>;

  RecvBuffer(std::size_t capacity_bytes, Seq rcv_nxt)
      : capacity_(capacity_bytes), rcv_nxt_(rcv_nxt) {}

  // Ingests segment payload starting at `seq`. Data below rcv_nxt or beyond
  // the window is trimmed. Returns true if rcv_nxt advanced.
  bool Insert(Seq seq, cruz::ByteSpan data);

  // Hands up to `max` readable bytes to `deliver` as one view, which it
  // copies out; consumes them unless `peek` is set. Returns the number of
  // bytes (deliver is not called for none).
  std::size_t Read(std::size_t max, bool peek, Sink deliver);
  // Read into the end of `out`.
  std::size_t Read(cruz::Bytes& out, std::size_t max, bool peek) {
    return Read(max, peek, [&out](cruz::ByteSpan bytes) {
      out.insert(out.end(), bytes.begin(), bytes.end());
    });
  }

  std::size_t ReadableBytes() const { return ordered_.size() - head_; }

  // Appends all readable bytes to `out` without consuming them (MSG_PEEK).
  void PeekAll(cruz::Bytes& out) const {
    out.insert(out.end(), ordered_.begin() + static_cast<std::ptrdiff_t>(head_),
               ordered_.end());
  }

  // Receive window to advertise: free space for in-order data.
  std::uint32_t Window() const {
    std::size_t used = ReadableBytes() + ooo_bytes_;
    return used >= capacity_ ? 0
                             : static_cast<std::uint32_t>(capacity_ - used);
  }

  Seq rcv_nxt() const { return rcv_nxt_; }

  // Consumes the peer's FIN (advances rcv_nxt over the FIN's sequence slot).
  void ConsumeFin() { ++rcv_nxt_; }

 private:
  void MergeOutOfOrder();
  // Appends in-order bytes (the receive path's one copy).
  void AppendOrdered(cruz::ByteSpan data);

  std::size_t capacity_;
  Seq rcv_nxt_;
  cruz::Bytes ordered_;  // in-order bytes; undelivered from head_ on
  std::size_t head_ = 0;
  struct SeqLess {
    bool operator()(Seq a, Seq b) const { return SeqLt(a, b); }
  };
  std::map<Seq, cruz::Bytes, SeqLess> ooo_;  // reassembly queue, by seq
  std::size_t ooo_bytes_ = 0;
};

}  // namespace cruz::tcp
