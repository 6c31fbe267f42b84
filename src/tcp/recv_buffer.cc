#include "tcp/recv_buffer.h"

#include <algorithm>

#include "tcp/segment.h"

namespace cruz::tcp {

bool RecvBuffer::Insert(Seq seq, cruz::ByteSpan data) {
  if (data.empty()) return false;
  Seq end = seq + static_cast<Seq>(data.size());

  // Trim the prefix already received.
  if (SeqLt(seq, rcv_nxt_)) {
    if (SeqLe(end, rcv_nxt_)) return false;  // fully duplicate
    std::uint32_t cut = SeqDiff(seq, rcv_nxt_);
    data = data.subspan(cut);
    seq = rcv_nxt_;
  }
  // Trim the suffix beyond the window.
  Seq window_end = rcv_nxt_ + Window();
  if (SeqGe(seq, window_end)) return false;
  if (SeqGt(end, window_end)) {
    data = data.subspan(0, SeqDiff(seq, window_end));
  }
  if (data.empty()) return false;

  if (seq == rcv_nxt_) {
    AppendOrdered(data);
    rcv_nxt_ += static_cast<Seq>(data.size());
    MergeOutOfOrder();
    return true;
  }
  // Out of order: store unless an existing entry already covers it.
  auto it = ooo_.find(seq);
  if (it == ooo_.end() || it->second.size() < data.size()) {
    if (it != ooo_.end()) ooo_bytes_ -= it->second.size();
    ooo_bytes_ += data.size();
    ooo_[seq] = cruz::Bytes(data.begin(), data.end());
    CountTcpPayloadCopy(data.size());
  }
  return false;
}

void RecvBuffer::MergeOutOfOrder() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = ooo_.begin(); it != ooo_.end();) {
      Seq seq = it->first;
      Seq end = seq + static_cast<Seq>(it->second.size());
      if (SeqLe(end, rcv_nxt_)) {
        // Entirely stale.
        ooo_bytes_ -= it->second.size();
        it = ooo_.erase(it);
        continue;
      }
      if (SeqLe(seq, rcv_nxt_)) {
        std::uint32_t skip = SeqDiff(seq, rcv_nxt_);
        AppendOrdered(cruz::ByteSpan(it->second).subspan(skip));
        rcv_nxt_ = end;
        ooo_bytes_ -= it->second.size();
        it = ooo_.erase(it);
        progress = true;
        continue;
      }
      ++it;
    }
  }
}

void RecvBuffer::AppendOrdered(cruz::ByteSpan data) {
  if (head_ > 0 && ordered_.size() + data.size() > ordered_.capacity()) {
    // Drop the consumed prefix rather than grow.
    ordered_.erase(ordered_.begin(),
                   ordered_.begin() + static_cast<std::ptrdiff_t>(head_));
    CountTcpPayloadCopy(ordered_.size());
    head_ = 0;
  }
  ordered_.insert(ordered_.end(), data.begin(), data.end());
  CountTcpPayloadCopy(data.size());
}

std::size_t RecvBuffer::Read(std::size_t max, bool peek, Sink deliver) {
  std::size_t n = std::min(max, ReadableBytes());
  if (n == 0) return 0;
  deliver(cruz::ByteSpan(ordered_).subspan(head_, n));
  CountTcpPayloadCopy(n);
  if (!peek) {
    head_ += n;
    if (head_ == ordered_.size()) {
      ordered_.clear();
      head_ = 0;
    }
  }
  return n;
}

}  // namespace cruz::tcp
