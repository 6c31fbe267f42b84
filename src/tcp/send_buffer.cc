#include "tcp/send_buffer.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "tcp/segment.h"

namespace cruz::tcp {

namespace {
// Retired slots are dropped in bulk once this many have collected and
// they fill half the vector, so compaction is rare and amortized.
constexpr std::size_t kCompactAfter = 32;
}  // namespace

SendSegment& SendBuffer::NewSegment(Seq seq) {
  SendSegment seg;
  seg.seq = seq;
  if (!spare_.empty()) {
    seg.data = std::move(spare_.back());
    spare_.pop_back();
  }
  seg.data.reserve(mss_);
  segments_.push_back(std::move(seg));
  return segments_.back();
}

void SendBuffer::PopFront() {
  cruz::Bytes& data = segments_[head_].data;
  // At most one kept buffer per segment a full send buffer holds.
  if (spare_.size() <= capacity_ / mss_) {
    data.clear();
    spare_.push_back(std::move(data));
  }
  if (++head_ == segments_.size()) {
    segments_.clear();
    head_ = 0;
  } else if (head_ >= kCompactAfter && 2 * head_ >= segments_.size()) {
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::size_t SendBuffer::Append(cruz::ByteSpan data, Seq write_seq) {
  return Append(data.size(), write_seq,
                [data](std::size_t offset, std::span<std::uint8_t> dst) {
                  std::memcpy(dst.data(), data.data() + offset, dst.size());
                });
}

std::size_t SendBuffer::Append(std::size_t len, Seq write_seq, Source read) {
  std::size_t accepted = 0;
  std::size_t room = FreeBytes();
  while (accepted < len && room > 0) {
    // Fill the unsealed tail segment first, as tcp_sendmsg does.
    SendSegment* tail = Empty() ? nullptr : &segments_.back();
    if (tail == nullptr || tail->sealed || tail->data.size() >= mss_) {
      tail = &NewSegment(write_seq + static_cast<Seq>(accepted));
    }
    std::size_t take = std::min(
        {len - accepted, static_cast<std::size_t>(mss_) - tail->data.size(),
         room});
    std::size_t at = tail->data.size();
    tail->data.resize(at + take);
    read(accepted, std::span<std::uint8_t>(tail->data).subspan(at, take));
    accepted += take;
    room -= take;
    total_bytes_ += take;
  }
  CountTcpPayloadCopy(accepted);
  return accepted;
}

void SendBuffer::AppendSealed(cruz::Bytes data, Seq seq) {
  CRUZ_CHECK(Empty() || segments_.back().end() == seq,
             "AppendSealed: sequence gap in send buffer");
  SendSegment seg;
  seg.seq = seq;
  total_bytes_ += data.size();
  seg.data = std::move(data);
  seg.sealed = true;
  segments_.push_back(std::move(seg));
}

std::size_t SendBuffer::AckUpTo(Seq ack) {
  std::size_t freed = 0;
  while (!Empty()) {
    SendSegment& front = segments_[head_];
    if (SeqLe(front.end(), ack)) {
      freed += front.data.size();
      PopFront();
    } else if (SeqLt(front.seq, ack)) {
      // Partial ACK inside a segment: trim the acknowledged prefix.
      std::uint32_t cut = SeqDiff(front.seq, ack);
      front.data.erase(front.data.begin(), front.data.begin() + cut);
      CountTcpPayloadCopy(front.data.size());
      front.seq = ack;
      freed += cut;
      break;
    } else {
      break;
    }
  }
  total_bytes_ -= freed;
  return freed;
}

const SendSegment* SendBuffer::SegmentAt(Seq seq) const {
  for (const SendSegment& seg : segments()) {
    if (seg.seq == seq) return &seg;
    if (SeqGt(seg.seq, seq)) break;
  }
  return nullptr;
}

void SendBuffer::Split(Seq seq, std::uint32_t first_len) {
  if (first_len == 0) return;
  for (std::size_t i = head_; i < segments_.size(); ++i) {
    SendSegment& seg = segments_[i];
    if (seg.seq != seq) continue;
    if (seg.data.size() <= first_len) return;
    SendSegment tail;
    tail.seq = seq + first_len;
    tail.data.assign(seg.data.begin() + first_len, seg.data.end());
    CountTcpPayloadCopy(tail.data.size());
    tail.sealed = seg.sealed;
    seg.data.resize(first_len);
    segments_.insert(segments_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                     std::move(tail));
    return;
  }
}

void SendBuffer::MarkTransmitted(Seq seq) {
  for (std::size_t i = head_; i < segments_.size(); ++i) {
    if (segments_[i].seq == seq) {
      segments_[i].sealed = true;
      ++segments_[i].transmit_count;
      return;
    }
  }
}

}  // namespace cruz::tcp
