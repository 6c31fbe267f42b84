// Test harness wiring two TcpConnections through the simulator with a
// configurable one-way delay, random loss, and per-endpoint "communication
// disabled" switches that emulate the netfilter drop rule Cruz installs
// during checkpoints. No OS layer involved: this exercises the TCP state
// machine in isolation.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.h"
#include "sim/simulator.h"
#include "tcp/connection.h"

namespace cruz::tcp::testing {

class TcpPair {
 public:
  explicit TcpPair(std::uint64_t seed = 1, DurationNs delay = 50 * kMicrosecond)
      : sim(seed), delay_(delay), loss_rng_(sim.rng().Fork()) {
    tuple_a_.local = {net::Ipv4Address::Parse("10.0.0.1"), 4000};
    tuple_a_.remote = {net::Ipv4Address::Parse("10.0.0.2"), 5000};
  }

  // Starts the client side; the server side is created on SYN arrival
  // (emulating a listener).
  void Connect(const TcpConfig& cfg = TcpConfig{}) {
    cfg_ = cfg;
    a = std::make_unique<TcpConnection>(
        sim, cfg_, tuple_a_, MakeOutput(/*from_a=*/true), a_callbacks);
    a->OpenActive();
  }

  // Runs until both sides are established (or deadline).
  bool RunUntilEstablished(DurationNs timeout = 10 * kSecond) {
    return sim.RunWhile(
        [this] {
          return a && b && a->state() == TcpState::kEstablished &&
                 b->state() == TcpState::kEstablished;
        },
        sim.Now() + timeout);
  }

  // Emulates the netfilter rule: while disabled, all segments to/from that
  // endpoint are silently dropped.
  void SetCommDisabled(bool a_side, bool disabled) {
    if (a_side) {
      a_comm_disabled_ = disabled;
    } else {
      b_comm_disabled_ = disabled;
    }
  }

  void set_loss(double p) { loss_ = p; }

  // Replaces endpoint B with a connection restored from `ck` (checkpoint-
  // restart of one end). Returns the pending receive data that the restore
  // engine would feed through the pod's alternate buffer.
  void RestoreB(const TcpConnCheckpoint& ck,
                TcpConnection::Callbacks callbacks = {}) {
    b = TcpConnection::Restore(sim, cfg_, ck, MakeOutput(/*from_a=*/false),
                               std::move(callbacks));
  }
  void RestoreA(const TcpConnCheckpoint& ck,
                TcpConnection::Callbacks callbacks = {}) {
    a = TcpConnection::Restore(sim, cfg_, ck, MakeOutput(/*from_a=*/true),
                               std::move(callbacks));
  }

  std::uint64_t segments_on_wire() const { return segments_on_wire_; }

  sim::Simulator sim;
  TcpConfig cfg_;
  std::unique_ptr<TcpConnection> a;  // active opener
  std::unique_ptr<TcpConnection> b;  // passive opener
  TcpConnection::Callbacks a_callbacks;
  TcpConnection::Callbacks b_callbacks;

 private:
  TcpConnection::OutputFn MakeOutput(bool from_a) {
    return [this, from_a](const net::FourTuple&, const TcpSegment& seg) {
      // Sender-side filter.
      if ((from_a && a_comm_disabled_) || (!from_a && b_comm_disabled_)) {
        return;
      }
      if (loss_ > 0.0 && loss_rng_.NextBernoulli(loss_)) return;
      ++segments_on_wire_;
      // Round-trip through the wire codec so encoding is exercised.
      cruz::Bytes wire = seg.Encode();
      sim.Schedule(delay_, [this, from_a, wire = std::move(wire)] {
        TcpSegment delivered = TcpSegment::Decode(wire);
        if (from_a) {
          // Receiver-side filter.
          if (b_comm_disabled_) return;
          if (!b) {
            if (delivered.syn && !delivered.ack_flag) {
              b = std::make_unique<TcpConnection>(
                  sim, cfg_, tuple_a_.Reversed(),
                  MakeOutput(/*from_a=*/false), b_callbacks);
              b->OpenPassive(delivered);
            }
            return;
          }
          b->OnSegment(delivered);
        } else {
          if (a_comm_disabled_) return;
          if (a) a->OnSegment(delivered);
        }
      });
    };
  }

  net::FourTuple tuple_a_;
  DurationNs delay_;
  double loss_ = 0.0;
  Rng loss_rng_;
  bool a_comm_disabled_ = false;
  bool b_comm_disabled_ = false;
  std::uint64_t segments_on_wire_ = 0;
};

// Deterministic pseudo-random payload for integrity checks.
inline cruz::Bytes PatternBytes(std::size_t n, std::uint64_t seed = 99) {
  Rng rng(seed);
  cruz::Bytes out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng.NextU64());
  return out;
}

// Reads up to `max` bytes from `conn` through its sink form of Receive,
// appending them to `out` (what a test checks the stream against).
inline SysResult ReceiveInto(TcpConnection& conn, cruz::Bytes& out,
                             std::size_t max, bool peek = false) {
  return conn.Receive(max, peek, [&out](cruz::ByteSpan bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
}

}  // namespace cruz::tcp::testing
