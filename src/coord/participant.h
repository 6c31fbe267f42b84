// The receiving end of the Fig. 2 exchange (DESIGN.md §13).
//
// An agent is a participant toward its coordinator, and a sub-coordinator
// is one toward the root. Both keep the same receiver rules, held here
// once together with the process's control port:
//  - epoch fencing: a request below the highest epoch seen comes from a
//    dead coordinator incarnation or is a long-delayed duplicate: dropped;
//  - abort fencing: a request overtaken by its op's <abort> is ignored;
//  - supersede: a request with a newer epoch than the in-flight op's
//    means the coordinator gave up on that op and its <abort> was lost:
//    the op is aborted, then the request is served;
//  - the reply cache: a retransmitted request is answered with the <done>
//    the coordinator missed, for the in-flight op and for the op last
//    completed, and a retransmitted <continue> of that completed op with
//    its <continue-done>;
//  - <ping> is answered even mid-op: the probe asks "is the process
//    alive", not "is the op done".
// The owner serves requests through the virtual hooks and keeps its own
// policies: its reply contents, roster assembly, timers, crash model.
#pragma once

#include <cstdint>

#include "coord/message.h"
#include "coord/phase_driver.h"
#include "os/node.h"

namespace cruz::coord {

class Participant {
 public:
  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  // Deterministic fault injection (tests/benches); nullptr disables.
  void set_fault_injector(fault::Injector* injector) {
    port_.set_fault_injector(injector);
  }
  bool crashed() const { return port_.deaf(); }

 protected:
  // Listens on `wire.port`; its send/recv instants are `category`'s, and
  // `sent_metric` (nullptr = none) counts its sends. A retransmitted
  // request of the op last completed is answered with its <done>, plus
  // its <continue-done> if `resend_continue_done`.
  Participant(os::Node& node, const PhaseDriver::Wire& wire,
              const char* category, const char* sent_metric,
              bool resend_continue_done);
  virtual ~Participant() = default;

  // False drops `m` before any rule applies.
  virtual bool Accept(const CoordMessage&) { return true; }
  // A new request: the op is active, `request_` and `coordinator_` set.
  virtual void Serve(const CoordMessage& m) = 0;
  // A repeat of the in-flight request; true if it was absorbed (a roster
  // fragment) rather than a retransmission.
  virtual bool AddFragment(const CoordMessage&) { return false; }
  // <continue> for the in-flight op.
  virtual void Continue(net::Endpoint from) = 0;
  // Aborts the in-flight op: its coordinator's <abort>, or a newer op.
  virtual void Cancel(bool superseded) = 0;
  // <abort> for the op last completed.
  virtual void AbortCompleted() {}
  // Any message that is not a request of this depth.
  virtual void OnReply(net::Endpoint, const CoordMessage&) {}

  std::uint64_t op_id() const { return request_.op_id; }
  // A message about the active op: type, op id, epoch and pod.
  CoordMessage Reply(MsgType type) const;
  // Sends `m`, splitting a roster too big for one datagram.
  void Send(net::Endpoint to, const CoordMessage& m);
  // The op's <done> / <continue-done> to its coordinator, cached for
  // retransmitted requests.
  void SendDone(const CoordMessage& done);
  void SendContinueDone(const CoordMessage& continue_done);
  // Ends the active op once both went out; true if it did.
  bool Complete();
  // A restarted process: forgets the fences, the cache and the op.
  void Forget();

  os::Node& node_;
  ControlPort port_;
  bool active_ = false;
  CoordMessage request_;  // the active (or last) op's request
  net::Endpoint coordinator_;
  bool done_sent_ = false;
  bool continue_done_sent_ = false;
  // Fencing: the highest epoch seen, and the newest op aborted.
  std::uint64_t max_epoch_seen_ = 0;
  std::uint64_t last_aborted_op_ = 0;
  // The reply cache: the op's replies as last sent.
  CoordMessage done_reply_;
  CoordMessage continue_done_reply_;

 private:
  void OnMessage(net::Endpoint from, const CoordMessage& m);
  void OnRequest(const CoordMessage& m, net::Endpoint from);
  bool Completed(std::uint64_t op) const {
    return op == last_completed_op_ && op != 0;
  }

  const PhaseDriver::Wire& wire_;
  const bool resend_continue_done_;
  std::uint64_t last_completed_op_ = 0;
};

}  // namespace cruz::coord
