#include "coord/participant.h"

#include <algorithm>

#include "common/log.h"

namespace cruz::coord {

Participant::Participant(os::Node& node, const PhaseDriver::Wire& wire,
                         const char* category, const char* sent_metric,
                         bool resend_continue_done)
    : node_(node),
      port_(node, category, wire.port, sent_metric,
            [this](net::Endpoint from, const CoordMessage& m) {
              OnMessage(from, m);
            }),
      wire_(wire),
      resend_continue_done_(resend_continue_done) {}

void Participant::OnMessage(net::Endpoint from, const CoordMessage& m) {
  if (!Accept(m)) return;
  if (!wire_.IsRequest(m.type)) {
    OnReply(from, m);
    return;
  }
  if (m.epoch < max_epoch_seen_) {
    CRUZ_WARN(port_.category().c_str())
        << node_.name() << ": fenced stale " << MsgTypeName(m.type)
        << " (epoch " << m.epoch << " < " << max_epoch_seen_ << ")";
    return;
  }
  max_epoch_seen_ = m.epoch;
  if (m.type == MsgType::kPing) {
    CoordMessage pong;
    pong.type = wire_.pong;
    pong.op_id = m.op_id;
    pong.epoch = m.epoch;
    pong.pod_id = m.pod_id;
    Send(from, pong);
  } else if (m.type == wire_.cont) {
    if (active_ && m.op_id == op_id()) {
      Continue(from);
    } else if (Completed(m.op_id)) {
      Send(from, continue_done_reply_);
    }
  } else if (m.type == wire_.abort) {
    last_aborted_op_ = std::max(last_aborted_op_, m.op_id);
    if (active_ && m.op_id == op_id()) {
      Cancel(/*superseded=*/false);
    } else if (!active_ && Completed(m.op_id)) {
      AbortCompleted();
    }
  } else {
    OnRequest(m, from);
  }
}

void Participant::OnRequest(const CoordMessage& m, net::Endpoint from) {
  if (active_ && m.op_id == op_id()) {
    // A retransmission after our <done> went out means the reply was
    // lost: re-send it. Before <done> the coordinator is just impatient.
    if (!AddFragment(m) && done_sent_) Send(from, done_reply_);
    return;
  }
  if (Completed(m.op_id)) {
    Send(from, done_reply_);
    if (resend_continue_done_) Send(from, continue_done_reply_);
    return;
  }
  // Overtaken by its own <abort>: serving it now would freeze pods for an
  // op nobody coordinates. (An older op's request cannot get here past
  // the epoch fence: op ids are epochs.)
  if (m.op_id == last_aborted_op_) return;
  if (active_) {
    if (m.epoch <= request_.epoch) return;  // one op at a time
    last_aborted_op_ = std::max(last_aborted_op_, op_id());
    Cancel(/*superseded=*/true);
  }
  active_ = true;
  request_ = m;
  coordinator_ = from;
  done_sent_ = continue_done_sent_ = false;
  Serve(m);
}

CoordMessage Participant::Reply(MsgType type) const {
  CoordMessage m;
  m.type = type;
  m.op_id = request_.op_id;
  m.epoch = request_.epoch;
  m.pod_id = request_.pod_id;
  return m;
}

void Participant::Send(net::Endpoint to, const CoordMessage& m) {
  for (CoordMessage& frag : FragmentRoster(m)) port_.Send(to, std::move(frag));
}

void Participant::SendDone(const CoordMessage& done) {
  done_sent_ = true;
  done_reply_ = done;
  Send(coordinator_, done);
}

void Participant::SendContinueDone(const CoordMessage& continue_done) {
  continue_done_sent_ = true;
  continue_done_reply_ = continue_done;
  Send(coordinator_, continue_done);
}

bool Participant::Complete() {
  if (!active_ || !done_sent_ || !continue_done_sent_) return false;
  last_completed_op_ = op_id();
  active_ = false;
  return true;
}

void Participant::Forget() {
  active_ = false;
  max_epoch_seen_ = last_aborted_op_ = last_completed_op_ = 0;
}

}  // namespace cruz::coord
