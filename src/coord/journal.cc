#include "coord/journal.h"

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/log.h"

namespace cruz::coord {

namespace {

// A journal record's one field list (see FieldRef in common/bytes.h).
template <typename Io>
void Fields(Io& io, cruz::FieldRef<Io, JournalRecord> rec) {
  io.Enum(rec.type,
          [](JournalRecord::Type t) {
            return t >= JournalRecord::Type::kIntent &&
                   t <= JournalRecord::Type::kAbort;
          },
          "journal record type out of range");
  io.U64(rec.epoch);
  io.Bool(rec.is_restart);
  io.Seq(rec.members, [&](auto& m) { MemberIdFields(io, m); });
  io.U32(rec.fan_out);
}

}  // namespace

void IntentJournal::Append(const JournalRecord& record) {
  fs_.AppendFile(path_, cruz::FrameRecord([&](auto& io) {
                   Fields(io, record);
                 }));
}

void IntentJournal::AppendOutcome(JournalRecord::Type type,
                                  std::uint64_t epoch, bool is_restart) {
  JournalRecord outcome;
  outcome.type = type;
  outcome.epoch = epoch;
  outcome.is_restart = is_restart;
  Append(outcome);
}

std::vector<JournalRecord> IntentJournal::ReadAll() const {
  std::vector<JournalRecord> records;
  cruz::Bytes raw;
  if (!SysOk(fs_.ReadFile(path_, raw))) return records;
  cruz::ByteReader r(raw);
  while (r.remaining() > 0) {
    JournalRecord rec;
    try {
      cruz::ByteReader body(cruz::GetRecord(r));
      Fields(body, rec);
    } catch (const cruz::CodecError&) {
      // Torn tail: the previous coordinator died mid-append. Everything
      // before this point is intact; the partial record carries no
      // committed state.
      CRUZ_WARN("coord") << "journal " << path_
                         << ": ignoring torn tail record";
      break;
    }
    records.push_back(std::move(rec));
  }
  return records;
}

IntentJournal::RecoveredState IntentJournal::Recover() const {
  RecoveredState state;
  std::optional<JournalRecord> open_intent;
  for (JournalRecord& rec : ReadAll()) {
    state.last_epoch = std::max(state.last_epoch, rec.epoch);
    if (rec.type == JournalRecord::Type::kIntent) {
      open_intent = std::move(rec);
    } else if (open_intent.has_value() &&
               open_intent->epoch == rec.epoch) {
      open_intent.reset();  // outcome recorded
    }
  }
  state.incomplete = std::move(open_intent);
  return state;
}

}  // namespace cruz::coord
