#include "coord/journal.h"

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/log.h"

namespace cruz::coord {

void IntentJournal::Append(const JournalRecord& record) {
  cruz::ByteWriter payload;
  payload.PutU8(static_cast<std::uint8_t>(record.type));
  payload.PutU64(record.epoch);
  payload.PutBool(record.is_restart);
  payload.PutU32(static_cast<std::uint32_t>(record.members.size()));
  for (const ShardMember& m : record.members) {
    payload.PutU32(m.agent_ip);
    payload.PutU32(m.pod);
    payload.PutString(m.image_path);
  }
  payload.PutU32(record.fan_out);
  cruz::Bytes body = payload.Take();
  cruz::ByteWriter framed;
  framed.PutU32(static_cast<std::uint32_t>(body.size()));
  framed.PutU32(cruz::Crc32(body));
  framed.PutBytes(body);
  cruz::Bytes frame = framed.Take();
  fs_.AppendFile(path_, frame);
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
      std::uint32_t len = r.GetU32();
      std::uint32_t crc = r.GetU32();
      cruz::Bytes body = r.GetBytes(len);
      if (cruz::Crc32(body) != crc) {
        throw cruz::CodecError("journal record CRC mismatch");
      }
      cruz::ByteReader br(body);
      std::uint8_t type = br.GetU8();
      if (type < 1 || type > 3) {
        throw cruz::CodecError("journal record type out of range");
      }
      rec.type = static_cast<JournalRecord::Type>(type);
      rec.epoch = br.GetU64();
      rec.is_restart = br.GetBool();
      std::uint32_t n = br.GetU32();
      for (std::uint32_t i = 0; i < n; ++i) {
        ShardMember m;
        m.agent_ip = br.GetU32();
        m.pod = br.GetU32();
        m.image_path = br.GetString();
        rec.members.push_back(std::move(m));
      }
      // Absent in records written before hierarchical mode existed.
      rec.fan_out = br.remaining() >= 4 ? br.GetU32() : 0;
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
