// Coordinator write-ahead intent journal.
//
// Before the coordinator sends the first message of a coordinated
// operation it appends an *intent* record (epoch, kind, members, image
// paths) to an append-only journal in the shared network filesystem; on
// completion it appends a matching *commit* or *abort* record. A
// coordinator that restarts (crash, migration) replays the journal: the
// highest epoch seeds its fencing counter, and a trailing intent without
// an outcome identifies the in-flight op, which the new incarnation
// aborts — fencing the agents and garbage-collecting any partial images.
//
// Records are length-prefixed and CRC-protected; a torn tail record
// (coordinator died mid-append) is detected and ignored.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coord/message.h"
#include "os/netfs.h"

namespace cruz::coord {

struct JournalRecord {
  enum class Type : std::uint8_t { kIntent = 1, kCommit = 2, kAbort = 3 };

  Type type = Type::kIntent;
  std::uint64_t epoch = 0;
  bool is_restart = false;
  // Intent records only: each member's agent_ip, pod and image_path (the
  // per-member reports are not journaled).
  std::vector<ShardMember> members;
  // Hierarchical mode: the shard fan-out the op ran with (0 = flat), so
  // recovery can re-derive the sub-coordinator set and fence it too.
  std::uint32_t fan_out = 0;
};

class IntentJournal {
 public:
  static constexpr const char* kDefaultPath = "/coord/journal";

  explicit IntentJournal(os::NetworkFileSystem& fs,
                         std::string path = kDefaultPath)
      : fs_(fs), path_(std::move(path)) {}

  void Append(const JournalRecord& record);
  // Appends the commit/abort record closing the intent for `epoch`.
  void AppendOutcome(JournalRecord::Type type, std::uint64_t epoch,
                     bool is_restart);

  // Full journal scan, skipping a torn/corrupt tail.
  std::vector<JournalRecord> ReadAll() const;

  struct RecoveredState {
    std::uint64_t last_epoch = 0;  // 0 = journal empty
    // Trailing intent with no commit/abort: the op the previous
    // incarnation left in flight.
    std::optional<JournalRecord> incomplete;
  };
  RecoveredState Recover() const;

  const std::string& path() const { return path_; }

 private:
  os::NetworkFileSystem& fs_;
  std::string path_;
};

}  // namespace cruz::coord
