// Storage substrate shared by the netfs and per-node local disks.
//
// MemFileStore is the in-memory filesystem model behind both
// os::NetworkFileSystem and os::LocalDiskStore. It has two
// failure-domain knobs the checkpoint store exercises:
//
//  - a capacity budget: writes that would exceed it fail with -ENOSPC
//    instead of silently growing (0 = unlimited), and
//  - an availability flag: an unavailable store fails every operation
//    with -EIO, modelling a netfs outage window or an unmounted disk.
//
// Each file is a buffer of immutable shared bytes (cruz::SharedBytes):
// WriteShared stores the caller's buffer itself, so several stores (the
// tiers of one checkpoint image) can hold one buffer, and ReadShared
// hands the buffer out without a copy. AppendFile and WriteAt copy
// a file's buffer before changing it whenever anyone else holds it, so
// a mutation is never seen through another store or an earlier read.
//
// I/O cost is still charged by the caller through the per-node disk
// model (Node::DiskWriteDuration); the store is pure state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/sysresult.h"

namespace cruz::os {

// In-memory filesystem with a capacity budget and an availability flag.
class MemFileStore {
 public:
  MemFileStore() = default;
  explicit MemFileStore(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  bool Exists(const std::string& path) const {
    return available_ && files_.count(path) != 0;
  }

  // Creates or truncates. Returns the byte count written, -ENOSPC when
  // the capacity budget would be exceeded, or -EIO when unavailable.
  SysResult WriteFile(const std::string& path, cruz::Bytes content);
  // WriteFile storing `content`'s buffer itself (shared, not copied).
  // Allocate it as mutable Bytes (std::make_shared<cruz::Bytes>): once
  // this store is its only holder, AppendFile and WriteAt change it in
  // place.
  SysResult WriteShared(const std::string& path, cruz::SharedBytes content);
  // Appends, creating if missing.
  SysResult AppendFile(const std::string& path, cruz::ByteSpan content);
  // Returns -ENOENT if missing.
  SysResult ReadFile(const std::string& path, cruz::Bytes& out) const;
  // ReadFile handing out the file's buffer itself (shared, not copied).
  SysResult ReadShared(const std::string& path, cruz::SharedBytes& out) const;
  // Reads [offset, offset+n) into out; short reads at EOF. -ENOENT if
  // missing.
  SysResult ReadAt(const std::string& path, std::uint64_t offset,
                   std::size_t n, cruz::Bytes& out) const;
  // Writes at offset, extending with zeros if needed. -ENOENT if missing
  // and `create` is false.
  SysResult WriteAt(const std::string& path, std::uint64_t offset,
                    cruz::ByteSpan data, bool create);
  SysResult Remove(const std::string& path);
  SysResult FileSize(const std::string& path) const;

  std::vector<std::string> List(const std::string& prefix) const;

  std::uint64_t TotalBytes() const;

  // Capacity budget in bytes; 0 means unlimited. Applies to writes only
  // (existing content is never dropped by shrinking the budget).
  void set_capacity_bytes(std::uint64_t capacity) { capacity_ = capacity; }
  std::uint64_t capacity_bytes() const { return capacity_; }

  // An unavailable store fails every operation with -EIO (netfs outage
  // window, dead disk). Contents are preserved across the outage.
  void set_available(bool available) { available_ = available; }
  bool available() const { return available_; }

  // Drops every file: local-disk loss, or a failed node taking its
  // checkpoint cache with it.
  void Clear() { files_.clear(); }

 private:
  // Would the store exceed its budget after writing `incoming` bytes to
  // `path` (replacing whatever is there)?
  bool WouldOverflow(const std::string& path, std::uint64_t incoming) const;

  // `path`'s buffer, ready to change: copied first if anyone else holds
  // it; created empty if missing.
  cruz::Bytes& MutableFile(const std::string& path);

  std::string name_;
  // Held mutable so a buffer no one else holds changes in place; handed
  // out and shared only as const.
  std::map<std::string, std::shared_ptr<cruz::Bytes>> files_;
  std::uint64_t capacity_ = 0;
  bool available_ = true;
};

}  // namespace cruz::os
