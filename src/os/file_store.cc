#include "os/file_store.h"

#include <algorithm>

namespace cruz::os {

bool MemFileStore::WouldOverflow(const std::string& path,
                                 std::uint64_t incoming) const {
  if (capacity_ == 0) return false;
  std::uint64_t used = TotalBytes();
  auto it = files_.find(path);
  if (it != files_.end()) used -= it->second->size();
  return used + incoming > capacity_;
}

cruz::Bytes& MemFileStore::MutableFile(const std::string& path) {
  std::shared_ptr<cruz::Bytes>& f = files_[path];
  if (f == nullptr) {
    f = std::make_shared<cruz::Bytes>();
  } else if (f.use_count() > 1) {
    f = std::make_shared<cruz::Bytes>(*f);
  }
  return *f;
}

SysResult MemFileStore::WriteFile(const std::string& path,
                                  cruz::Bytes content) {
  return WriteShared(path, std::make_shared<cruz::Bytes>(std::move(content)));
}

SysResult MemFileStore::WriteShared(const std::string& path,
                                    cruz::SharedBytes content) {
  if (!available_) return SysErr(CRUZ_EIO);
  if (WouldOverflow(path, content->size())) return SysErr(CRUZ_ENOSPC);
  SysResult n = static_cast<SysResult>(content->size());
  // Buffers are allocated mutable (see the header), so a sole holder may
  // change this one in place later.
  files_[path] = std::const_pointer_cast<cruz::Bytes>(std::move(content));
  return n;
}

SysResult MemFileStore::AppendFile(const std::string& path,
                                   cruz::ByteSpan content) {
  if (!available_) return SysErr(CRUZ_EIO);
  auto it = files_.find(path);
  std::uint64_t grown =
      (it != files_.end() ? it->second->size() : 0) + content.size();
  if (WouldOverflow(path, grown)) return SysErr(CRUZ_ENOSPC);
  cruz::Bytes& f = MutableFile(path);
  f.insert(f.end(), content.begin(), content.end());
  return static_cast<SysResult>(content.size());
}

SysResult MemFileStore::ReadFile(const std::string& path,
                                 cruz::Bytes& out) const {
  if (!available_) return SysErr(CRUZ_EIO);
  auto it = files_.find(path);
  if (it == files_.end()) return SysErr(CRUZ_ENOENT);
  out = *it->second;
  return static_cast<SysResult>(out.size());
}

SysResult MemFileStore::ReadShared(const std::string& path,
                                   cruz::SharedBytes& out) const {
  if (!available_) return SysErr(CRUZ_EIO);
  auto it = files_.find(path);
  if (it == files_.end()) return SysErr(CRUZ_ENOENT);
  out = it->second;
  return static_cast<SysResult>(out->size());
}

SysResult MemFileStore::ReadAt(const std::string& path, std::uint64_t offset,
                               std::size_t n, cruz::Bytes& out) const {
  if (!available_) return SysErr(CRUZ_EIO);
  auto it = files_.find(path);
  if (it == files_.end()) return SysErr(CRUZ_ENOENT);
  const cruz::Bytes& f = *it->second;
  if (offset >= f.size()) return 0;
  std::size_t take = std::min<std::uint64_t>(n, f.size() - offset);
  out.insert(out.end(), f.begin() + static_cast<std::ptrdiff_t>(offset),
             f.begin() + static_cast<std::ptrdiff_t>(offset + take));
  return static_cast<SysResult>(take);
}

SysResult MemFileStore::WriteAt(const std::string& path, std::uint64_t offset,
                                cruz::ByteSpan data, bool create) {
  if (!available_) return SysErr(CRUZ_EIO);
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!create) return SysErr(CRUZ_ENOENT);
    if (WouldOverflow(path, offset + data.size())) return SysErr(CRUZ_ENOSPC);
  } else if (offset + data.size() > it->second->size() &&
             WouldOverflow(path, offset + data.size())) {
    return SysErr(CRUZ_ENOSPC);
  }
  cruz::Bytes& f = MutableFile(path);
  if (offset + data.size() > f.size()) {
    f.resize(offset + data.size(), 0);
  }
  std::copy(data.begin(), data.end(),
            f.begin() + static_cast<std::ptrdiff_t>(offset));
  return static_cast<SysResult>(data.size());
}

SysResult MemFileStore::Remove(const std::string& path) {
  if (!available_) return SysErr(CRUZ_EIO);
  return files_.erase(path) != 0 ? 0 : SysErr(CRUZ_ENOENT);
}

SysResult MemFileStore::FileSize(const std::string& path) const {
  if (!available_) return SysErr(CRUZ_EIO);
  auto it = files_.find(path);
  if (it == files_.end()) return SysErr(CRUZ_ENOENT);
  return static_cast<SysResult>(it->second->size());
}

std::vector<std::string> MemFileStore::List(const std::string& prefix) const {
  std::vector<std::string> out;
  if (!available_) return out;
  for (const auto& [path, content] : files_) {
    if (path.rfind(prefix, 0) == 0) out.push_back(path);
  }
  return out;
}

std::uint64_t MemFileStore::TotalBytes() const {
  std::uint64_t n = 0;
  for (const auto& [path, content] : files_) n += content->size();
  return n;
}

}  // namespace cruz::os
