#include "apps/minimsg.h"

#include <algorithm>

namespace cruz::apps {

namespace {
constexpr std::size_t kIoChunk = 8192;
}

IoStatus SendAll(os::ProcessCtx& ctx, os::Fd fd, std::uint64_t addr,
                 std::uint64_t len, std::uint64_t& progress) {
  while (progress < len) {
    std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(kIoChunk,
                                                         len - progress));
    SysResult n = ctx.SendTcpFrom(fd, addr + progress, chunk);
    if (SysErrno(n) == CRUZ_EAGAIN) {
      ctx.BlockOnWritable(fd);
      return IoStatus::kBlocked;
    }
    if (n < 0) return IoStatus::kError;
    progress += static_cast<std::uint64_t>(n);
  }
  return IoStatus::kDone;
}

IoStatus RecvAll(os::ProcessCtx& ctx, os::Fd fd, std::uint64_t addr,
                 std::uint64_t len, std::uint64_t& progress) {
  while (progress < len) {
    std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kIoChunk,
                                                         len - progress));
    SysResult n = ctx.RecvTcpInto(fd, addr + progress, want);
    if (SysErrno(n) == CRUZ_EAGAIN) {
      ctx.BlockOnReadable(fd);
      return IoStatus::kBlocked;
    }
    if (n == 0) return IoStatus::kEof;
    if (n < 0) return IoStatus::kError;
    progress += static_cast<std::uint64_t>(n);
  }
  return IoStatus::kDone;
}

IoStatus ConnectTo(os::ProcessCtx& ctx, os::Fd fd, net::Endpoint remote) {
  SysResult r = ctx.Connect(fd, remote);
  if (r == 0) return IoStatus::kDone;
  Errno e = SysErrno(r);
  if (e == CRUZ_EINPROGRESS || e == CRUZ_EALREADY) {
    ctx.BlockOnWritable(fd);
    return IoStatus::kBlocked;
  }
  return IoStatus::kError;
}

IoStatus AcceptOne(os::ProcessCtx& ctx, os::Fd listen_fd, os::Fd* out_fd) {
  SysResult r = ctx.Accept(listen_fd);
  if (SysErrno(r) == CRUZ_EAGAIN) {
    ctx.BlockOnReadable(listen_fd);
    return IoStatus::kBlocked;
  }
  if (r < 0) return IoStatus::kError;
  *out_fd = static_cast<os::Fd>(r);
  return IoStatus::kDone;
}

}  // namespace cruz::apps
