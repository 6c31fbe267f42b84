#include "ckpt/engine.h"

#include <map>
#include <set>

#include "common/error.h"
#include "common/log.h"
#include "sim/simulator.h"

namespace cruz::ckpt {

namespace {

// Cost model for the network-stack lock hold while socket state is
// extracted: a fixed per-connection cost plus a copy cost for buffered
// bytes (kernel memory bandwidth scale).
constexpr DurationNs kPerConnectionLockCost = 10 * kMicrosecond;
constexpr std::uint64_t kSocketCopyBytesPerSec = 500 * kMiB;

std::int32_t OriginalIpcKey(os::PodId pod, std::int32_t virtualized) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(virtualized) ^
      (static_cast<std::uint32_t>(pod) << 20));
}

}  // namespace

void CheckpointEngine::StopPod(pod::PodManager& pods, os::PodId id) {
  os::Os& os = pods.node().os();
  for (os::Pid pid : os.PodProcesses(id)) {
    os.Signal(pid, os::kSigStop);
  }
}

void CheckpointEngine::ResumePod(pod::PodManager& pods, os::PodId id) {
  os::Os& os = pods.node().os();
  for (os::Pid pid : os.PodProcesses(id)) {
    os.Signal(pid, os::kSigCont);
  }
}

std::uint64_t PodSnapshot::SnapshotPages() const {
  std::uint64_t pages = 0;
  for (const ProcessMemory& m : memory_) {
    pages += m.include.has_value() ? m.include->size()
                                   : m.memory.PageCount();
  }
  return pages;
}

std::uint64_t PodSnapshot::EstimatedStateBytes() const {
  return meta_.StateBytes() + SnapshotPages() * os::kPageSize;
}

const os::MemorySnapshot::Page* PodSnapshot::FindPage(
    os::Pid vpid, std::uint64_t page_index) const {
  for (const ProcessMemory& m : memory_) {
    if (m.vpid == vpid) return m.memory.Find(page_index);
  }
  return nullptr;
}

PodCheckpoint PodSnapshot::Materialize() const {
  PodCheckpoint ck = meta_;
  for (const ProcessMemory& m : memory_) {
    for (ProcessRecord& rec : ck.processes) {
      if (rec.vpid != m.vpid) continue;
      for (const auto& [page_index, page] : m.memory.pages()) {
        if (m.include.has_value() && m.include->count(page_index) == 0) {
          continue;  // unchanged since the parent image
        }
        rec.pages.push_back(PageRecord{page_index, page});
      }
      break;
    }
  }
  return ck;
}

PodCheckpoint CheckpointEngine::CapturePod(pod::PodManager& pods,
                                           os::PodId id,
                                           CaptureStats* stats) {
  return CapturePod(pods, id, CaptureOptions{}, stats);
}

PodCheckpoint CheckpointEngine::CapturePod(pod::PodManager& pods,
                                           os::PodId id,
                                           const CaptureOptions& options,
                                           CaptureStats* stats) {
  return SnapshotPod(pods, id, options, stats).Materialize();
}

PodSnapshot CheckpointEngine::SnapshotPod(pod::PodManager& pods,
                                          os::PodId id,
                                          const CaptureOptions& options,
                                          CaptureStats* stats) {
  pod::Pod* pod = pods.Find(id);
  CRUZ_CHECK(pod != nullptr, "CapturePod: no such pod");
  os::Node& node = pods.node();
  os::Os& os = node.os();
  os::NetworkStack& stack = node.stack();

  // 1. Stop every process in the pod (paper: "Zap sends SIGSTOP signals
  //    to stop the execution of all processes in a pod").
  StopPod(pods, id);

  PodSnapshot snap;
  PodCheckpoint& ck = snap.meta_;
  ck.pod_id = pod->id;
  ck.pod_name = pod->name;
  ck.ip = pod->ip;
  ck.vif_mac = pod->vif_mac;
  ck.fake_mac = pod->fake_mac;
  ck.next_vpid = pod->next_vpid;
  ck.incremental = options.incremental;
  ck.generation = options.generation;
  ck.parent_image = options.parent_image;

  CaptureStats local_stats;

  // 2. SysV IPC objects: everything the pod's virtual-id maps reference.
  for (const auto& [virt, real] : pod->vshm_to_real) {
    os::ShmSegment* seg = os.sysv().FindShm(real);
    if (seg != nullptr) {
      ck.shm.push_back(
          ShmRecord{virt, OriginalIpcKey(id, seg->key), seg->data});
    }
  }
  for (const auto& [virt, real] : pod->vsem_to_real) {
    os::Semaphore* sem = os.sysv().FindSem(real);
    if (sem != nullptr) {
      ck.sems.push_back(
          SemRecord{virt, OriginalIpcKey(id, sem->key), sem->value});
    }
  }

  // 3. Walk processes: threads, memory, fd tables.
  std::map<const os::FileDescription*, std::uint64_t> desc_refs;
  std::map<os::PipeId, const os::Pipe*> pipes_seen;
  std::set<os::SocketId> sockets_seen;
  std::uint64_t next_desc_ref = 1;

  for (os::Pid pid : os.PodProcesses(id)) {
    os::Process* proc = os.FindProcess(pid);
    CRUZ_CHECK(proc != nullptr, "pod process vanished during capture");
    ProcessRecord rec;
    rec.vpid = pods.ToVirtualPid(id, pid);
    rec.program = proc->program_name();
    for (const os::Thread& t : proc->threads()) {
      if (t.state == os::ThreadState::kExited) continue;
      rec.threads.push_back(ThreadRecord{t.tid, t.regs});
      ++local_stats.threads;
    }
    // Memory is not copied here: the snapshot shares every page with the
    // live address space, and post-resume writes copy lazily (COW).
    PodSnapshot::ProcessMemory mem;
    mem.vpid = rec.vpid;
    mem.memory = proc->memory().Snapshot();
    if (options.incremental) {
      mem.include = proc->memory().dirty_pages();
    }
    // Every capture (full or incremental) starts the next delta window at
    // SNAPSHOT time: pages written after the pod resumes — even while the
    // background write-out is still running — belong to the next delta.
    proc->memory().ClearDirty();
    snap.memory_.push_back(std::move(mem));
    for (const auto& [fd, desc] : proc->fds()) {
      auto ref_it = desc_refs.find(desc.get());
      if (ref_it == desc_refs.end()) {
        std::uint64_t ref = next_desc_ref++;
        ref_it = desc_refs.emplace(desc.get(), ref).first;
        DescRecord d;
        d.ref = ref;
        d.kind = desc->kind;
        d.path = desc->path;
        d.offset = desc->offset;
        if (desc->pipe != nullptr) {
          d.pipe_id = desc->pipe->id();
          pipes_seen.emplace(desc->pipe->id(), desc->pipe.get());
        }
        if (desc->IsSocket()) {
          d.socket_ref = desc->socket;
          sockets_seen.insert(desc->socket);
        }
        ck.descs.push_back(std::move(d));
      }
      rec.fds.push_back(FdRecord{fd, ref_it->second});
    }
    for (const os::ShmAttachment& att : proc->shm_attachments()) {
      os::ShmSegment* seg = os.sysv().FindShm(att.shm_id);
      if (seg != nullptr) {
        rec.shm_attachments.push_back(
            ShmAttachRecord{OriginalIpcKey(id, seg->key), att.addr});
      }
    }
    ++local_stats.processes;
    ck.processes.push_back(std::move(rec));
  }

  // 4. Pipe buffers.
  for (const auto& [pipe_id, pipe] : pipes_seen) {
    ck.pipes.push_back(PipeRecord{pipe_id, pipe->SnapshotBuffer()});
    ++local_stats.pipes;
  }

  // 5. Socket state, captured under the (simulated) stack locks. The
  //    lock-hold duration is reported so the agent can charge it; it
  //    covers only the socket extraction, not the whole checkpoint.
  std::uint64_t socket_bytes = 0;
  auto capture_connection = [&](os::TcpSocketObject* sock) {
    CRUZ_CHECK(sock->conn != nullptr, "capture_connection without conn");
    ConnRecord c;
    c.socket_ref = sock->id;
    c.conn = sock->conn->ExportCheckpoint();
    // "Data from both buffers are concatenated and saved in the
    // checkpoint": alternate-buffer data first, then the receive buffer.
    if (!sock->alt_recv.empty()) {
      cruz::Bytes merged = sock->alt_recv;
      merged.insert(merged.end(), c.conn.recv_pending.begin(),
                    c.conn.recv_pending.end());
      c.conn.recv_pending = std::move(merged);
    }
    socket_bytes += c.conn.TotalBytes();
    ++local_stats.tcp_connections;
    ck.conns.push_back(std::move(c));
  };

  for (os::SocketId sid : sockets_seen) {
    if (os::TcpSocketObject* sock = stack.FindTcp(sid)) {
      switch (sock->state) {
        case os::TcpSocketObject::State::kListening: {
          ListenerRecord l;
          l.socket_ref = sid;
          l.port = sock->local.port;
          l.backlog = sock->backlog;
          for (os::SocketId child_id : sock->accept_queue) {
            l.accept_queue.push_back(child_id);
            os::TcpSocketObject* child = stack.FindTcp(child_id);
            if (child != nullptr && child->conn != nullptr) {
              capture_connection(child);
            }
          }
          ++local_stats.listeners;
          ck.listeners.push_back(std::move(l));
          break;
        }
        case os::TcpSocketObject::State::kConnecting:
        case os::TcpSocketObject::State::kConnected:
          capture_connection(sock);
          break;
        case os::TcpSocketObject::State::kFresh:
        case os::TcpSocketObject::State::kBound:
        case os::TcpSocketObject::State::kError:
          ck.fresh_sockets.push_back(FreshSocketRecord{
              sid, sock->state == os::TcpSocketObject::State::kBound,
              sock->local.port});
          break;
      }
    } else if (os::UdpSocketObject* usock = stack.FindUdp(sid)) {
      UdpRecord u;
      u.socket_ref = sid;
      u.port = usock->local.port;
      for (const auto& [src, payload] : usock->rx) {
        socket_bytes += payload.size();
        u.rx.emplace_back(src, payload);
      }
      ck.udp.push_back(std::move(u));
    }
  }

  local_stats.network_lock_hold =
      local_stats.tcp_connections * kPerConnectionLockCost +
      socket_bytes * kSecond / kSocketCopyBytesPerSec;
  local_stats.snapshot_pages = snap.SnapshotPages();
  local_stats.state_bytes = snap.EstimatedStateBytes();
  if (stats != nullptr) *stats = local_stats;

  sim::Simulator& sim = node.os().sim();
  sim.tracer().Instant(
      "ckpt", "ckpt.capture",
      obs::TraceAttrs{}
          .Agent(node.name())
          .Pod(pod->id)
          .Arg("processes", local_stats.processes)
          .Arg("threads", local_stats.threads)
          .Arg("tcp_connections", local_stats.tcp_connections)
          .Arg("pages", local_stats.snapshot_pages)
          .Arg("state_bytes", local_stats.state_bytes)
          .Arg("incremental", options.incremental ? "true" : "false"));
  sim.metrics().counter("ckpt.captures_total").Add();
  sim.metrics().counter("ckpt.captured_pages_total")
      .Add(local_stats.snapshot_pages);
  sim.metrics().counter("ckpt.captured_state_bytes_total")
      .Add(local_stats.state_bytes);

  CRUZ_INFO("ckpt") << node.name() << ": snapshotted pod " << pod->name
                    << " (" << local_stats.processes << " procs, "
                    << local_stats.tcp_connections << " conns, "
                    << local_stats.snapshot_pages << " pages, "
                    << local_stats.state_bytes << " state bytes)";
  return snap;
}

PodCheckpoint CheckpointEngine::LoadImageChain(
    TieredStore& store, os::Node* reader, const std::string& path,
    bool trace, TieredStore::ResolveResult* head, std::uint64_t* bytes_read) {
  // Walk parent links to the full base image, then overlay forward.
  std::vector<PodCheckpoint> chain;
  std::string current = path;
  std::uint64_t total = 0;
  for (;;) {
    PodCheckpoint link;
    auto decode = [&link](const cruz::Bytes& image) {
      link = PodCheckpoint::Deserialize(image);
    };
    cruz::SharedBytes image;  // the store's buffer: read, not copied
    TieredStore::ResolveResult rr;
    SysResult r = store.Resolve(reader, current, image, &rr, trace, decode);
    if (SysErrno(r) == CRUZ_EIO) {
      throw CodecError("no intact copy of checkpoint image " + current);
    }
    if (!SysOk(r)) {
      throw UsageError("checkpoint image missing: " + current);
    }
    if (head != nullptr && chain.empty()) *head = rr;
    total += image->size();
    chain.push_back(std::move(link));
    if (!chain.back().incremental) break;
    CRUZ_CHECK(!chain.back().parent_image.empty(),
               "incremental image without a parent link");
    current = chain.back().parent_image;
    CRUZ_CHECK(chain.size() < 1000, "checkpoint chain too long (cycle?)");
  }
  PodCheckpoint merged = std::move(chain.back());  // the full base
  for (auto it = std::next(chain.rbegin()); it != chain.rend(); ++it) {
    merged = it->MergeOnto(merged);
  }
  if (bytes_read != nullptr) *bytes_read = total;
  return merged;
}

os::PodId CheckpointEngine::RestorePod(pod::PodManager& pods,
                                       const PodCheckpoint& ck) {
  os::Node& node = pods.node();
  os::Os& os = node.os();
  os::NetworkStack& stack = node.stack();

  // 1. Recreate the pod with its preserved identity: same pod id, IP,
  //    VIF MAC (hardware permitting) and fake MAC.
  pod::PodCreateOptions opt;
  opt.name = ck.pod_name;
  opt.ip = ck.ip;
  opt.id = ck.pod_id;
  opt.vif_mac = ck.vif_mac;
  opt.fake_mac = ck.fake_mac;
  os::PodId id = pods.CreatePod(opt);
  pod::Pod* pod = pods.Find(id);
  pod->next_vpid = ck.next_vpid;
  // Update the subnet's view of (IP -> MAC). With a migratable MAC this
  // refreshes switch learning; in the shared-MAC scheme it is the ARP
  // update the paper describes.
  pods.AnnouncePod(id);

  // 2. SysV objects: fresh kernel ids bound behind the pod's stable
  //    virtual ids (which live on in restored process registers).
  std::map<std::int32_t, os::ShmId> shm_by_key;
  for (const ShmRecord& s : ck.shm) {
    std::int32_t vkey = static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(id) << 20) ^
        static_cast<std::uint32_t>(s.key));
    os::ShmId real = os.sysv().InstallShm(vkey, s.data);
    shm_by_key[s.key] = real;
    pods.BindShmId(id, s.virtual_id, real);
  }
  for (const SemRecord& s : ck.sems) {
    std::int32_t vkey = static_cast<std::int32_t>(
        (static_cast<std::uint32_t>(id) << 20) ^
        static_cast<std::uint32_t>(s.key));
    pods.BindSemId(id, s.virtual_id, os.sysv().InstallSem(vkey, s.value));
  }

  // 3. Pipes.
  std::map<os::PipeId, std::shared_ptr<os::Pipe>> pipes;
  for (const PipeRecord& p : ck.pipes) {
    auto pipe = std::make_shared<os::Pipe>(p.id);
    pipe->RestoreBuffer(p.buffer);
    pipes[p.id] = std::move(pipe);
  }

  // 4. Sockets: connections first (the §4.1 replay fires inside), then
  //    listeners (re-attaching pending accept-queue children), then UDP.
  std::map<std::uint64_t, os::SocketId> sock_map;
  for (const ConnRecord& c : ck.conns) {
    sock_map[c.socket_ref] =
        stack.RestoreTcpFromCheckpoint(c.conn, c.conn.recv_pending);
  }
  for (const ListenerRecord& l : ck.listeners) {
    os::SocketId sid = stack.InstallRestoredListener(
        net::Endpoint{ck.ip, l.port}, l.backlog);
    sock_map[l.socket_ref] = sid;
    os::TcpSocketObject* listener = stack.FindTcp(sid);
    for (std::uint64_t child_ref : l.accept_queue) {
      auto it = sock_map.find(child_ref);
      if (it != sock_map.end()) {
        listener->accept_queue.push_back(it->second);
      }
    }
  }
  for (const UdpRecord& u : ck.udp) {
    os::SocketId sid = stack.CreateUdpSocket();
    stack.UdpBind(sid, net::Endpoint{ck.ip, u.port});
    os::UdpSocketObject* usock = stack.FindUdp(sid);
    for (const auto& [src, payload] : u.rx) {
      usock->rx.emplace_back(src, payload);
    }
    sock_map[u.socket_ref] = sid;
  }
  for (const FreshSocketRecord& f : ck.fresh_sockets) {
    os::SocketId sid = stack.CreateTcpSocket();
    if (f.bound) {
      stack.TcpBind(sid, net::Endpoint{ck.ip, f.port});
    }
    sock_map[f.socket_ref] = sid;
  }

  // 5. Open file descriptions (shared across dup'ed fds).
  std::map<std::uint64_t, std::shared_ptr<os::FileDescription>> descs;
  for (const DescRecord& d : ck.descs) {
    auto desc = std::make_shared<os::FileDescription>();
    desc->kind = d.kind;
    desc->path = d.path;
    desc->offset = d.offset;
    if (d.kind == os::FileDescription::Kind::kPipeRead ||
        d.kind == os::FileDescription::Kind::kPipeWrite) {
      auto it = pipes.find(d.pipe_id);
      CRUZ_CHECK(it != pipes.end(), "restore: dangling pipe reference");
      desc->pipe = it->second;
    }
    if (desc->IsSocket()) {
      auto it = sock_map.find(d.socket_ref);
      CRUZ_CHECK(it != sock_map.end(), "restore: dangling socket reference");
      desc->socket = it->second;
    }
    descs[d.ref] = std::move(desc);
  }

  // 6. Processes: fresh real pids, stable virtual pids, memory + registers
  //    restored, fds re-attached. Installed SIGSTOPped.
  for (const ProcessRecord& p : ck.processes) {
    os::Pid pid = os.AllocatePid();
    auto proc = std::make_unique<os::Process>(pid, p.program);
    proc->set_pod(id);
    proc->set_program(os::ProgramRegistry::Instance().Create(p.program));
    proc->set_state(os::ProcessState::kStopped);
    for (const ThreadRecord& t : p.threads) {
      proc->InstallThread(t.tid, t.regs);
    }
    // The image's page handles become the process's pages: nothing is
    // copied, and a write while `ck` still holds a page copies it first.
    for (const PageRecord& page : p.pages) {
      proc->memory().AdoptPage(page.page_index, page.content);
    }
    for (const FdRecord& f : p.fds) {
      auto it = descs.find(f.desc_ref);
      CRUZ_CHECK(it != descs.end(), "restore: dangling desc reference");
      proc->InstallFd(f.fd, it->second);
      if (it->second->kind == os::FileDescription::Kind::kPipeRead) {
        it->second->pipe->AddReader();
      } else if (it->second->kind ==
                 os::FileDescription::Kind::kPipeWrite) {
        it->second->pipe->AddWriter();
      }
    }
    for (const ShmAttachRecord& a : p.shm_attachments) {
      auto it = shm_by_key.find(a.key);
      if (it != shm_by_key.end()) {
        os::ShmSegment* seg = os.sysv().FindShm(it->second);
        if (seg != nullptr) ++seg->attach_count;
        proc->shm_attachments().push_back(
            os::ShmAttachment{it->second, a.addr});
      }
    }
    os.InstallProcess(std::move(proc));
    pods.BindVirtualPid(id, p.vpid, pid);
    // Threads become runnable but are not scheduled until SIGCONT.
    os.StartProcessThreads(pid);
  }

  sim::Simulator& sim = node.os().sim();
  sim.tracer().Instant("ckpt", "ckpt.restore",
                       obs::TraceAttrs{}
                           .Agent(node.name())
                           .Pod(ck.pod_id)
                           .Arg("processes", ck.processes.size())
                           .Arg("tcp_connections", ck.conns.size())
                           .Arg("listeners", ck.listeners.size())
                           .Arg("generation", ck.generation));
  sim.metrics().counter("ckpt.restores_total").Add();

  CRUZ_INFO("ckpt") << node.name() << ": restored pod " << ck.pod_name
                    << " (" << ck.processes.size() << " procs, "
                    << ck.conns.size() << " conns)";
  return id;
}

}  // namespace cruz::ckpt
