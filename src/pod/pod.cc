#include "pod/pod.h"

#include "common/error.h"
#include "common/log.h"

namespace cruz::pod {

PodManager::PodManager(os::Node& node) : node_(node) {
  node_.os().set_interposer(this);
  // Pod ids are allocated from a per-node range so they stay globally
  // unique across the cluster: a pod restored on another machine keeps
  // its id (which also namespaces its SysV IPC keys).
  next_pod_id_ = node.index() * 1000 + 1;
}

PodManager::~PodManager() {
  if (node_.os().interposer() == this) {
    node_.os().set_interposer(nullptr);
  }
}

os::PodId PodManager::CreatePod(const PodCreateOptions& options) {
  os::PodId id = options.id != os::kNoPod ? options.id : next_pod_id_++;
  if (id >= next_pod_id_) next_pod_id_ = id + 1;
  CRUZ_CHECK(pods_.count(id) == 0, "pod id already in use");

  Pod pod;
  pod.id = id;
  pod.name = options.name.empty() ? ("pod" + std::to_string(id))
                                  : options.name;
  pod.ip = options.ip;
  pod.netmask = node_.config().netmask;
  pod.vif_name = "pod" + std::to_string(id);

  // MAC strategy (paper §4.2): a VIF gets its own network-visible MAC if
  // the hardware can filter multiple unicast addresses; otherwise it
  // shares the physical MAC and relies on gratuitous ARP at migration.
  pod.own_mac = node_.nic().supports_multiple_macs();
  if (pod.own_mac) {
    // Derived from the globally-unique pod id, so VIF MACs never collide
    // across nodes and survive migration unchanged.
    pod.vif_mac = options.vif_mac.IsZero()
                      ? net::MacAddress::FromId(0x20000000u + id)
                      : options.vif_mac;
  } else {
    pod.vif_mac = node_.nic().primary_mac();
  }
  // The fake MAC is the pod's stable virtual hardware identity; it never
  // changes across migration (DHCP lease key).
  pod.fake_mac = options.fake_mac.IsZero()
                     ? net::MacAddress::FromId(0xFA000000u + id)
                     : options.fake_mac;

  node_.stack().AddInterface(pod.vif_name, pod.vif_mac, pod.ip, pod.netmask,
                             /*is_virtual=*/true);
  CRUZ_INFO("pod") << node_.name() << ": created pod " << pod.name << " ("
                   << pod.ip.ToString() << ", vif mac "
                   << pod.vif_mac.ToString() << ")";
  pods_.emplace(id, std::move(pod));
  return id;
}

void PodManager::DestroyPod(os::PodId id) {
  Pod* pod = Find(id);
  if (pod == nullptr) return;
  // Tear down silently: the VIF is deleted at the original host before
  // the processes die (paper §4.2), and a transient drop rule swallows
  // any RST/FIN the socket teardown would otherwise emit — the migrated
  // incarnation owns these connections now.
  net::Ipv4Address pod_ip = pod->ip;
  std::uint64_t filter = node_.stack().AddFilter(
      [pod_ip](const net::Ipv4Header& pkt) {
        return pkt.src == pod_ip || pkt.dst == pod_ip;
      });
  node_.stack().RemoveInterface(pod->vif_name);
  for (os::Pid pid : node_.os().PodProcesses(id)) {
    node_.os().DestroyProcess(pid, 128 + os::kSigKill);
  }
  node_.stack().PurgeSocketsForIp(pod_ip);
  node_.stack().RemoveFilter(filter);
  pods_.erase(id);
}

void PodManager::RemoveVif(os::PodId id) {
  Pod* pod = Find(id);
  if (pod == nullptr) return;
  node_.stack().RemoveInterface(pod->vif_name);
}

Pod* PodManager::Find(os::PodId id) {
  auto it = pods_.find(id);
  return it == pods_.end() ? nullptr : &it->second;
}

os::Pid PodManager::SpawnInPod(os::PodId id, const std::string& program,
                               cruz::ByteSpan args) {
  Pod* pod = Find(id);
  CRUZ_CHECK(pod != nullptr, "SpawnInPod: no such pod");
  os::Pid real = node_.os().Spawn(program, args, id);
  return ToVirtualPid(id, real);
}

void PodManager::BindVirtualPid(os::PodId id, os::Pid vpid, os::Pid real) {
  Pod* pod = Find(id);
  CRUZ_CHECK(pod != nullptr, "BindVirtualPid: no such pod");
  // OnProcessCreated may already have auto-assigned a vpid; rebind.
  auto it = pod->real_to_vpid.find(real);
  if (it != pod->real_to_vpid.end()) {
    pod->vpid_to_real.erase(it->second);
    pod->real_to_vpid.erase(it);
  }
  pod->vpid_to_real[vpid] = real;
  pod->real_to_vpid[real] = vpid;
  if (vpid >= pod->next_vpid) pod->next_vpid = vpid + 1;
}

void PodManager::AnnouncePod(os::PodId id) {
  Pod* pod = Find(id);
  if (pod == nullptr) return;
  node_.stack().AnnounceAddress(pod->ip, pod->vif_mac);
}

// ---------------------------------------------------------------------------
// SyscallInterposer
// ---------------------------------------------------------------------------

void PodManager::OnProcessCreated(os::PodId id, os::Pid real) {
  Pod* pod = Find(id);
  if (pod == nullptr) return;
  os::Pid vpid = pod->next_vpid++;
  pod->vpid_to_real[vpid] = real;
  pod->real_to_vpid[real] = vpid;
}

void PodManager::OnProcessExited(os::PodId id, os::Pid real) {
  Pod* pod = Find(id);
  if (pod == nullptr) return;
  auto it = pod->real_to_vpid.find(real);
  if (it != pod->real_to_vpid.end()) {
    pod->vpid_to_real.erase(it->second);
    pod->real_to_vpid.erase(it);
  }
}

os::Pid PodManager::ToVirtualPid(os::PodId id, os::Pid real) {
  Pod* pod = Find(id);
  if (pod == nullptr) return os::kNoPid;
  auto it = pod->real_to_vpid.find(real);
  return it == pod->real_to_vpid.end() ? os::kNoPid : it->second;
}

os::Pid PodManager::ToRealPid(os::PodId id, os::Pid virt) {
  Pod* pod = Find(id);
  if (pod == nullptr) return os::kNoPid;
  auto it = pod->vpid_to_real.find(virt);
  return it == pod->vpid_to_real.end() ? os::kNoPid : it->second;
}

net::Ipv4Address PodManager::PodAddress(os::PodId id) {
  Pod* pod = Find(id);
  return pod == nullptr ? net::kAnyAddress : pod->ip;
}

std::optional<net::MacAddress> PodManager::FakeMac(os::PodId id) {
  Pod* pod = Find(id);
  if (pod == nullptr) return std::nullopt;
  return pod->fake_mac;
}

std::int32_t PodManager::VirtualizeIpcKey(os::PodId id, std::int32_t key) {
  // Pod-private key space: fold the pod id into the key's high bits.
  return static_cast<std::int32_t>((static_cast<std::uint32_t>(id) << 20) ^
                                   static_cast<std::uint32_t>(key));
}

os::ShmId PodManager::ShmIdToVirtual(os::PodId id, os::ShmId real) {
  Pod* pod = Find(id);
  if (pod == nullptr) return real;
  auto it = pod->real_to_vshm.find(real);
  if (it != pod->real_to_vshm.end()) return it->second;
  os::ShmId virt = pod->next_vshm++;
  pod->vshm_to_real[virt] = real;
  pod->real_to_vshm[real] = virt;
  return virt;
}

os::ShmId PodManager::ShmIdToReal(os::PodId id, os::ShmId virt) {
  Pod* pod = Find(id);
  if (pod == nullptr) return virt;
  auto it = pod->vshm_to_real.find(virt);
  return it == pod->vshm_to_real.end() ? -1 : it->second;
}

os::SemId PodManager::SemIdToVirtual(os::PodId id, os::SemId real) {
  Pod* pod = Find(id);
  if (pod == nullptr) return real;
  auto it = pod->real_to_vsem.find(real);
  if (it != pod->real_to_vsem.end()) return it->second;
  os::SemId virt = pod->next_vsem++;
  pod->vsem_to_real[virt] = real;
  pod->real_to_vsem[real] = virt;
  return virt;
}

os::SemId PodManager::SemIdToReal(os::PodId id, os::SemId virt) {
  Pod* pod = Find(id);
  if (pod == nullptr) return virt;
  auto it = pod->vsem_to_real.find(virt);
  return it == pod->vsem_to_real.end() ? -1 : it->second;
}

void PodManager::BindShmId(os::PodId id, os::ShmId virt, os::ShmId real) {
  Pod* pod = Find(id);
  CRUZ_CHECK(pod != nullptr, "BindShmId: no such pod");
  pod->vshm_to_real[virt] = real;
  pod->real_to_vshm[real] = virt;
  if (virt >= pod->next_vshm) pod->next_vshm = virt + 1;
}

void PodManager::BindSemId(os::PodId id, os::SemId virt, os::SemId real) {
  Pod* pod = Find(id);
  CRUZ_CHECK(pod != nullptr, "BindSemId: no such pod");
  pod->vsem_to_real[virt] = real;
  pod->real_to_vsem[real] = virt;
  if (virt >= pod->next_vsem) pod->next_vsem = virt + 1;
}

}  // namespace cruz::pod
