#include "workloads.h"

#include <algorithm>

#include "apps/kvstore.h"
#include "apps/programs.h"
#include "apps/slm.h"
#include "ckpt/generation.h"
#include "coord/message.h"
#include "load/loadgen.h"

namespace cruzbench {
namespace {

using namespace cruz;

// Inputs are drawn from the seed through this mixer (SplitMix64), so one
// seed always yields the same inputs.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Fills a page with a repeating 8-byte pattern drawn from `h`.
void FillPage(Bytes& page, std::uint64_t h) {
  for (std::size_t b = 0; b < page.size(); ++b) {
    page[b] = static_cast<std::uint8_t>(h >> (8 * (b % 8)));
  }
}

os::Process* PodProcess(Cluster& c, std::size_t node, os::PodId pod,
                        os::Pid vpid) {
  return c.node(node).os().FindProcess(c.pods(node).ToRealPid(pod, vpid));
}

// ---------------------------------------------------------------------------
// slm_ckpt: the paper's §6 application. Four slm ranks (one per node),
// each a ~512x512 grid of doubles. A cycle computes for 2 sim-s, takes a
// paper-protocol checkpoint (stop-the-world, Fig. 4 optimized, v2
// compressed images, tiered generation), destroys the pods and restarts
// them from that generation. The seed draws the grid height (504..520
// rows), i.e. the state size.
class SlmCkpt final : public Workload {
 public:
  using Workload::Workload;

  void Construct() override {
    apps::RegisterSlmProgram();
    ClusterConfig config;
    config.seed = seed_;
    config.num_nodes = kRanks;
    cluster_ = std::make_unique<Cluster>(config);
  }

  void Populate() override {
    Cluster& c = *cluster_;
    base_.nranks = kRanks;
    base_.rows = 504 + static_cast<std::uint32_t>(Mix(seed_) % 17);
    base_.cols = 512;
    base_.iterations = 1u << 31;  // never finishes within a run
    base_.exit_when_done = false;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      pods_.push_back(c.CreatePod(r, "slm" + std::to_string(r)));
      base_.peers.push_back(c.pods(r).Find(pods_.back())->ip);
      members_.push_back(c.MemberFor(r, pods_.back()));
    }
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      apps::SlmConfig cfg = base_;
      cfg.rank = r;
      vpids_.push_back(
          c.pods(r).SpawnInPod(pods_[r], "cruz.slm_rank", apps::SlmArgs(cfg)));
    }
  }

  void WarmUp() override { cluster_->sim().RunFor(kSecond); }

  void Cycle(SpanLog& spans, bool record, Tally& tally) override {
    Cluster& c = *cluster_;
    std::uint64_t before = Iterations();
    {
      auto s = spans.Open("sim.run");
      c.sim().RunFor(kCompute);
    }
    last_iterations_ = Iterations() - before;

    coord::Coordinator::Options options;
    options.variant = coord::ProtocolVariant::kOptimized;
    options.compress = true;
    options.tiered = true;
    Cluster::GenerationOpResult ck;
    {
      auto s = spans.Open("coord.checkpoint");
      ck = c.RunGenerationCheckpoint(members_, options);
    }
    tally.Op(ck.stats.success && ck.generation != 0,
             "slm checkpoint: " + ck.stats.abort_reason);
    {
      auto s = spans.Open("pod.destroy");
      for (std::uint32_t r = 0; r < kRanks; ++r) c.pods(r).DestroyPod(pods_[r]);
    }
    Cluster::GenerationOpResult rs;
    {
      auto s = spans.Open("coord.restart");
      rs = c.RunGenerationRestart(members_, options);
    }
    tally.Op(rs.stats.success && !rs.fell_back &&
                 rs.generation == ck.generation,
             "slm restart: " + rs.stats.abort_reason);
    if (previous_gen_ != 0) {
      // Retention: only the newest generation is kept.
      auto s = spans.Open("ckpt.store.discard");
      ckpt::GenerationStore store(c.fs());
      store.set_tiered(&c.tiered());
      store.Discard(previous_gen_);
    }
    previous_gen_ = ck.generation;
    if (!ck.stats.image_paths.empty()) image_ = ck.stats.image_paths[0];

    if (record) {
      window.checkpoints.push_back(ck.stats);
      window.restarts.push_back(rs.stats);
      window.slm_iterations += last_iterations_;
      window.slm_compute += kCompute;
    }
  }

  void Check(Tally& tally) override {
    Cluster& c = *cluster_;
    // Every restart must resume the exact computation: each rank's
    // progress witness equals the reference model at its iteration.
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      os::Process* proc = PodProcess(c, r, pods_[r], vpids_[r]);
      bool ok = proc != nullptr;
      if (ok) {
        apps::SlmStatus st = apps::ReadSlmStatus(*proc);
        apps::SlmConfig cfg = base_;
        cfg.rank = r;
        ok = st.iterations > 0 &&
             st.edge_checksum ==
                 apps::SlmReferenceChecksum(
                     cfg, static_cast<std::uint32_t>(st.iterations));
      }
      tally.Op(ok, "slm rank " + std::to_string(r) + " checksum");
    }
  }

  std::uint32_t window_cycles() const override { return 3; }

  os::Process* ProbeProcess() override {
    return PodProcess(*cluster_, 0, pods_[0], vpids_[0]);
  }
  bool ProbeImage(Bytes& out) override {
    return !image_.empty() &&
           SysOk(cluster_->tiered().Resolve(nullptr, image_, out, nullptr,
                                            /*trace=*/false));
  }
  bool compress() const override { return true; }

 private:
  static constexpr std::uint32_t kRanks = 4;
  static constexpr DurationNs kCompute = 2 * kSecond;

  std::uint64_t Iterations() {
    std::uint64_t total = 0;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      os::Process* proc = PodProcess(*cluster_, r, pods_[r], vpids_[r]);
      if (proc != nullptr) total += apps::ReadSlmStatus(*proc).iterations;
    }
    return total;
  }

  apps::SlmConfig base_;
  std::vector<os::PodId> pods_;
  std::vector<os::Pid> vpids_;
  std::vector<coord::Coordinator::Member> members_;
  std::uint64_t previous_gen_ = 0;
  std::string image_;
};

// ---------------------------------------------------------------------------
// kv_slo: a service under open-loop load. A threaded kv server pod with
// an ~8 MiB ballast lives on node 0 or 1; node 2 runs one LoadGen of ~128
// connections at 8000 req/s aggregate for the whole run. A cycle is
// 1.024 sim-s of that load (8192 requests) which meets one copy-on-write
// checkpoint of the server pod and then one pre-copy migration to the
// other node. The seed draws the connection count (126..130; each open
// connection adds to the checkpoint's downtime), the ballast size
// (2048..2111 pages) and the checkpoint's phase within the schedule.
class KvSlo final : public Workload {
 public:
  using Workload::Workload;

  void Construct() override {
    apps::RegisterKvPrograms();
    load::RegisterLoadPrograms();
    ClusterConfig config;
    config.seed = seed_;
    config.num_nodes = 3;
    cluster_ = std::make_unique<Cluster>(config);
  }

  void Populate() override {
    Cluster& c = *cluster_;
    pod_ = c.CreatePod(0, "kv");
    ip_ = c.pods(0).Find(pod_)->ip;
    vpid_ = c.pods(0).SpawnInPod(pod_, "cruz.kv_server",
                                 apps::KvServerArgs(kPort, true));
    os::Process* server = PodProcess(c, 0, pod_, vpid_);
    ballast_pages_ = 2048 + Mix(seed_) % 64;
    Bytes page(os::kPageSize);
    for (std::uint64_t i = 0; i < ballast_pages_; ++i) {
      FillPage(page, Mix(seed_ ^ Mix(i)));
      server->memory().InstallPage(kBallastBase + i, page);
    }
  }

  void WarmUp() override {
    // One load generator for the whole run: its connections own fixed
    // key ranges, so a second generator would find keys it never wrote.
    // The schedule outlasts any run; the checks compare completions with
    // the schedule instead of waiting for the last request.
    Cluster& c = *cluster_;
    load_.server_ip = ip_;
    load_.port = kPort;
    load_.connections = 126 + static_cast<std::uint32_t>(Mix(~seed_) % 5);
    load_.interarrival = load_.connections * kSecond / kRequestsPerSecond;
    load_.requests_per_conn = 1u << 20;
    load_.base = c.sim().Now() + 20 * kMillisecond;
    load_.keys_per_conn = 2;
    load_.seed = Mix(seed_);
    lg_ = std::make_unique<load::LoadGen>(c.node(2).os(), load_);
    lg_->Start();
    cycle_start_ = load_.base;
  }

  void Cycle(SpanLog& spans, bool record, Tally& tally) override {
    Cluster& c = *cluster_;
    const TimeNs start = cycle_start_;
    ++cycles_;
    {
      auto s = spans.Open("sim.run");
      c.sim().RunUntil(start + kCycle / 4 +
                       Mix(seed_ + cycles_) % load_.interarrival);
    }

    coord::Coordinator::Options options;
    options.copy_on_write = true;
    options.variant = coord::ProtocolVariant::kOptimized;
    options.image_prefix = kImagePrefix;
    coord::Coordinator::OpStats ck;
    {
      auto s = spans.Open("coord.checkpoint");
      ck = c.RunCheckpoint({c.MemberFor(node_, pod_)}, options);
    }
    os::Process* server = PodProcess(c, node_, pod_, vpid_);
    std::uint64_t cow_faults = 0;
    if (server != nullptr) {
      cow_faults = server->memory().cow_faults();
      server->memory().ResetCowFaults();
    }
    SysResult image_size =
        c.fs().FileSize(coord::Coordinator::ImagePath(kImagePrefix, pod_));
    tally.Op(ck.success && SysOk(image_size) &&
                 static_cast<std::uint64_t>(image_size) >
                     ballast_pages_ * os::kPageSize,
             "kv checkpoint: " + ck.abort_reason);

    {
      auto s = spans.Open("sim.run");
      if (c.sim().Now() < start + kCycle / 2) c.sim().RunUntil(start + kCycle / 2);
    }
    const std::size_t target = 1 - node_;
    ckpt::LiveMigrateStats ms;
    bool migrated = false;
    {
      auto s = spans.Open("migrate");
      ckpt::LiveMigrator::MigrateWithMode(
          c.pods(node_), c.pods(target), pod_, ckpt::MigrateMode::kPreCopy,
          ckpt::LiveMigrateOptions{},
          [&](const ckpt::LiveMigrateStats& st) {
            ms = st;
            migrated = true;
          });
      c.sim().RunWhile([&] { return migrated; }, c.sim().Now() + 60 * kSecond);
    }
    // Page accounting: round 1 copies every page, the rounds add up to
    // the pre-copy total, and the pod lives only on the target.
    std::uint64_t round_bytes = 0;
    for (const ckpt::MigrateRound& r : ms.round_breakdown) {
      round_bytes += r.dirty_bytes;
    }
    tally.Op(migrated && ms.rounds >= 1 && round_bytes == ms.precopy_bytes &&
                 !ms.round_breakdown.empty() &&
                 ms.round_breakdown[0].dirty_bytes >=
                     ballast_pages_ * os::kPageSize &&
                 ms.downtime > 0 && c.pods(target).Find(pod_) != nullptr &&
                 c.pods(node_).Find(pod_) == nullptr,
             "kv pre-copy migration");
    if (migrated) node_ = target;

    {
      auto s = spans.Open("sim.run");
      if (c.sim().Now() < start + kCycle) c.sim().RunUntil(start + kCycle);
    }
    cycle_start_ = std::max(start + kCycle, c.sim().Now());
    horizon_ = start;

    if (record) {
      window.checkpoints.push_back(ck);
      window.migrations.push_back(ms);
      window.cow_faults += cow_faults;
      // Client latency covers every request completed so far: the
      // warm-up cycle plus the window cycles.
      window.latency = lg_->recorder().total();
      window.load_completed = lg_->completed();
      window.load_expected = Due(c.sim().Now());
      window.load_late = lg_->recorder().late_samples();
    }
  }

  // Every request due before the last cycle began (at least one cycle,
  // 1.024 sim-s, ago) has completed, and none failed verification. Each
  // request is judged once, in the check where it first falls due.
  void Check(Tally& tally) override {
    os::Os& client = cluster_->node(2).os();
    std::uint64_t overdue = 0, failures = 0;
    for (std::size_t conn = 0; conn < lg_->pids().size(); ++conn) {
      os::Process* proc = client.FindProcess(lg_->pids()[conn]);
      load::LoadConnStatus st;
      if (proc != nullptr) st = load::ReadLoadConnStatus(*proc);
      const std::uint64_t due = DueOn(conn, horizon_);
      const std::uint64_t newly_due = due - DueOn(conn, checked_horizon_);
      const std::uint64_t missing =
          due > st.requests_done ? due - st.requests_done : 0;
      overdue += std::min(missing, newly_due);
      failures += st.verification_failures;
    }
    tally.Ops(Due(horizon_) - Due(checked_horizon_),
              overdue + (failures - checked_failures_),
              "kv requests: " + std::to_string(overdue) + " overdue, " +
                  std::to_string(failures - checked_failures_) +
                  " verification failures");
    checked_horizon_ = horizon_;
    checked_failures_ = failures;
    window.load_failures = failures;
  }

  std::uint32_t window_cycles() const override { return 3; }

  os::Process* ProbeProcess() override {
    return PodProcess(*cluster_, node_, pod_, vpid_);
  }
  bool ProbeImage(Bytes& out) override {
    return SysOk(cluster_->fs().ReadFile(
        coord::Coordinator::ImagePath(kImagePrefix, pod_), out));
  }
  bool compress() const override { return false; }

 private:
  static constexpr std::uint16_t kPort = 5432;
  static constexpr std::uint64_t kRequestsPerSecond = 8000;
  static constexpr DurationNs kCycle = 1024 * kMillisecond;
  static constexpr std::uint64_t kBallastBase = 0x4000;
  static constexpr const char* kImagePrefix = "/ckpt/kv";

  // Requests of connection `conn` intended at or before `t` (LoadGen
  // spreads connection phases evenly over one interarrival).
  std::uint64_t DueOn(std::size_t conn, TimeNs t) const {
    TimeNs first = load_.base + load_.interarrival * conn / load_.connections;
    return t < first ? 0 : (t - first) / load_.interarrival + 1;
  }
  std::uint64_t Due(TimeNs t) const {
    std::uint64_t total = 0;
    for (std::size_t conn = 0; conn < load_.connections; ++conn) {
      total += DueOn(conn, t);
    }
    return total;
  }

  os::PodId pod_ = os::kNoPod;
  net::Ipv4Address ip_;
  os::Pid vpid_ = 0;
  std::size_t node_ = 0;
  std::uint64_t ballast_pages_ = 0;
  load::LoadGenOptions load_;
  std::unique_ptr<load::LoadGen> lg_;
  TimeNs cycle_start_ = 0;
  TimeNs horizon_ = 0;
  std::uint64_t cycles_ = 0;
  TimeNs checked_horizon_ = 0;
  std::uint64_t checked_failures_ = 0;
};

// ---------------------------------------------------------------------------
// coord_scale: the hierarchical coordinator at scale. 512 nodes, each
// with one pod idle in accept (cruz.echo_server), fan-out 32. A cycle is
// one coordinated checkpoint and one coordinated restart of every pod.
// Every pod has a 4-page heap; the seed picks one straggler pod and
// draws its extra heap (44..48 pages), whose local save then sets the
// checkpoint latency.
class CoordScale final : public Workload {
 public:
  using Workload::Workload;

  void Construct() override {
    apps::RegisterPrograms();
    ClusterConfig config;
    config.seed = seed_;
    config.num_nodes = kNodes;
    cluster_ = std::make_unique<Cluster>(config);
    // 25 us of serialized protocol processing per datagram, as in
    // bench_coordinator_scale: converging replies queue at each endpoint.
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster_->node(i).stack().set_udp_service_processing_cost(
          25 * kMicrosecond);
    }
    cluster_->coordinator_node().stack().set_udp_service_processing_cost(
        25 * kMicrosecond);
  }

  void Populate() override {
    Cluster& c = *cluster_;
    Bytes page(os::kPageSize);
    const std::uint32_t straggler = Mix(seed_) % kNodes;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const std::uint64_t heap_pages =
          4 + (i == straggler ? 44 + Mix(seed_ + 1) % 5 : 0);
      os::PodId pod = c.CreatePod(i, "p" + std::to_string(i));
      os::Pid vpid =
          c.pods(i).SpawnInPod(pod, "cruz.echo_server", apps::EchoServerArgs(7));
      os::Process* proc = PodProcess(c, i, pod, vpid);
      for (std::uint64_t p = 0; p < heap_pages; ++p) {
        FillPage(page, Mix(seed_ + i * 64 + p));
        proc->memory().InstallPage(kHeapBase + p, page);
      }
      pods_.push_back(pod);
      vpids_.push_back(vpid);
      members_.push_back(c.MemberFor(i, pod));
    }
  }

  void WarmUp() override { cluster_->sim().RunFor(10 * kMillisecond); }

  void Cycle(SpanLog& spans, bool record, Tally& tally) override {
    Cluster& c = *cluster_;
    coord::Coordinator::Options options;
    options.fan_out = kFanOut;
    options.image_prefix = kImagePrefix;
    coord::Coordinator::OpStats ck;
    {
      auto s = spans.Open("coord.checkpoint");
      ck = c.RunCheckpoint(members_, options);
    }
    const std::uint32_t expected = ExpectedMessages(ck.image_paths);
    tally.Op(ck.success && ck.total_messages == expected,
             "coord checkpoint: " + ck.abort_reason + " msgs " +
                 std::to_string(ck.total_messages) + " expected " +
                 std::to_string(expected));
    {
      auto s = spans.Open("pod.destroy");
      for (std::uint32_t i = 0; i < kNodes; ++i) c.pods(i).DestroyPod(pods_[i]);
    }
    coord::Coordinator::OpStats rs;
    {
      auto s = spans.Open("coord.restart");
      rs = c.RunRestart(members_, ck.image_paths, options);
    }
    std::uint32_t restored = 0;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      if (PodProcess(c, i, pods_[i], vpids_[i]) != nullptr) ++restored;
    }
    tally.Op(rs.success && rs.total_messages == expected && restored == kNodes,
             "coord restart: " + rs.abort_reason + " msgs " +
                 std::to_string(rs.total_messages) + " restored " +
                 std::to_string(restored));
    if (!ck.image_paths.empty()) image_ = ck.image_paths[0];
    if (record) {
      window.checkpoints.push_back(ck);
      window.restarts.push_back(rs);
    }
  }

  std::uint32_t window_cycles() const override { return 3; }

  os::Process* ProbeProcess() override {
    return PodProcess(*cluster_, 0, pods_[0], vpids_[0]);
  }
  bool ProbeImage(Bytes& out) override {
    return !image_.empty() && SysOk(cluster_->fs().ReadFile(image_, out));
  }
  bool compress() const override { return false; }

 private:
  static constexpr std::uint32_t kNodes = 512;
  static constexpr std::uint32_t kFanOut = 32;
  static constexpr std::uint64_t kHeapBase = 0x500;
  static constexpr const char* kImagePrefix = "/ckpt/scale";

  // DESIGN.md §13 closed form: 4 messages per member, 4 per shard, plus
  // one per extra MTU fragment of each shard's roster, downward (with
  // image paths) and upward (paths stripped).
  std::uint32_t ExpectedMessages(const std::vector<std::string>& paths) const {
    std::uint32_t total = 4 * kNodes;
    for (std::uint32_t first = 0; first < kNodes; first += kFanOut) {
      coord::CoordMessage down, up;
      for (std::uint32_t i = first; i < kNodes && i < first + kFanOut; ++i) {
        coord::ShardMember sm;
        sm.agent_ip = members_[i].agent_ip.value;
        sm.pod = static_cast<std::uint32_t>(members_[i].pod);
        up.shard_members.push_back(sm);
        sm.image_path = i < paths.size() ? paths[i] : std::string();
        down.shard_members.push_back(sm);
      }
      total += 4 +
               static_cast<std::uint32_t>(coord::FragmentRoster(down).size() -
                                          1) +
               static_cast<std::uint32_t>(coord::FragmentRoster(up).size() - 1);
    }
    return total;
  }

  std::vector<os::PodId> pods_;
  std::vector<os::Pid> vpids_;
  std::vector<coord::Coordinator::Member> members_;
  std::string image_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"slm_ckpt", "kv_slo",
                                                 "coord_scale"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "slm_ckpt") return std::make_unique<SlmCkpt>(seed);
  if (name == "kv_slo") return std::make_unique<KvSlo>(seed);
  if (name == "coord_scale") return std::make_unique<CoordScale>(seed);
  return nullptr;
}

}  // namespace cruzbench
