#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/common/random.h"
#include "src/farview/farview.h"
#include "src/net/fabric.h"
#include "src/relational/cpu_executor.h"
#include "src/relational/queries.h"
#include "src/relational/table.h"
#include "src/serve/arrival.h"
#include "src/serve/front_door.h"
#include "src/serve/synthetic.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/workloads.h"
#include "traced_workload.h"

namespace fpgadp::repobench {
namespace {

/// Offered loads of every serving workload, as fractions of the nominal
/// capacity the workload definition fixes.
constexpr double kRhos[] = {0.50, 0.85, 1.20};
constexpr const char* kRhoTags[] = {"r050", "r085", "r120"};
constexpr size_t kNumPoints = 3;
/// The rate point behind the headline p50_cycles / p99_cycles.
constexpr size_t kNominalPoint = 1;
/// The overload point behind goodput_per_s.
constexpr size_t kOverloadPoint = 2;
/// Coordinator admission window (slices in flight per shard, or per group
/// root under tree scatter) for the 8-shard workloads. The default of 4
/// caps throughput at 4 requests per round trip, below these workloads'
/// service capacity; 12 keeps the window out of the way while a shard's
/// in-flight slices still fit its 16-deep server queue.
constexpr uint32_t kWindow = 12;

uint64_t Mix(uint64_t a, uint64_t b) {
  return (a + 0x9E3779B97F4A7C15ull) * 0xBF58476D1CE4E5B9ull ^ (b << 17) ^ b;
}

/// Times the benchmark's phases: every setup step and every simulated run
/// adds to its total, and in the traced run also records a span.
class Phases {
 public:
  explicit Phases(SpanLog* spans) : spans_(spans) {}

  template <class F>
  void Setup(const std::string& name, F&& fn) {
    Time(name, fn, &setup_s);
  }
  template <class F>
  void Run(const std::string& name, F&& fn) {
    Time(name, fn, &run_s);
  }

  double setup_s = 0;
  double run_s = 0;

 private:
  template <class F>
  void Time(const std::string& name, F& fn, double* total) {
    ScopedSpan span(spans_, name);
    const double t0 = Now();
    fn();
    *total += Now() - t0;
  }

  SpanLog* spans_;
};

const char* SchedulingName(sim::Scheduling s) {
  return s == sim::Scheduling::kEventDriven ? "event" : "tick";
}

// ---------------------------------------------------------------------------
// Serving workloads: a FrontDoor offering open-loop Poisson traffic to a
// ShardCluster at each of the three fixed loads.
// ---------------------------------------------------------------------------

/// Result checks of one rate point, filled by the workload.
struct PointCheck {
  uint64_t found = 0;     ///< Registered requests that have a result.
  uint64_t missing = 0;   ///< Registered requests without one (shed).
  uint64_t wrong = 0;     ///< Results that differ from the reference.
  double recall_sum = 0;  ///< Quality summed over checked results.
  uint64_t recall_n = 0;
};

class ServingCase {
 public:
  virtual ~ServingCase() = default;
  /// Prefix of the decorator's span names.
  virtual std::string layer() const = 0;
  virtual std::vector<serve::RequestClass> classes() const = 0;
  /// Mean arrival gap at rho = 1: the nominal capacity, fixed by the
  /// workload definition and never recomputed per run.
  virtual double capacity_gap_cycles() const = 0;
  virtual size_t requests_per_point() const = 0;
  virtual shard::ShardCluster::Config cluster_config() const = 0;
  /// Inputs shared by all rate points (dataset, index).
  virtual void BuildShared(Phases& phases) { (void)phases; }
  /// A fresh workload for one rate point; the case owns it.
  virtual shard::Workload* NewWorkload(Phases& phases, size_t point) = 0;
  /// The front door's request factory.
  virtual uint64_t AddRequest(uint32_t class_index, size_t sequence) = 0;
  /// Cycle at which shard 1's primary dies at this rate point (0: never).
  virtual uint64_t KillCycle(size_t requests, double gap) const {
    (void)requests;
    (void)gap;
    return 0;
  }
  /// Checks the results of the current rate point against a reference.
  virtual PointCheck Check(const std::vector<uint64_t>& ids) = 0;
};

/// E23's two-class synthetic mix on 4 shards, flat gather, deadline
/// admission with coordinator-trained estimates.
class ServeMixCase : public ServingCase {
 public:
  static constexpr uint32_t kShards = 4;
  static constexpr uint64_t kInteractiveSvc = 200;
  static constexpr uint64_t kInteractiveSlo = 6000;
  static constexpr uint64_t kBatchSvc = 800;
  static constexpr uint64_t kBatchSlo = 20000;
  static constexpr double kInteractiveWeight = 0.8;
  static constexpr double kBatchWeight = 0.2;
  /// Mean modeled service of the mix (as kMixMeanSvc in E23); one request
  /// occupies one of kShards shards, so rho = 1 is a gap of mix / shards.
  static constexpr double kMixMeanSvc =
      kInteractiveWeight * kInteractiveSvc + kBatchWeight * kBatchSvc;

  explicit ServeMixCase(const RunOptions& o) : short_(o.short_run) {}

  std::string layer() const override { return "synthetic"; }
  std::vector<serve::RequestClass> classes() const override {
    return {{"interactive", kInteractiveSlo, kInteractiveWeight},
            {"batch", kBatchSlo, kBatchWeight}};
  }
  double capacity_gap_cycles() const override { return kMixMeanSvc / kShards; }
  size_t requests_per_point() const override { return short_ ? 400 : 20000; }
  shard::ShardCluster::Config cluster_config() const override {
    shard::ShardCluster::Config cc;
    cc.num_shards = kShards;
    cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
    cc.coordinator.feasibility_headroom_pct = 80;
    return cc;
  }
  shard::Workload* NewWorkload(Phases& phases, size_t point) override {
    (void)point;
    phases.Setup("synthetic.build", [&] {
      serve::SyntheticWorkload::Config wc;
      wc.num_shards = kShards;
      wc.fanout = 1;
      wc.jitter_pct = 25;
      wc.publish_estimates = false;  // The coordinator trains its EWMA.
      wl_ = std::make_unique<serve::SyntheticWorkload>(wc);
    });
    return wl_.get();
  }
  uint64_t AddRequest(uint32_t class_index, size_t sequence) override {
    (void)sequence;
    return wl_->AddRequest(class_index == 0 ? kInteractiveSvc : kBatchSvc);
  }
  PointCheck Check(const std::vector<uint64_t>& ids) override {
    // The synthetic workload carries no payload: every merge it saw is a
    // completed request, and no result can be wrong.
    PointCheck c;
    c.found = wl_->merged();
    c.missing = ids.size() - std::min<uint64_t>(ids.size(), c.found);
    c.recall_sum = double(wl_->merged() - wl_->merged_degraded());
    c.recall_n = wl_->merged();
    return c;
  }

 private:
  bool short_;
  std::unique_ptr<serve::SyntheticWorkload> wl_;
};

/// FANNS IVF-PQ top-10 over 8 shards on E27's scatter stack: tree gather,
/// multicast tree scatter, balanced lists.
class AnnsCase : public ServingCase {
 public:
  static constexpr uint32_t kShards = 8;
  static constexpr size_t kNprobe = 16;
  static constexpr size_t kK = 10;
  /// Mean modeled service of one query summed over its slices (LUT builds
  /// plus ADC scan, AnnsTopKWorkload's cost model) on the full-size
  /// corpus; balanced placement spreads it over the 8 shards.
  static constexpr double kMeanQuerySvc = 1136.0;
  static constexpr uint64_t kSlo = 4000;
  /// The corpus and its index are fixed, like a standard ANN dataset;
  /// the seed picks the queries and the arrival schedule.
  static constexpr uint64_t kCorpusSeed = 29;

  explicit AnnsCase(const RunOptions& o) : seed_(o.seed), short_(o.short_run) {}

  std::string layer() const override { return "anns"; }
  std::vector<serve::RequestClass> classes() const override {
    return {{"topk", kSlo, 1.0}};
  }
  double capacity_gap_cycles() const override {
    return kMeanQuerySvc / kShards;
  }
  size_t requests_per_point() const override { return short_ ? 150 : 1000; }
  shard::ShardCluster::Config cluster_config() const override {
    shard::ShardCluster::Config cc;
    cc.num_shards = kShards;
    cc.gather.topology = shard::GatherTopology::kTree;
    cc.gather.coordinator_ports = 4;
    cc.gather.fanout = 2;
    cc.gather.scatter = shard::ScatterMode::kTree;
    cc.gather.pipelined_merge = true;
    cc.coordinator.window = kWindow;
    cc.coordinator.admission = shard::AdmissionPolicy::kDeadlineFeasible;
    cc.coordinator.feasibility_headroom_pct = 80;
    // Tree gather never trains the per-shard service EWMA (ROADMAP item
    // 3), so admission plans on this prior for the whole run: the
    // workload's nominal per-slice cost.
    cc.coordinator.initial_service_estimate_cycles =
        static_cast<uint64_t>(kMeanQuerySvc / kShards);
    return cc;
  }
  void BuildShared(Phases& phases) override {
    anns::DatasetSpec spec;
    spec.num_base = short_ ? 4000 : 20000;
    spec.num_queries = short_ ? 32 : 256;
    spec.dim = 32;
    spec.num_clusters = 32;
    spec.cluster_stddev = 0.3f;
    spec.seed = kCorpusSeed;
    phases.Setup("anns.dataset", [&] { data_ = anns::MakeDataset(spec); });
    anns::IvfPqIndex::Options opts;
    opts.nlist = 64;
    opts.pq.m = 8;
    opts.pq.ksub = 32;
    opts.pq.train_iters = 6;
    opts.seed = kCorpusSeed;
    std::optional<Result<anns::IvfPqIndex>> built;
    phases.Setup("anns.index_build", [&] {
      built.emplace(anns::IvfPqIndex::Build(data_.base, data_.dim, opts));
    });
    if (!built->ok()) {
      std::fprintf(stderr, "FAIL: index build: %s\n",
                   built->status().ToString().c_str());
      std::exit(1);
    }
    index_.emplace(std::move(*built).value());
    reference_.clear();
  }
  shard::Workload* NewWorkload(Phases& phases, size_t point) override {
    phases.Setup("anns.workload_build", [&] {
      shard::AnnsTopKWorkload::Config wc;
      wc.nprobe = kNprobe;
      wc.k = kK;
      wc.balance_scatter = true;
      wl_ = std::make_unique<shard::AnnsTopKWorkload>(
          &*index_, shard::Partitioner::Hash(kShards), wc);
    });
    rng_ = Rng(Mix(seed_, 100 + point));
    query_of_.clear();
    return wl_.get();
  }
  uint64_t AddRequest(uint32_t class_index, size_t sequence) override {
    (void)class_index;
    (void)sequence;
    const auto q = static_cast<uint32_t>(rng_.NextBounded(data_.num_queries()));
    const uint64_t id = wl_->AddQuery(data_.QueryVector(q));
    if (query_of_.size() <= id) query_of_.resize(id + 1);
    query_of_[id] = q;
    return id;
  }
  PointCheck Check(const std::vector<uint64_t>& ids) override {
    PointCheck c;
    for (uint64_t id : ids) {
      const std::vector<anns::Neighbor>* got = nullptr;
      try {
        got = &wl_->result(id);
      } catch (const std::out_of_range&) {
        ++c.missing;  // Shed at the front door: never merged.
        continue;
      }
      ++c.found;
      const uint32_t q = query_of_[id];
      const std::vector<uint32_t>& want = Reference(q);
      std::vector<uint32_t> got_ids;
      for (const anns::Neighbor& n : *got) got_ids.push_back(n.id);
      if (got_ids != want) ++c.wrong;
      c.recall_sum += anns::RecallAtK(got_ids, data_.ground_truth[q], kK);
      ++c.recall_n;
    }
    return c;
  }

 private:
  /// Single-node IvfPqIndex::Search ids for query `q` (cached: a check).
  const std::vector<uint32_t>& Reference(uint32_t q) {
    auto it = reference_.find(q);
    if (it == reference_.end()) {
      std::vector<uint32_t> ids;
      for (const anns::Neighbor& n :
           index_->Search(data_.QueryVector(q), {kNprobe, kK, 0})) {
        ids.push_back(n.id);
      }
      it = reference_.emplace(q, std::move(ids)).first;
    }
    return it->second;
  }

  uint64_t seed_;
  bool short_;
  anns::Dataset data_;
  std::optional<anns::IvfPqIndex> index_;
  std::unique_ptr<shard::AnnsTopKWorkload> wl_;
  Rng rng_;
  std::vector<uint32_t> query_of_;  ///< Request id -> query index.
  std::map<uint32_t, std::vector<uint32_t>> reference_;
};

/// Smart-KVS multi-get over 8 hash-partitioned shards, flat gather over 4
/// coordinator ports, R=2 with beacons; shard 1's primary dies mid-run.
class KvsCase : public ServingCase {
 public:
  static constexpr uint32_t kShards = 8;
  static constexpr uint32_t kPorts = 4;
  static constexpr size_t kKeysPerGet = 256;
  static constexpr uint64_t kSlo = 5000;
  /// The fan-in wall: each coordinator port receives kShards / kPorts
  /// responses per multi-get, each carrying 32 keys x (8 B key + 64 B
  /// value) + 64 B header at 62.5 B/cycle (100 Gbps at 200 MHz). That
  /// occupancy, not the ~40-cycle NIC DRAM service per slice, is the
  /// modeled service cost that bounds this workload.
  static constexpr double kPortCyclesPerGet =
      double(kShards / kPorts) * (32.0 * (8 + 64) + 64) / 62.5;
  /// Primary death, as a fraction of the rate point's arrival span.
  static constexpr double kKillFraction = 0.4;

  explicit KvsCase(const RunOptions& o) : seed_(o.seed), short_(o.short_run) {}

  std::string layer() const override { return "kvs"; }
  std::vector<serve::RequestClass> classes() const override {
    return {{"multiget", kSlo, 1.0}};
  }
  double capacity_gap_cycles() const override { return kPortCyclesPerGet; }
  size_t requests_per_point() const override { return short_ ? 200 : 1000; }
  uint64_t num_keys() const { return short_ ? 1u << 12 : 1u << 16; }
  shard::ShardCluster::Config cluster_config() const override {
    shard::ShardCluster::Config cc;
    cc.num_shards = kShards;
    cc.gather.coordinator_ports = kPorts;
    cc.coordinator.window = kWindow;
    // Queue-depth admission sized from the bottleneck: 80 % of the SLO at
    // the fan-in cost per get. Deadline-feasibility admission prices only
    // shard service (~40 cy per slice) and cannot see the fan-in wall, so
    // at rho = 1.20 it admits gets that then miss the SLO.
    cc.coordinator.admission = shard::AdmissionPolicy::kQueueDepth;
    cc.coordinator.max_pending =
        static_cast<uint32_t>(0.8 * double(kSlo) / kPortCyclesPerGet);
    cc.replica.replication_factor = 2;
    cc.replica.beacon_interval_cycles = 600;
    cc.replica.beacon_timeout_cycles = 1500;
    cc.reliability.rto_cycles = 300;
    cc.reliability.max_retries = 2;
    return cc;
  }
  shard::Workload* NewWorkload(Phases& phases, size_t point) override {
    phases.Setup("kvs.load", [&] {
      wl_ = std::make_unique<shard::KvsMultiGetWorkload>(
          shard::Partitioner::Hash(kShards),
          shard::KvsMultiGetWorkload::Config{});
      for (uint64_t key = 0; key < num_keys(); ++key) {
        wl_->Load(key, Value(key));
      }
    });
    rng_ = Rng(Mix(seed_, 200 + point));
    keys_of_.clear();
    return wl_.get();
  }
  uint64_t AddRequest(uint32_t class_index, size_t sequence) override {
    (void)class_index;
    (void)sequence;
    std::vector<uint64_t> keys(kKeysPerGet);
    for (uint64_t& k : keys) k = rng_.NextBounded(num_keys());
    keys_of_.push_back(keys);
    return wl_->AddMultiGet(std::move(keys));
  }
  uint64_t KillCycle(size_t requests, double gap) const override {
    return static_cast<uint64_t>(kKillFraction * double(requests) * gap);
  }
  PointCheck Check(const std::vector<uint64_t>& ids) override {
    PointCheck c;
    for (uint64_t id : ids) {
      const std::vector<shard::KvsMultiGetWorkload::GetResult>* got = nullptr;
      try {
        got = &wl_->result(id);
      } catch (const std::out_of_range&) {
        ++c.missing;
        continue;
      }
      ++c.found;
      const std::vector<uint64_t>& keys = keys_of_[id];
      bool ok = got->size() == keys.size();
      uint64_t right = 0;
      for (size_t i = 0; ok && i < keys.size(); ++i) {
        const auto& r = (*got)[i];
        if (r.key != keys[i]) ok = false;
        // A key of a degraded slice comes back unserved: counted by the
        // degraded tally, not as a wrong value.
        if (r.served && (!r.hit || r.value != Value(keys[i]))) ok = false;
        if (r.served && r.hit && r.value == Value(keys[i])) ++right;
      }
      if (!ok) ++c.wrong;
      c.recall_sum += double(right) / double(keys.size());
      ++c.recall_n;
    }
    return c;
  }

 private:
  static uint64_t Value(uint64_t key) { return key * 0x9E3779B1ull + 7; }

  uint64_t seed_;
  bool short_;
  std::unique_ptr<shard::KvsMultiGetWorkload> wl_;
  Rng rng_;
  std::vector<std::vector<uint64_t>> keys_of_;  ///< Request id -> keys.
};

/// Shard-layer counters accumulated over the rate points.
struct ShardTotals {
  uint64_t busy_cycles = 0;   ///< Sum of server service_cycles.
  uint64_t shard_cycles = 0;  ///< Sum of shards x run cycles.
  size_t queue_hwm = 0;
  double est_err_pct_sum = 0;
  uint64_t est_err_n = 0;
  uint64_t gather_stall = 0, late = 0, failovers = 0, replayed = 0,
           beacon_timeouts = 0, merges_forwarded = 0, bundles_forwarded = 0;
  uint64_t packets = 0, payload_bytes = 0, faults = 0;
  double rx_busy_frac = 0, tx_busy_frac = 0;

  void Add(shard::ShardCluster& cluster, uint32_t replicas, uint64_t cycles,
           const net::FaultInjector* injector) {
    shard::ShardCoordinator& coord = cluster.coordinator();
    const uint32_t shards = cluster.num_shards();
    shard_cycles += uint64_t{shards} * cycles;
    for (uint32_t s = 0; s < shards; ++s) {
      uint64_t svc = 0, served = 0;
      for (uint32_t r = 0; r < replicas; ++r) {
        shard::ShardServer& server = cluster.server(s, r);
        svc += server.service_cycles();
        served += server.served();
        merges_forwarded += server.merges_forwarded();
        bundles_forwarded += server.bundles_forwarded();
      }
      busy_cycles += svc;
      queue_hwm = std::max(queue_hwm, coord.queue_high_watermark(s));
      if (served > 0) {
        const double mean = double(svc) / double(served);
        est_err_pct_sum +=
            100.0 * std::fabs(double(coord.service_estimate(s)) - mean) / mean;
        ++est_err_n;
      }
    }
    gather_stall += coord.gather_stall_cycles();
    late += coord.late_responses();
    failovers += coord.failovers();
    replayed += coord.replayed_slices();
    beacon_timeouts += coord.beacon_timeouts();
    net::Fabric& fabric = cluster.fabric();
    packets += fabric.packets_delivered();
    payload_bytes += fabric.payload_bytes_delivered();
    for (uint32_t p = 0; p < cluster.gather_plan().ports(); ++p) {
      rx_busy_frac = std::max(
          rx_busy_frac, double(fabric.rx_busy_cycles(p)) / double(cycles));
      tx_busy_frac = std::max(
          tx_busy_frac, double(fabric.tx_busy_cycles(p)) / double(cycles));
    }
    if (injector != nullptr) faults += injector->total_faults();
  }

  void Export(std::map<std::string, double>& m) const {
    m["shard.busy_frac"] =
        shard_cycles == 0 ? 0 : double(busy_cycles) / double(shard_cycles);
    m["shard.queue_hwm_max"] = double(queue_hwm);
    m["shard.svc_est_err_pct"] =
        est_err_n == 0 ? 0 : est_err_pct_sum / double(est_err_n);
    m["shard.gather_stall_cycles"] = double(gather_stall);
    m["shard.late_responses"] = double(late);
    m["shard.failovers"] = double(failovers);
    m["shard.replayed_slices"] = double(replayed);
    m["shard.beacon_timeouts"] = double(beacon_timeouts);
    m["shard.merges_forwarded"] = double(merges_forwarded);
    m["shard.bundles_forwarded"] = double(bundles_forwarded);
    m["net.packets"] = double(packets);
    m["net.payload_mb"] = double(payload_bytes) / 1e6;
    m["net.coord_rx_busy_frac"] = rx_busy_frac;
    m["net.coord_tx_busy_frac"] = tx_busy_frac;
    m["net.faults_injected"] = double(faults);
  }
};

/// Rebuilds each primary-class request's modeled latency as queue +
/// service + gather on its critical slice and checks that the three sum to
/// the latency the front door recorded. Returns false (with `error`) on
/// any mismatch.
bool Segments(const TracedWorkload& traced,
              const std::vector<serve::FrontDoor::CompletionRecord>& done,
              const std::set<std::tuple<sim::Cycle, uint64_t, uint32_t>>&
                  zombie_serves,
              const std::string& tag, std::map<std::string, double>& out,
              std::string* error) {
  const auto& merges = traced.merges();
  if (merges.size() != done.size()) {
    *error = "segments " + tag + ": " + std::to_string(merges.size()) +
             " merges vs " + std::to_string(done.size()) + " completions";
    return false;
  }
  // Last live Serve of each (request, shard): a replayed slice's earlier
  // serve died with its primary.
  std::map<std::pair<uint64_t, uint32_t>, TracedWorkload::ServeRecord> serve;
  for (const auto& s : traced.serves()) {
    if (zombie_serves.count({s.start, s.request, s.shard}) > 0) continue;
    auto& slot = serve[{s.request, s.shard}];
    if (slot.cycles == 0 || s.start >= slot.start) slot = s;
  }
  std::vector<uint64_t> queue, service, gather;
  for (size_t i = 0; i < done.size(); ++i) {
    const auto& rec = done[i];
    const auto& m = merges[i];
    if (m.completed_at != rec.completed_at) {
      *error = "segments " + tag + ": completion " + std::to_string(i) +
               " does not join its merge";
      return false;
    }
    if (rec.class_index != 0) continue;
    const sim::Cycle arrival = rec.completed_at - rec.latency_cycles;
    const TracedWorkload::ServeRecord* crit = nullptr;
    for (uint32_t shard : m.done_shards) {
      const auto it = serve.find({m.request, shard});
      if (it == serve.end()) continue;
      if (crit == nullptr || it->second.start + it->second.cycles >
                                 crit->start + crit->cycles) {
        crit = &it->second;
      }
    }
    if (crit == nullptr || crit->start < arrival ||
        crit->start + crit->cycles > rec.completed_at) {
      *error = "segments " + tag + ": request " + std::to_string(m.request) +
               " has no critical slice inside its latency";
      return false;
    }
    const uint64_t q = crit->start - arrival;
    const uint64_t s = crit->cycles;
    const uint64_t g = rec.completed_at - (crit->start + crit->cycles);
    if (q + s + g != rec.latency_cycles) {
      *error = "segments " + tag + ": request " + std::to_string(m.request) +
               " segments do not sum to its latency";
      return false;
    }
    queue.push_back(q);
    service.push_back(s);
    gather.push_back(g);
  }
  const std::pair<const char*, std::vector<uint64_t>*> segs[] = {
      {"queue", &queue}, {"service", &service}, {"gather", &gather}};
  for (const auto& [name, v] : segs) {
    const std::string base = std::string("shard.seg_") + name;
    out[base + "_p50." + tag] = double(Percentile(*v, 0.50));
    out[base + "_p99." + tag] = double(Percentile(*v, 0.99));
  }
  return true;
}

Evaluation RunServing(ServingCase& c, const RunOptions& o, SpanLog* spans) {
  Evaluation ev;
  Phases ph(spans);
  c.BuildShared(ph);
  const std::vector<serve::RequestClass> classes = c.classes();
  ShardTotals totals;
  uint64_t offered_all = 0, degraded_all = 0, lost_all = 0, wrong_all = 0;
  double recall_sum = 0;
  uint64_t recall_n = 0;

  for (size_t p = 0; p < kNumPoints; ++p) {
    const std::string tag = kRhoTags[p];
    const size_t n = c.requests_per_point();
    const double gap = c.capacity_gap_cycles() / kRhos[p];

    shard::Workload* wl = c.NewWorkload(ph, p);
    std::unique_ptr<TracedWorkload> traced;
    if (spans != nullptr) {
      traced = std::make_unique<TracedWorkload>(wl, c.layer(), spans);
      wl = traced.get();
    }
    const shard::ShardCluster::Config cc = c.cluster_config();
    const uint64_t kill = c.KillCycle(n, gap);
    std::unique_ptr<shard::ShardCluster> cluster;
    std::unique_ptr<net::FaultInjector> injector;
    ph.Setup("shard.build", [&] {
      cluster = std::make_unique<shard::ShardCluster>(wl, cc);
      if (kill > 0) {
        net::FaultInjector::Config fc;
        fc.seed = Mix(o.seed, 300 + p);
        fc.flap_down_cycles = 1u << 30;  // Permanent death.
        injector = std::make_unique<net::FaultInjector>(fc);
        const uint32_t victim = cluster->gather_plan().ReplicaNode(1, 0);
        injector->Schedule({kill, victim, net::FaultInjector::kAnyNode,
                            net::FaultKind::kLinkFlap});
        injector->Schedule({kill, net::FaultInjector::kAnyNode, victim,
                            net::FaultKind::kLinkFlap});
        cluster->set_fault_injector(injector.get());
      }
    });
    if (traced != nullptr) traced->set_engine(&cluster->engine());
    std::vector<shard::ShardServer::ServedRecord> victim_log;
    if (traced != nullptr && kill > 0) {
      cluster->server(1, 0).set_serve_log(&victim_log);
    }

    serve::FrontDoor::Config fd;
    fd.arrivals.kind = serve::ArrivalKind::kPoisson;
    fd.arrivals.mean_interarrival_cycles = gap;
    fd.classes = classes;
    fd.num_requests = n;
    fd.seed = Mix(o.seed, 400 + p);
    std::vector<uint64_t> ids;
    ids.reserve(n);
    std::unique_ptr<serve::FrontDoor> door;
    ph.Setup("serve.build", [&] {
      door = std::make_unique<serve::FrontDoor>(
          "front_door", &cluster->coordinator(), wl,
          [&](uint32_t cls, size_t seq) {
            const uint64_t id = c.AddRequest(cls, seq);
            ids.push_back(id);
            return id;
          },
          fd);
    });
    std::vector<serve::FrontDoor::CompletionRecord> done;
    door->set_completion_log(&done);
    cluster->engine().AddModule(door.get());
    ev.scheduling = SchedulingName(cluster->engine().scheduling());
    ev.threads = cluster->engine().threads();

    std::optional<Result<sim::Cycle>> ran;
    ph.Run("sim.run", [&] { ran.emplace(cluster->Run()); });
    if (!ran->ok()) {
      ev.errors.push_back(tag + ": cluster did not quiesce: " +
                          ran->status().ToString());
      continue;
    }
    const uint64_t cycles = ran->value();
    ev.sim_cycles += cycles;

    // Conservation: every arrival is offered once and ends shed or
    // completed; the completion log holds every completion.
    const uint64_t offered = door->total_offered();
    const uint64_t shed = door->total_shed();
    const uint64_t completed = door->total_completed();
    if (offered != n) {
      ev.errors.push_back(tag + ": offered " + std::to_string(offered) +
                          " of " + std::to_string(n));
    }
    if (offered != shed + completed || done.size() != completed) {
      ev.errors.push_back(tag + ": offered " + std::to_string(offered) +
                          " != shed " + std::to_string(shed) +
                          " + completed " + std::to_string(completed));
    }
    uint64_t degraded = 0, violations = 0;
    for (size_t k = 0; k < classes.size(); ++k) {
      const serve::ClassStats& cs = door->class_stats(k);
      if (cs.offered != cs.shed + cs.completed) {
        ev.errors.push_back(tag + ": class " + classes[k].name +
                            " offered != shed + completed");
      }
      degraded += cs.degraded;
      violations += cs.slo_violations;
    }
    const PointCheck chk = c.Check(ids);
    if (chk.found != completed || chk.missing != shed) {
      ev.errors.push_back(tag + ": " + std::to_string(chk.found) +
                          " results for " + std::to_string(completed) +
                          " completions, " + std::to_string(chk.missing) +
                          " missing for " + std::to_string(shed) + " sheds");
    }
    if (chk.wrong > 0) {
      ev.errors.push_back(tag + ": " + std::to_string(chk.wrong) +
                          " results differ from the reference");
    }
    const uint64_t lost = offered - std::min(offered, shed + completed);
    offered_all += offered;
    degraded_all += degraded;
    lost_all += lost;
    wrong_all += chk.wrong;
    recall_sum += chk.recall_sum;
    recall_n += chk.recall_n;

    std::vector<uint64_t> lat;
    uint64_t within_slo = 0;
    uint64_t recovery = 0;
    for (const auto& rec : done) {
      if (rec.class_index == 0) lat.push_back(rec.latency_cycles);
      const uint64_t slo = classes[rec.class_index].slo_cycles;
      if (!rec.degraded && rec.latency_cycles <= slo) ++within_slo;
      if (kill > 0 && rec.completed_at >= kill && rec.latency_cycles > slo) {
        recovery = rec.completed_at - kill;
      }
    }
    const double sim_s = double(cycles) / cc.fabric.clock_hz;
    if (p == kNominalPoint) ev.headline.latencies = lat;
    if (p == kOverloadPoint) {
      ev.headline.good = within_slo;
      ev.headline.good_seconds = sim_s;
    }
    auto& m = ev.modeled;
    m["serve.offered." + tag] = double(offered);
    m["serve.shed." + tag] = double(shed);
    m["serve.completed." + tag] = double(completed);
    m["serve.slo_violations." + tag] = double(violations);
    m["serve.p50_cycles." + tag] = double(Percentile(lat, 0.50));
    m["serve.p99_cycles." + tag] = double(Percentile(lat, 0.99));
    m["serve.goodput_rps." + tag] = double(within_slo) / sim_s;
    m["sim.cycles." + tag] = double(cycles);
    if (kill > 0) m["shard.recovery_cycles." + tag] = double(recovery);
    totals.Add(*cluster, cc.replica.replication_factor, cycles,
               injector.get());

    if (traced != nullptr) {
      std::set<std::tuple<sim::Cycle, uint64_t, uint32_t>> zombies;
      for (const auto& r : victim_log) {
        if (r.cycle >= kill) zombies.insert({r.cycle, r.request_id, r.slice_shard});
      }
      std::string error;
      if (!Segments(*traced, done, zombies, tag, ev.traced, &error)) {
        ev.errors.push_back(error);
      }
      ev.traced["trace.calls_merged_bytes"] +=
          double(traced->calls().merged_bytes);
      ev.traced["trace.calls_scatter_shared_bytes"] +=
          double(traced->calls().scatter_shared_bytes);
    }
  }

  auto& m = ev.modeled;
  totals.Export(m);
  m["shard.degraded"] = double(degraded_all);
  m["sim.cycles"] = double(ev.sim_cycles);
  const uint64_t errors = degraded_all + lost_all + wrong_all;
  m["serve.error_frac"] =
      offered_all == 0 ? 1 : double(errors) / double(offered_all);
  ev.headline.ok = offered_all - std::min(offered_all, errors);
  ev.headline.total = offered_all;
  ev.headline.recall_sum = recall_sum;
  ev.headline.recall_n = recall_n;
  ev.attempted = offered_all;
  ev.failed = degraded_all + lost_all + wrong_all;
  ev.setup_s = ph.setup_s;
  ev.run_s = ph.run_s;
  return ev;
}

// ---------------------------------------------------------------------------
// farview_scan: 4 compute nodes share one smart-memory node; a fixed query
// mix runs offloaded (concurrently) and fetch-all (sequentially).
// ---------------------------------------------------------------------------

struct NamedProgram {
  std::string name;
  rel::Program program;
};

/// The query mix: four filters whose thresholds the seed draws from fixed
/// selectivity bands (qty is uniform on 1..50, so qty >= t keeps
/// (51 - t) / 50 of the rows: about 0.92-1, 0.42-0.62, 0.10-0.22 and
/// 0.02-0.08), then sum(qty), Q1-lite, Q6-lite and Top-10.
std::vector<NamedProgram> QueryMix(uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedProgram> mix;
  const std::pair<int64_t, int64_t> bands[] = {{1, 5}, {20, 30}, {40, 46},
                                               {47, 50}};
  for (const auto& [lo, hi] : bands) {
    const int64_t qty = rng.NextInt(lo, hi);
    rel::Program p;
    rel::FilterOp f;
    f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, qty});
    p.ops.push_back(f);
    mix.push_back({"filter_qty_ge_" + std::to_string(qty), p});
  }
  rel::Program sum;
  sum.ops.push_back(rel::AggregateOp{rel::AggKind::kSum, 4, false});
  mix.push_back({"sum_qty", sum});
  mix.push_back({"q1_lite", rel::MakeQ1Lite()});
  mix.push_back({"q6_lite", rel::MakeQ6Lite()});
  mix.push_back({"top10", rel::MakeTopExpensive()});
  return mix;
}

bool SameTable(const rel::Table& a, const rel::Table& b) {
  return a.schema() == b.schema() && a.rows() == b.rows();
}

Evaluation RunFarview(const RunOptions& o, SpanLog* spans) {
  constexpr uint32_t kClients = 4;
  /// Each query of the mix is offered this many times in the concurrent
  /// offload batch (spread round-robin over the clients).
  constexpr size_t kOffloadRepeats = 2;
  Evaluation ev;
  Phases ph(spans);
  const std::vector<NamedProgram> mix = QueryMix(Mix(o.seed, 501));

  rel::SyntheticTableSpec spec;
  spec.num_rows = o.short_run ? 20000 : 120000;
  spec.seed = Mix(o.seed, 500);
  rel::Table table;
  ph.Setup("farview.make_table", [&] { table = rel::MakeSyntheticTable(spec); });
  const farview::FarviewConfig config;
  std::unique_ptr<farview::FarviewSystem> sys;
  ph.Setup("farview.system_build", [&] {
    sys = std::make_unique<farview::FarviewSystem>(config, kClients);
  });
  uint64_t tid = 0;
  ph.Setup("farview.load_table", [&] { tid = sys->LoadTable(table); });
  std::vector<uint64_t> pids;
  ph.Setup("farview.register_programs", [&] {
    for (const NamedProgram& q : mix) pids.push_back(sys->RegisterProgram(q.program));
  });
  ev.scheduling = SchedulingName(sys->engine().scheduling());
  ev.threads = sys->engine().threads();

  std::vector<farview::FarviewSystem::ConcurrentRequest> batch;
  for (size_t r = 0; r < kOffloadRepeats; ++r) {
    for (uint64_t pid : pids) batch.push_back({tid, pid});
  }
  const uint64_t dram_before = sys->memory_node().dram_bytes_read();
  std::optional<Result<std::vector<farview::QueryStats>>> off;
  double makespan_s = 0;
  ph.Run("sim.run", [&] {
    off.emplace(sys->RunOffloadedConcurrently(batch, &makespan_s));
  });
  const uint64_t dram_offload =
      sys->memory_node().dram_bytes_read() - dram_before;
  std::vector<std::optional<Result<farview::QueryStats>>> fetched(pids.size());
  for (size_t i = 0; i < pids.size(); ++i) {
    ph.Run("sim.run", [&] { fetched[i].emplace(sys->RunFetchAll(tid, pids[i])); });
  }

  // Checks, untimed: every result equals the CPU executor on the same table.
  std::vector<rel::Table> reference;
  for (const NamedProgram& q : mix) {
    auto r = rel::ExecuteCpu(q.program, table);
    if (!r.ok()) {
      ev.errors.push_back("reference " + q.name + ": " + r.status().ToString());
      reference.emplace_back();
    } else {
      reference.push_back(std::move(r).value());
    }
  }
  const uint64_t queries = batch.size() + pids.size();
  uint64_t failed = 0, right = 0;
  std::vector<uint64_t> lat;
  uint64_t offload_cycles = 0, wire_offload = 0;
  if (!off->ok()) {
    ev.errors.push_back("offload batch: " + off->status().ToString());
    failed += batch.size();
  } else {
    const auto& stats = off->value();
    for (size_t i = 0; i < stats.size(); ++i) {
      const size_t q = i % mix.size();
      if (SameTable(stats[i].result, reference[q])) {
        ++right;
      } else {
        ++failed;
        ev.errors.push_back("offload " + mix[q].name + " differs from ExecuteCpu");
      }
      lat.push_back(stats[i].cycles);
      offload_cycles = std::max(offload_cycles, stats[i].cycles);
      wire_offload += stats[i].wire_bytes;
    }
  }
  uint64_t fetch_cycles = 0, wire_fetch = 0;
  for (size_t i = 0; i < fetched.size(); ++i) {
    const auto& f = *fetched[i];
    if (!f.ok()) {
      ++failed;
      ev.errors.push_back("fetch " + mix[i].name + ": " + f.status().ToString());
      continue;
    }
    if (SameTable(f.value().result, reference[i])) {
      ++right;
    } else {
      ++failed;
      ev.errors.push_back("fetch " + mix[i].name + " differs from ExecuteCpu");
    }
    fetch_cycles += f.value().cycles;
    wire_fetch += f.value().wire_bytes;
  }
  ev.sim_cycles = offload_cycles + fetch_cycles;
  (void)makespan_s;

  const double hz = config.clock_hz;
  const double table_bytes = double(table.total_bytes());
  const double offload_s = double(offload_cycles) / hz;
  const double fetch_s = double(fetch_cycles) / hz;
  auto& m = ev.modeled;
  m["farview.offload_makespan_cycles"] = double(offload_cycles);
  m["farview.fetch_makespan_cycles"] = double(fetch_cycles);
  m["farview.wire_bytes_offload"] = double(wire_offload);
  m["farview.wire_bytes_fetch"] = double(wire_fetch);
  m["farview.wire_reduction"] =
      double(wire_offload) / (double(batch.size()) * table_bytes);
  m["farview.scan_gbps"] =
      offload_s == 0 ? 0 : double(batch.size()) * table_bytes / offload_s / 1e9;
  m["farview.fetch_gbps"] =
      fetch_s == 0 ? 0 : double(pids.size()) * table_bytes / fetch_s / 1e9;
  m["memory.dram_gbps"] = offload_s == 0 ? 0 : double(dram_offload) / offload_s / 1e9;
  m["sim.cycles"] = double(ev.sim_cycles);
  ev.headline.latencies = lat;
  ev.headline.good = off->ok() ? batch.size() : 0;
  ev.headline.good_seconds = offload_s;
  ev.headline.ok = right;
  ev.headline.total = queries;
  ev.headline.recall_sum = double(right);
  ev.headline.recall_n = queries;
  ev.attempted = queries;
  ev.failed = failed;
  ev.setup_s = ph.setup_s;
  ev.run_s = ph.run_s;
  return ev;
}

/// Host-time layer metrics from the traced run's spans. A metric whose
/// spans never occurred (the layer is not part of this workload) is left
/// out, and the report lists it as not applicable.
void SpanMetrics(const SpanLog& log, std::map<std::string, double>& out) {
  auto seconds = [&](const std::string& metric,
                     std::initializer_list<const char*> spans) {
    double total = 0;
    uint64_t n = 0;
    for (const char* s : spans) {
      total += log.Seconds(s);
      n += log.Count(s);
    }
    if (n > 0) out[metric] = total;
  };
  seconds("sim.run_s", {"sim.run"});
  if (log.Count("sim.run") > 0) {
    out["sim.other_s"] = log.Seconds("sim.run") - log.ChildSeconds("sim.run");
  }
  seconds("serve.build_s", {"serve.build"});
  seconds("anns.dataset_s", {"anns.dataset"});
  seconds("anns.index_build_s", {"anns.index_build"});
  seconds("anns.scatter_s", {"anns.scatter"});
  seconds("anns.serve_s", {"anns.serve"});
  seconds("anns.merge_s", {"anns.merge"});
  if (const uint64_t calls = log.Count("anns.serve"); calls > 0) {
    out["anns.serve_calls"] = double(calls);
    out["anns.serve_us_per_call"] = 1e6 * log.Seconds("anns.serve") / double(calls);
  }
  seconds("kvs.load_s", {"kvs.load"});
  seconds("kvs.serve_s", {"kvs.serve"});
  seconds("kvs.merge_s", {"kvs.merge"});
  seconds("farview.table_build_s",
          {"farview.make_table", "farview.load_table"});
}

}  // namespace

uint64_t Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * double(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_mix", "anns_topk",
                                                 "kvs_failover", "farview_scan"};
  return names;
}

Evaluation Evaluate(const std::string& name, const RunOptions& options,
                    SpanLog* spans) {
  Evaluation ev;
  if (name == "serve_mix") {
    ServeMixCase c(options);
    ev = RunServing(c, options, spans);
  } else if (name == "anns_topk") {
    AnnsCase c(options);
    ev = RunServing(c, options, spans);
    ev.modeled["anns.recall_at_10"] =
        ev.headline.recall_sum / double(ev.headline.recall_n);
  } else if (name == "kvs_failover") {
    KvsCase c(options);
    ev = RunServing(c, options, spans);
  } else if (name == "farview_scan") {
    ev = RunFarview(options, spans);
  } else {
    ev.errors.push_back("unknown workload " + name);
    return ev;
  }
  if (spans != nullptr) SpanMetrics(*spans, ev.traced);
  return ev;
}

}  // namespace fpgadp::repobench
