// Golden-cycle lockdown for the simulation engine. Each scenario is a
// small, fixed configuration of one of the repo's bench workloads; its
// exact cycle count is recorded in tests/golden/cycles.json and any drift
// fails the suite. Because the same scenarios are re-run under the event
// scheduler and the every-cycle level-tick reference loop, this file is the
// proof that the event scheduler is a pure optimization: bit-identical
// cycle counts, only wall-clock changes.
//
// Regenerate the baseline (after an *intentional* timing-model change)
// with tools/update_goldens.sh, which runs this binary with
// FPGADP_UPDATE_GOLDENS=1.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/accl/collectives.h"
#include "src/anns/dataset.h"
#include "src/anns/ivf.h"
#include "src/device/device.h"
#include "src/microrec/cartesian.h"
#include "src/microrec/engine.h"
#include "src/microrec/model.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/shard/partitioner.h"
#include "src/shard/shard.h"
#include "src/shard/workloads.h"
#include "src/sim/engine.h"

#ifndef FPGADP_GOLDEN_DIR
#error "FPGADP_GOLDEN_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

namespace fpgadp {
namespace {

/// Installs the default scheduler for the scope of one scenario run, so
/// engines constructed deep inside helpers (ExecuteFpga, MicroRec, ACCL)
/// pick it up exactly like bench_common's --engine.
class ScopedScheduling {
 public:
  explicit ScopedScheduling(sim::Scheduling s)
      : previous_(sim::DefaultScheduling()) {
    sim::SetDefaultScheduling(s);
  }
  ~ScopedScheduling() { sim::SetDefaultScheduling(previous_); }

 private:
  sim::Scheduling previous_;
};

/// bench_rdma's TimedReads harness at fixed configuration: `count`
/// pipelined READs of `bytes` each over the loss-free 100 Gbps fabric,
/// manually Step()-driven, so it always runs the level-tick body.
uint64_t RdmaReadScenario(int count, uint64_t bytes) {
  net::Fabric fabric("fab", 2, [] {
    net::Fabric::Config c;
    c.clock_hz = 200e6;
    return c;
  }());
  net::RdmaEndpoint a("a", 0, &fabric);
  net::RdmaEndpoint b("b", 1, &fabric);
  sim::Engine engine;
  fabric.RegisterWith(engine);
  engine.AddModule(&a);
  engine.AddModule(&b);
  for (int i = 0; i < count; ++i) {
    a.PostRead(1, uint64_t(i) * bytes, bytes, uint64_t(i));
  }
  int done = 0;
  net::Completion c;
  while (done < count) {
    engine.Step();
    while (a.PollCompletion(&c)) ++done;
  }
  engine.FlushObservers();
  return engine.now();
}

/// bench_line_rate's golden configuration: qty >= 25 filter over the
/// 200k-row seed-8 synthetic table on a 2-lane datapath.
uint64_t LineRateFilterScenario() {
  rel::SyntheticTableSpec spec;
  spec.num_rows = 200000;
  spec.seed = 8;
  rel::Table table = rel::MakeSyntheticTable(spec);
  rel::FpgaOptions options;
  options.lanes = 2;
  options.stream_depth = 32;
  rel::Program p;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, 25});
  p.ops.push_back(f);
  auto stats = rel::ExecuteFpga(p, table, options);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? stats->cycles : 0;
}

/// bench_hash_join at small fixed size: 4Ki-row build side, 20k-row probe
/// side re-keyed to ~50% match rate, 4-lane probe pipeline.
uint64_t HashJoinScenario() {
  rel::Schema schema(
      {{"k", rel::ColumnType::kInt64}, {"payload", rel::ColumnType::kInt64}});
  rel::Table dim(schema);
  const size_t build = 4096;
  dim.Reserve(build);
  for (size_t i = 0; i < build; ++i) {
    rel::Row r;
    r.Set(0, int64_t(i));
    r.Set(1, int64_t(i) * 3);
    dim.Append(r);
  }
  rel::SyntheticTableSpec spec;
  spec.num_rows = 20000;
  spec.key_cardinality = 1 << 22;
  spec.seed = 9;
  rel::Table probe = rel::MakeSyntheticTable(spec);
  for (size_t i = 0; i < probe.num_rows(); ++i) {
    probe.row(i).Set(1, int64_t(probe.row(i).Get(1) % (2 * build)));
  }
  rel::FpgaOptions options;
  options.lanes = 4;
  options.stream_depth = 16;
  auto stats = rel::HashJoinFpga(dim, probe, rel::JoinSpec{0, 1}, options);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? stats->cycles : 0;
}

/// bench_hbm_scaling's engine at small fixed size: 8 HBM-resident tables
/// on 4 pseudo-channels, 32 inferences, seed 123.
uint64_t MicroRecScenario() {
  microrec::RecModel model = microrec::MakeTypicalModel(
      /*num_tables=*/8, /*seed=*/11, 1000, 50000, 16);
  microrec::MicroRecConfig cfg;
  cfg.sram_budget_bytes = 0;
  cfg.override_hbm_channels = 4;
  cfg.jobs_in_flight = 8;
  auto engine = microrec::MicroRecEngine::Create(
      &model, microrec::PlanWithoutCartesian(model), device::AlveoU280(), cfg);
  EXPECT_TRUE(engine.ok()) << engine.status();
  if (!engine.ok()) return 0;
  auto stats = engine->RunBatch(32, 123);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? stats->cycles : 0;
}

/// bench_accl shape at small fixed size: tree broadcast of 1024 floats
/// across 4 ranks over the RDMA transport.
uint64_t AcclBroadcastScenario() {
  accl::Communicator comm(4);
  std::vector<std::vector<float>> buffers(4, std::vector<float>(1024));
  for (size_t i = 0; i < buffers[0].size(); ++i) {
    buffers[0][i] = float(i) * 0.5f;
  }
  auto stats = comm.Broadcast(0, buffers, accl::Algo::kTree);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? stats->cycles : 0;
}

/// bench_shard_scaling's shape at small fixed size: 12 ANNS top-k queries
/// scattered across a 4-shard cluster over the loss-free fabric, gathered
/// and merged by the coordinator via `gather` (flat single-port by
/// default; shard_anns_tree locks the hierarchical-merge timing).
uint64_t ShardAnnsScenario(const shard::GatherConfig& gather) {
  anns::DatasetSpec spec;
  spec.num_base = 2048;
  spec.num_queries = 12;
  spec.dim = 16;
  spec.num_clusters = 8;
  spec.cluster_stddev = 0.3f;
  spec.seed = 41;
  const anns::Dataset data = anns::MakeDataset(spec);
  anns::IvfPqIndex::Options opts;
  opts.nlist = 16;
  opts.pq.m = 4;
  opts.pq.ksub = 32;
  opts.pq.train_iters = 6;
  auto index = anns::IvfPqIndex::Build(data.base, data.dim, opts);
  EXPECT_TRUE(index.ok()) << index.status();
  if (!index.ok()) return 0;
  shard::AnnsTopKWorkload::Config wc;
  wc.nprobe = 8;
  wc.k = 10;
  shard::AnnsTopKWorkload wl(&*index, shard::Partitioner::Hash(4), wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 4;
  cc.gather = gather;
  shard::ShardCluster cluster(&wl, cc);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    cluster.Submit(wl.AddQuery(data.QueryVector(q)));
  }
  auto cycles = cluster.Run();
  EXPECT_TRUE(cycles.ok()) << cycles.status();
  return cycles.ok() ? cycles.value() : 0;
}

/// 8 multi-gets of 48 keys over a 4-shard KVS cluster gathered through the
/// in-switch combiner on 2 coordinator ports — locks the AggregatingSwitch
/// timing model (combine pipeline, release serialization).
uint64_t ShardKvsSwitchScenario() {
  shard::KvsMultiGetWorkload::Config kc;
  shard::KvsMultiGetWorkload wl(shard::Partitioner::Hash(4), kc);
  for (uint64_t key = 0; key < 1000; ++key) {
    if (key % 5 != 0) wl.Load(key, key * 13 + 1);
  }
  shard::ShardCluster::Config cc;
  cc.num_shards = 4;
  cc.gather.topology = shard::GatherTopology::kSwitch;
  cc.gather.coordinator_ports = 2;
  shard::ShardCluster cluster(&wl, cc);
  for (uint64_t r = 0; r < 8; ++r) {
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 48; ++i) keys.push_back((r * 331 + i * 7) % 1000);
    cluster.Submit(wl.AddMultiGet(std::move(keys)));
  }
  auto cycles = cluster.Run();
  EXPECT_TRUE(cycles.ok()) << cycles.status();
  return cycles.ok() ? cycles.value() : 0;
}

/// Locks the failover timing model end to end: 8 multi-gets over a
/// 4-shard replicated (R=2) KVS cluster with health beacons, where shard
/// 1's primary loses both link directions permanently at cycle 150 —
/// mid-gather, so some slices are already in flight. The cycle count folds
/// in the retry ladder (rto 300, 2 retries), the beacon machinery, the
/// promotion, and the replay of every orphaned slice on the standby.
uint64_t ShardKvsFailoverScenario() {
  shard::KvsMultiGetWorkload::Config kc;
  shard::KvsMultiGetWorkload wl(shard::Partitioner::Hash(4), kc);
  for (uint64_t key = 0; key < 1000; ++key) {
    if (key % 5 != 0) wl.Load(key, key * 13 + 1);
  }
  shard::ShardCluster::Config cc;
  cc.num_shards = 4;
  cc.reliability.rto_cycles = 300;
  cc.reliability.max_retries = 2;
  cc.replica.replication_factor = 2;
  cc.replica.beacon_interval_cycles = 600;
  cc.replica.beacon_timeout_cycles = 1500;
  shard::ShardCluster cluster(&wl, cc);

  net::FaultInjector::Config fc;
  fc.flap_down_cycles = 1u << 30;  // Permanent: the standby must take over.
  net::FaultInjector injector(fc);
  const uint32_t victim = cluster.gather_plan().ReplicaNode(1, 0);
  injector.Schedule({150, victim, net::FaultInjector::kAnyNode,
                     net::FaultKind::kLinkFlap});
  injector.Schedule({150, net::FaultInjector::kAnyNode, victim,
                     net::FaultKind::kLinkFlap});
  cluster.set_fault_injector(&injector);

  for (uint64_t r = 0; r < 8; ++r) {
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 48; ++i) keys.push_back((r * 331 + i * 7) % 1000);
    cluster.Submit(wl.AddMultiGet(std::move(keys)));
  }
  auto cycles = cluster.Run();
  EXPECT_TRUE(cycles.ok()) << cycles.status();
  EXPECT_EQ(cluster.coordinator().failovers(), 1u);
  return cycles.ok() ? cycles.value() : 0;
}

/// Locks the live-resharding timing model: the shard_anns dataset on a
/// range partitioner over the 16 IVF lists, with lists 12..15 (shard 3's
/// whole slice) migrating to shard 0 while the 12 queries serve. The cycle
/// count folds in the paced kMigrateChunk stream, the ownership flip, the
/// forward-at-dequeue path for slices scattered pre-flip, and the drain.
uint64_t ShardAnnsReshardedScenario() {
  anns::DatasetSpec spec;
  spec.num_base = 2048;
  spec.num_queries = 12;
  spec.dim = 16;
  spec.num_clusters = 8;
  spec.cluster_stddev = 0.3f;
  spec.seed = 41;
  const anns::Dataset data = anns::MakeDataset(spec);
  anns::IvfPqIndex::Options opts;
  opts.nlist = 16;
  opts.pq.m = 4;
  opts.pq.ksub = 32;
  opts.pq.train_iters = 6;
  auto index = anns::IvfPqIndex::Build(data.base, data.dim, opts);
  EXPECT_TRUE(index.ok()) << index.status();
  if (!index.ok()) return 0;
  shard::AnnsTopKWorkload::Config wc;
  wc.nprobe = 8;
  wc.k = 10;
  shard::AnnsTopKWorkload wl(&*index, shard::Partitioner::Range({3, 7, 11, 15}),
                             wc);
  shard::ShardCluster::Config cc;
  cc.num_shards = 4;
  shard::ShardCluster cluster(&wl, cc);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    cluster.Submit(wl.AddQuery(data.QueryVector(q)));
  }
  shard::MigrationPlan plan;
  plan.source = 3;
  plan.target = 0;
  plan.range_lo = 12;
  plan.range_hi = 15;
  plan.state_bytes = 8192;
  plan.chunk_bytes = 1024;
  plan.chunk_interval_cycles = 16;
  cluster.StartMigration(plan);
  auto cycles = cluster.Run();
  EXPECT_TRUE(cycles.ok()) << cycles.status();
  EXPECT_EQ(cluster.coordinator().migrations_flipped(), 1u);
  return cycles.ok() ? cycles.value() : 0;
}

const std::vector<std::string> kScenarios = {
    "rdma_64x4k",  "rdma_1x1m",      "line_rate_filter",
    "hash_join",   "hbm_scaling",    "accl_broadcast",
    "shard_anns",  "shard_anns_tree", "shard_kvs_switch",
    "shard_kvs_failover", "shard_anns_resharded",
    "shard_anns_scatter_tree",
};

uint64_t RunScenario(const std::string& name,
                     sim::Scheduling scheduling = sim::DefaultScheduling()) {
  ScopedScheduling scoped(scheduling);
  if (name == "rdma_64x4k") return RdmaReadScenario(64, 4096);
  if (name == "rdma_1x1m") return RdmaReadScenario(1, 1ull << 20);
  if (name == "line_rate_filter") return LineRateFilterScenario();
  if (name == "hash_join") return HashJoinScenario();
  if (name == "hbm_scaling") return MicroRecScenario();
  if (name == "accl_broadcast") return AcclBroadcastScenario();
  if (name == "shard_anns") return ShardAnnsScenario(shard::GatherConfig{});
  if (name == "shard_anns_tree") {
    shard::GatherConfig gather;
    gather.topology = shard::GatherTopology::kTree;
    gather.fanout = 2;
    return ShardAnnsScenario(gather);
  }
  if (name == "shard_anns_scatter_tree") {
    // Tree both ways: multicast request bundles ride the same per-port
    // tree the pipelined partial merges climb — locks the scatter-bundle
    // forwarding and pipelined-merge timing.
    shard::GatherConfig gather;
    gather.topology = shard::GatherTopology::kTree;
    gather.fanout = 2;
    gather.scatter = shard::ScatterMode::kTree;
    gather.pipelined_merge = true;
    return ShardAnnsScenario(gather);
  }
  if (name == "shard_kvs_switch") return ShardKvsSwitchScenario();
  if (name == "shard_kvs_failover") return ShardKvsFailoverScenario();
  if (name == "shard_anns_resharded") return ShardAnnsReshardedScenario();
  ADD_FAILURE() << "unknown scenario " << name;
  return 0;
}

std::string GoldenPath() {
  return std::string(FPGADP_GOLDEN_DIR) + "/cycles.json";
}

/// Minimal parser for the flat {"name": count, ...} baseline file — avoids
/// a JSON dependency for six integers.
std::map<std::string, uint64_t> LoadGoldens() {
  std::map<std::string, uint64_t> goldens;
  std::ifstream in(GoldenPath());
  EXPECT_TRUE(in.good()) << "missing golden baseline " << GoldenPath()
                         << " — run tools/update_goldens.sh";
  std::string line;
  while (std::getline(in, line)) {
    const size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const size_t q2 = line.find('"', q1 + 1);
    const size_t colon = line.find(':', q2);
    if (q2 == std::string::npos || colon == std::string::npos) continue;
    goldens[line.substr(q1 + 1, q2 - q1 - 1)] =
        std::strtoull(line.c_str() + colon + 1, nullptr, 10);
  }
  return goldens;
}

void WriteGoldens(const std::map<std::string, uint64_t>& goldens) {
  std::ofstream out(GoldenPath());
  ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
  out << "{\n";
  size_t i = 0;
  for (const auto& [name, cycles] : goldens) {
    out << "  \"" << name << "\": " << cycles
        << (++i < goldens.size() ? "," : "") << "\n";
  }
  out << "}\n";
}

TEST(GoldenCycles, MatchesBaseline) {
  std::map<std::string, uint64_t> current;
  for (const std::string& name : kScenarios) {
    current[name] = RunScenario(name);
  }
  if (std::getenv("FPGADP_UPDATE_GOLDENS") != nullptr) {
    WriteGoldens(current);
    std::cout << "[golden] wrote " << current.size() << " baselines to "
              << GoldenPath() << "\n";
    return;
  }
  const auto goldens = LoadGoldens();
  for (const std::string& name : kScenarios) {
    ASSERT_TRUE(goldens.count(name))
        << name << " missing from baseline — run tools/update_goldens.sh";
    EXPECT_EQ(current[name], goldens.at(name))
        << "scenario " << name
        << " drifted from the golden baseline; if the timing model changed "
           "intentionally, regenerate with tools/update_goldens.sh";
  }
}

// The three cycle counts other parts of the repo hard-code (bench_rdma's
// zero-overhead guard and bench_line_rate's golden filter). Keeping them
// asserted here too means a drift is caught by `ctest -L golden` without
// running any bench binary.
TEST(GoldenCycles, SeedBuildAnchors) {
  EXPECT_EQ(RunScenario("rdma_64x4k"), 4700u);
  EXPECT_EQ(RunScenario("rdma_1x1m"), 17191u);
  EXPECT_EQ(RunScenario("line_rate_filter"), 100007u);
}

// The event scheduler is a pure optimization: the every-cycle level-tick
// reference loop must reproduce every scenario's cycle count bit for bit.
TEST(GoldenCycles, FastForwardInvariant) {
  for (const std::string& name : kScenarios) {
    const uint64_t event = RunScenario(name, sim::Scheduling::kEventDriven);
    const uint64_t tick = RunScenario(name, sim::Scheduling::kLevelTick);
    EXPECT_EQ(event, tick) << "scenario " << name;
  }
}

}  // namespace
}  // namespace fpgadp
