// Whole-pipeline scheduler equivalence: library pipelines run under the
// event scheduler must reproduce the every-cycle level-tick reference
// bit-for-bit — cycle counts, per-module stall attribution, stream traffic,
// completion timestamps, protocol counters, fault outcomes, and exported
// metrics. Each test runs one workload under both schedulers and diffs
// everything observable. (The arming-rule unit tests and the 100-seed
// sharded differentials are in engine_event_test.cc.)

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp {
namespace {

using sim::Cycle;
using sim::Engine;
using sim::Module;
using sim::Scheduling;
using sim::Stream;

/// Per-module stall-bucket snapshot for bit-identity assertions.
struct Buckets {
  uint64_t busy = 0, starved = 0, blocked = 0, idle = 0, attributed = 0;
};

Buckets BucketsOf(const Module& m) {
  return {m.busy_cycles(), m.starved_cycles(), m.blocked_cycles(),
          m.idle_cycles(), m.attributed_cycles()};
}

void ExpectSameBuckets(const Buckets& ref, const Buckets& got,
                       const std::string& label) {
  EXPECT_EQ(got.busy, ref.busy) << label << " busy";
  EXPECT_EQ(got.starved, ref.starved) << label << " starved";
  EXPECT_EQ(got.blocked, ref.blocked) << label << " blocked";
  EXPECT_EQ(got.idle, ref.idle) << label << " idle";
  EXPECT_EQ(got.attributed, ref.attributed) << label << " attributed";
}


struct PipelineResult {
  Cycle cycles = 0;
  std::vector<int64_t> collected;
  std::vector<Buckets> buckets;
  std::vector<std::pair<uint64_t, uint64_t>> stream_traffic;
};

/// Source -> filtering transform (II 2, latency 12) -> 25-cycle delay line
/// -> sink: latency shadows the event scheduler sleeps through, a filter
/// that drops items mid-stream, and backpressure on 8-deep FIFOs.
PipelineResult RunKernelPipeline(Scheduling sched) {
  std::vector<int64_t> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i) * 3 - 1000;
  Stream<int64_t> s0("s0", 8), s1("s1", 8), s2("s2", 8);
  sim::VectorSource<int64_t> src("src", data, &s0, /*lanes=*/2);
  sim::TransformKernel<int64_t, int64_t> map(
      "map", &s0, &s1,
      [](const int64_t& v) -> std::optional<int64_t> {
        if (v % 7 == 0) return std::nullopt;  // line-rate filter
        return v * 2;
      },
      sim::KernelTiming{1, 2, 12});
  sim::DelayLine<int64_t> wire("wire", &s1, &s2, /*latency=*/25, /*lanes=*/2);
  sim::VectorSink<int64_t> sink("sink", &s2, /*lanes=*/2);
  Engine engine;
  engine.SetScheduling(sched);
  engine.AddModule(&src);
  engine.AddModule(&map);
  engine.AddModule(&wire);
  engine.AddModule(&sink);
  engine.AddStream(&s0);
  engine.AddStream(&s1);
  engine.AddStream(&s2);
  auto run = engine.Run(1 << 22);
  EXPECT_TRUE(run.ok()) << run.status();
  PipelineResult r;
  r.cycles = run.ok() ? *run : 0;
  r.collected = sink.collected();
  r.buckets = {BucketsOf(src), BucketsOf(map), BucketsOf(wire),
               BucketsOf(sink)};
  for (const sim::StreamBase* s : {static_cast<const sim::StreamBase*>(&s0),
                                   static_cast<const sim::StreamBase*>(&s1),
                                   static_cast<const sim::StreamBase*>(&s2)}) {
    r.stream_traffic.push_back({s->TotalPushed(), s->TotalPopped()});
  }
  return r;
}

TEST(EngineEventPipelineTest, KernelPipelineCountersAndTrafficMatchTick) {
  const PipelineResult ref = RunKernelPipeline(Scheduling::kLevelTick);
  const PipelineResult event = RunKernelPipeline(Scheduling::kEventDriven);
  EXPECT_FALSE(ref.collected.empty());
  EXPECT_EQ(event.cycles, ref.cycles);
  EXPECT_EQ(event.collected, ref.collected);
  ASSERT_EQ(event.buckets.size(), ref.buckets.size());
  for (size_t i = 0; i < ref.buckets.size(); ++i) {
    ExpectSameBuckets(ref.buckets[i], event.buckets[i],
                      "module " + std::to_string(i));
  }
  EXPECT_EQ(event.stream_traffic, ref.stream_traffic);
}

struct LossyRdmaResult {
  std::vector<std::pair<uint64_t, Cycle>> completions;
  uint64_t retransmits_a = 0, retransmits_b = 0, dropped = 0;
  Cycle cycles = 0;
  bool failed = false;
  bool operator==(const LossyRdmaResult& o) const {
    return completions == o.completions && retransmits_a == o.retransmits_a &&
           retransmits_b == o.retransmits_b && dropped == o.dropped &&
           cycles == o.cycles && failed == o.failed;
  }
};

/// Two RDMA endpoints over a fabric that drops, corrupts and duplicates
/// packets from a seeded injector: retransmission timers decide almost
/// every visited cycle, and the event scheduler must reproduce the
/// injector's draw order exactly. Completion tags (with their status bit),
/// completion cycles, protocol counters and the final cycle must all match.
LossyRdmaResult RunLossyRdma(Scheduling sched, double drop_rate,
                             uint32_t max_retries) {
  net::FaultInjector::Config fc;
  fc.seed = 7;
  fc.drop_rate = drop_rate;
  fc.corrupt_rate = 0.02;
  fc.duplicate_rate = 0.02;
  net::FaultInjector injector(fc);
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", 2, cfg);
  fab.set_fault_injector(&injector);
  net::RdmaEndpoint::Reliability rel;
  rel.max_retries = max_retries;
  net::RdmaEndpoint a("a", 0, &fab, rel);
  net::RdmaEndpoint b("b", 1, &fab, rel);
  Engine engine;
  engine.SetScheduling(sched);
  fab.RegisterWith(engine);
  engine.AddModule(&a);
  engine.AddModule(&b);
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      a.PostWrite(1, uint64_t(i) * 256, 1 + uint64_t(i) * 97 % 8192,
                  uint64_t(i));
    } else {
      a.PostRead(1, uint64_t(i) * 256, 1 + uint64_t(i) * 131 % 8192,
                 uint64_t(i));
    }
  }
  auto run = engine.Run(1 << 24);
  EXPECT_TRUE(run.ok()) << run.status();
  LossyRdmaResult r;
  r.cycles = run.ok() ? *run : 0;
  net::Completion c;
  while (a.PollCompletion(&c)) {
    const uint64_t failed_bit = c.status == StatusCode::kOk ? 0 : 1;
    r.completions.push_back({c.tag | failed_bit << 32, c.at});
  }
  r.retransmits_a = a.retransmits();
  r.retransmits_b = b.retransmits();
  r.dropped = fab.packets_dropped();
  r.failed = a.failed() || b.failed();
  return r;
}

TEST(EngineEventPipelineTest, LossyRdmaCompletionsAndRetransmitsMatchTick) {
  const LossyRdmaResult ref = RunLossyRdma(Scheduling::kLevelTick, 0.05, 8);
  EXPECT_EQ(ref.completions.size(), 40u);
  EXPECT_FALSE(ref.failed);
  EXPECT_GT(ref.retransmits_a + ref.retransmits_b, 0u);
  EXPECT_EQ(RunLossyRdma(Scheduling::kEventDriven, 0.05, 8), ref);
}

TEST(EngineEventPipelineTest, FaultOutcomeMatchesTick) {
  // A drop rate the retry cap cannot beat: the *failure* must also be
  // deterministic — same abandoned ops, same cycle counts.
  const LossyRdmaResult ref = RunLossyRdma(Scheduling::kLevelTick, 0.9, 2);
  EXPECT_TRUE(ref.failed);
  EXPECT_EQ(RunLossyRdma(Scheduling::kEventDriven, 0.9, 2), ref);
}

// ---------------------------------------------------------------------------
// TCP on the event scheduler. TcpStack sleeps between arrivals on its hint
// (deferred packets, sendable data, SYN and segment timers), and Connect()
// and Send() wake it because callers mutate it outside its own Tick.

struct TcpRunResult {
  Cycle cycles = 0;
  uint64_t read_a = 0, read_b = 0;  // bytes readable at each end
  uint64_t segments_a = 0, segments_b = 0;
  uint64_t retransmits_a = 0, retransmits_b = 0;
  uint64_t fast_retransmits_a = 0, fast_retransmits_b = 0;
  std::vector<Buckets> buckets;  // a, b
};

void ExpectSameTcpRun(const TcpRunResult& ref, const TcpRunResult& got,
                      const std::string& label) {
  EXPECT_EQ(got.cycles, ref.cycles) << label;
  EXPECT_EQ(got.read_a, ref.read_a) << label;
  EXPECT_EQ(got.read_b, ref.read_b) << label;
  EXPECT_EQ(got.segments_a, ref.segments_a) << label;
  EXPECT_EQ(got.segments_b, ref.segments_b) << label;
  EXPECT_EQ(got.retransmits_a, ref.retransmits_a) << label;
  EXPECT_EQ(got.retransmits_b, ref.retransmits_b) << label;
  EXPECT_EQ(got.fast_retransmits_a, ref.fast_retransmits_a) << label;
  EXPECT_EQ(got.fast_retransmits_b, ref.fast_retransmits_b) << label;
  ASSERT_EQ(got.buckets.size(), ref.buckets.size()) << label;
  for (size_t i = 0; i < ref.buckets.size(); ++i) {
    ExpectSameBuckets(ref.buckets[i], got.buckets[i],
                      label + " stack " + std::to_string(i));
  }
}

/// Calls `stack->Send(peer, bytes)` from its own Tick at each cycle of
/// `at`, sleeping on a timer hint in between.
class TcpFeeder : public Module {
 public:
  TcpFeeder(std::string name, net::TcpStack* stack, uint32_t peer,
            uint64_t bytes, std::vector<Cycle> at)
      : Module(std::move(name)), stack_(stack), peer_(peer), bytes_(bytes),
        at_(std::move(at)) {}
  void Tick(Cycle c) override {
    if (next_ < at_.size() && c >= at_[next_]) {
      stack_->Send(peer_, bytes_);
      ++next_;
      MarkBusy();
    }
  }
  bool Idle() const override { return next_ == at_.size(); }
  Cycle NextEventCycle(Cycle now) const override {
    return next_ == at_.size() ? sim::kNoEventCycle : std::max(now, at_[next_]);
  }

 private:
  net::TcpStack* stack_;
  uint32_t peer_;
  uint64_t bytes_;
  std::vector<Cycle> at_;
  size_t next_ = 0;
};

/// Two stacks exchange a bulk transfer each way, queued before Run(). With
/// `seed` != 0 the fabric drops, duplicates and delays packets, so SYN and
/// segment timers, fast retransmits and out-of-order buffering all run.
/// `feed_at` adds a TcpFeeder that re-sends from a to b mid-run, registered
/// before the stacks (`feeder_first`) or after them.
TcpRunResult RunTcpPair(Scheduling sched, uint64_t seed,
                        std::vector<Cycle> feed_at = {},
                        bool feeder_first = false) {
  net::FaultInjector::Config fc;
  fc.seed = seed;
  fc.drop_rate = 0.02;
  fc.duplicate_rate = 0.02;
  fc.delay_rate = 0.02;
  net::FaultInjector injector(fc);
  net::Fabric::Config cfg;
  cfg.clock_hz = 200e6;
  net::Fabric fab("fab", 2, cfg);
  if (seed != 0) fab.set_fault_injector(&injector);
  net::TcpStack::Config tcfg;
  tcfg.mss_bytes = 2048;
  tcfg.window_bytes = 16 << 10;
  net::TcpStack a("a", 0, &fab, tcfg);
  net::TcpStack b("b", 1, &fab, tcfg);
  TcpFeeder feeder("feeder", &a, 1, 24 << 10, std::move(feed_at));
  Engine engine;
  engine.SetScheduling(sched);
  if (feeder_first) engine.AddModule(&feeder);
  fab.RegisterWith(engine);
  engine.AddModule(&a);
  engine.AddModule(&b);
  if (!feeder_first) engine.AddModule(&feeder);
  a.Send(1, 40 << 10);
  b.Send(0, 12 << 10);
  auto run = engine.Run(1 << 24);
  EXPECT_TRUE(run.ok()) << run.status();
  TcpRunResult r;
  r.cycles = run.ok() ? *run : 0;
  r.read_a = a.Readable(1);
  r.read_b = b.Readable(0);
  r.segments_a = a.segments_sent();
  r.segments_b = b.segments_sent();
  r.retransmits_a = a.retransmits();
  r.retransmits_b = b.retransmits();
  r.fast_retransmits_a = a.fast_retransmits();
  r.fast_retransmits_b = b.fast_retransmits();
  r.buckets = {BucketsOf(a), BucketsOf(b)};
  return r;
}

TEST(EngineEventPipelineTest, LossyTcpPairMatchesTick30Seeds) {
  int retransmitting = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const TcpRunResult ref = RunTcpPair(Scheduling::kLevelTick, seed);
    const TcpRunResult event = RunTcpPair(Scheduling::kEventDriven, seed);
    ExpectSameTcpRun(ref, event, "seed " + std::to_string(seed));
    if (ref.retransmits_a + ref.retransmits_b > 0) ++retransmitting;
  }
  // The seeds must exercise the timer paths the stacks sleep on.
  EXPECT_GE(retransmitting, 5);
}

TEST(EngineEventPipelineTest, TcpSendFromAnotherTickMatchesTick) {
  // Sends land while a is mid-transfer and after it has gone to sleep on an
  // established, drained connection, where only Send()'s own WakeUp can
  // rouse it. The feeder ticks before a in one order and after it in the
  // other, covering the next-cycle and same-cycle wake paths.
  const std::vector<Cycle> feed_at = {500, 3000, 40000, 90000};
  for (uint64_t seed : {0, 3}) {
    for (bool feeder_first : {true, false}) {
      const std::string label =
          "seed " + std::to_string(seed) +
          (feeder_first ? " feeder first" : " feeder last");
      const TcpRunResult ref =
          RunTcpPair(Scheduling::kLevelTick, seed, feed_at, feeder_first);
      EXPECT_EQ(ref.read_b, uint64_t(40 << 10) + 4 * (24 << 10)) << label;
      const TcpRunResult event =
          RunTcpPair(Scheduling::kEventDriven, seed, feed_at, feeder_first);
      ExpectSameTcpRun(ref, event, label);
    }
  }
}

// ---------------------------------------------------------------------------
// Full relational pipeline through ExecuteFpga, which builds its engine
// internally (so the scheduler is picked through the process default),
// including the exported metrics registry: every instrument must read
// identically under both schedulers.

TEST(EngineEventPipelineTest, ExecuteFpgaCyclesAndMetricsMatchTick) {
  rel::SyntheticTableSpec spec;
  spec.num_rows = 20000;
  spec.seed = 21;
  const rel::Table table = rel::MakeSyntheticTable(spec);
  rel::Program p;
  rel::FilterOp f;
  f.conjuncts.push_back(rel::Predicate{4, rel::CmpOp::kGe, 20});
  p.ops.push_back(f);
  rel::GroupByOp g;
  g.group_column = 2;
  g.agg = rel::AggregateOp{rel::AggKind::kSum, 4, false};
  p.ops.push_back(g);

  auto run = [&](Scheduling sched, std::string* metrics_dump) {
    const Scheduling saved = sim::DefaultScheduling();
    sim::SetDefaultScheduling(sched);
    obs::MetricsRegistry registry;
    obs::SetGlobalMetrics(&registry);
    rel::FpgaOptions options;
    options.lanes = 2;
    options.stream_depth = 16;
    auto stats = rel::ExecuteFpga(p, table, options);
    obs::SetGlobalMetrics(nullptr);
    sim::SetDefaultScheduling(saved);
    EXPECT_TRUE(stats.ok()) << stats.status();
    *metrics_dump = registry.ToString();
    return stats.ok() ? stats->cycles : 0;
  };
  std::string metrics_tick, metrics_event;
  const uint64_t cycles_tick = run(Scheduling::kLevelTick, &metrics_tick);
  const uint64_t cycles_event = run(Scheduling::kEventDriven, &metrics_event);
  EXPECT_GT(cycles_tick, 0u);
  EXPECT_EQ(cycles_event, cycles_tick);
  EXPECT_FALSE(metrics_tick.empty());
  EXPECT_EQ(metrics_event, metrics_tick);
}

}  // namespace
}  // namespace fpgadp
