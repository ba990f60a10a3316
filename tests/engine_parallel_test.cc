// Determinism lockdown for the engine's performance modes: the parallel
// tick (Engine::SetThreads) and event-driven fast-forward must reproduce
// the serial cycle-stepped results bit-for-bit — cycle counts, per-module
// stall attribution, stream traffic, completion timestamps, and fault
// outcomes. Every test here runs the same workload under several
// (threads, fast_forward) configurations and diffs everything observable.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/accl/collectives.h"
#include "src/net/fabric.h"
#include "src/net/rdma.h"
#include "src/obs/metrics.h"
#include "src/relational/fpga_executor.h"
#include "src/relational/program.h"
#include "src/relational/table.h"
#include "src/sim/engine.h"
#include "src/sim/kernels.h"
#include "src/sim/stream.h"
#include "src/sim/thread_pool.h"

namespace fpgadp {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool sanity.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  sim::ThreadPool pool(4);
  const size_t n = 10000;
  std::vector<std::atomic<uint32_t>> hits(n);
  pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1u) << i;
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  sim::ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50ull * (99 * 100 / 2));
}

TEST(ThreadPoolTest, EdgeCases) {
  sim::ThreadPool pool(8);
  std::atomic<uint32_t> count{0};
  pool.ParallelFor(0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0u);
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1u);
  pool.ParallelFor(3, [&](size_t) { count.fetch_add(1); });  // n < threads
  EXPECT_EQ(count.load(), 4u);
  sim::ThreadPool serial(1);  // no workers at all
  serial.ParallelFor(5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 9u);
}

// ---------------------------------------------------------------------------
// Certified-module pipeline: everything observable must be bit-identical
// across thread counts.
// ---------------------------------------------------------------------------

struct ModuleCounters {
  uint64_t busy, starved, blocked, idle;
  bool operator==(const ModuleCounters& o) const {
    return busy == o.busy && starved == o.starved && blocked == o.blocked &&
           idle == o.idle;
  }
};

ModuleCounters Snapshot(const sim::Module& m) {
  return {m.busy_cycles(), m.starved_cycles(), m.blocked_cycles(),
          m.idle_cycles()};
}

struct PipelineResult {
  sim::Cycle cycles;
  std::vector<int64_t> collected;
  std::vector<ModuleCounters> counters;
  std::vector<std::pair<uint64_t, uint64_t>> stream_traffic;
};

PipelineResult RunKernelPipeline(uint32_t threads, bool fast_forward) {
  std::vector<int64_t> data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i) * 3 - 1000;
  sim::Stream<int64_t> s0("s0", 8), s1("s1", 8), s2("s2", 8);
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
  sim::Engine engine;
  engine.SetThreads(threads);
  engine.SetFastForward(fast_forward);
  // Fast-forward off selects the every-cycle level-tick oracle, so the
  // mode comparison also crosses schedulers.
  if (!fast_forward) engine.SetScheduling(sim::Scheduling::kLevelTick);
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
  for (const sim::Module* m :
       {static_cast<const sim::Module*>(&src),
        static_cast<const sim::Module*>(&map),
        static_cast<const sim::Module*>(&wire),
        static_cast<const sim::Module*>(&sink)}) {
    r.counters.push_back(Snapshot(*m));
  }
  for (const sim::StreamBase* s :
       {static_cast<const sim::StreamBase*>(&s0),
        static_cast<const sim::StreamBase*>(&s1),
        static_cast<const sim::StreamBase*>(&s2)}) {
    r.stream_traffic.push_back({s->TotalPushed(), s->TotalPopped()});
  }
  return r;
}

TEST(EngineParallelTest, KernelPipelineBitIdentical) {
  const PipelineResult serial = RunKernelPipeline(1, true);
  EXPECT_FALSE(serial.collected.empty());
  for (uint32_t threads : {2u, 8u}) {
    for (bool ff : {true, false}) {
      const PipelineResult other = RunKernelPipeline(threads, ff);
      EXPECT_EQ(serial.cycles, other.cycles)
          << "threads=" << threads << " ff=" << ff;
      EXPECT_EQ(serial.collected, other.collected);
      EXPECT_EQ(serial.counters, other.counters);
      EXPECT_EQ(serial.stream_traffic, other.stream_traffic);
    }
  }
}

// An uncertified module (no SetParallelSafe) must veto the parallel path,
// not break it: results stay identical, just computed serially.
class UncertifiedPassthrough : public sim::Module {
 public:
  UncertifiedPassthrough(std::string name, sim::Stream<int64_t>* in,
                         sim::Stream<int64_t>* out)
      : sim::Module(std::move(name)), in_(in), out_(out) {}
  void Tick(sim::Cycle) override {
    bool progressed = false;
    while (in_->CanRead() && out_->CanWrite()) {
      out_->Write(in_->Read());
      progressed = true;
    }
    if (progressed) MarkBusy();
  }
  bool Idle() const override { return true; }

 private:
  sim::Stream<int64_t>* in_;
  sim::Stream<int64_t>* out_;
};

TEST(EngineParallelTest, UncertifiedModuleFallsBackToSerial) {
  auto run = [](uint32_t threads) {
    std::vector<int64_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i);
    sim::Stream<int64_t> s0("s0", 4), s1("s1", 4);
    sim::VectorSource<int64_t> src("src", data, &s0);
    UncertifiedPassthrough mid("mid", &s0, &s1);
    sim::VectorSink<int64_t> sink("sink", &s1);
    sim::Engine engine;
    engine.SetThreads(threads);
    engine.AddModule(&src);
    engine.AddModule(&mid);
    engine.AddModule(&sink);
    engine.AddStream(&s0);
    engine.AddStream(&s1);
    auto result = engine.Run(1 << 20);
    EXPECT_TRUE(result.ok());
    return std::make_pair(result.ok() ? *result : 0, sink.collected());
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_EQ(serial.second.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Full relational pipeline through ExecuteFpga, including the exported
// metrics registry: every instrument must read identically at 1 and 8
// threads.
// ---------------------------------------------------------------------------

TEST(EngineParallelTest, ExecuteFpgaCyclesAndMetricsIdentical) {
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

  auto run = [&](uint32_t threads, std::string* metrics_dump) {
    sim::SetDefaultEngineThreads(threads);
    obs::MetricsRegistry registry;
    obs::SetGlobalMetrics(&registry);
    rel::FpgaOptions options;
    options.lanes = 2;
    options.stream_depth = 16;
    auto stats = rel::ExecuteFpga(p, table, options);
    obs::SetGlobalMetrics(nullptr);
    sim::SetDefaultEngineThreads(1);
    EXPECT_TRUE(stats.ok()) << stats.status();
    *metrics_dump = registry.ToString();
    return stats.ok() ? stats->cycles : 0;
  };
  std::string metrics1, metrics8;
  const uint64_t cycles1 = run(1, &metrics1);
  const uint64_t cycles8 = run(8, &metrics8);
  EXPECT_EQ(cycles1, cycles8);
  EXPECT_FALSE(metrics1.empty());
  EXPECT_EQ(metrics1, metrics8);
}

// ---------------------------------------------------------------------------
// Lossy RDMA: retransmission timers + injected faults are the adversarial
// case for both modes (fast-forward jumps between timer deadlines; the
// parallel tick must not reorder the injector's seeded draws). Completion
// tags, completion cycles, protocol counters, and final cycle counts must
// all match.
// ---------------------------------------------------------------------------

struct LossyRdmaResult {
  std::vector<std::pair<uint64_t, sim::Cycle>> completions;
  uint64_t retransmits_a, retransmits_b, dropped;
  sim::Cycle cycles;
  bool failed;
  bool operator==(const LossyRdmaResult& o) const {
    return completions == o.completions && retransmits_a == o.retransmits_a &&
           retransmits_b == o.retransmits_b && dropped == o.dropped &&
           cycles == o.cycles && failed == o.failed;
  }
};

LossyRdmaResult RunLossyRdma(uint32_t threads, bool fast_forward,
                             double drop_rate, uint32_t max_retries) {
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
  sim::Engine engine;
  engine.SetThreads(threads);
  engine.SetFastForward(fast_forward);
  // Fast-forward off selects the every-cycle level-tick oracle, so the
  // mode comparison also crosses schedulers.
  if (!fast_forward) engine.SetScheduling(sim::Scheduling::kLevelTick);
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
    r.completions.push_back({c.tag | (uint64_t(c.status == StatusCode::kOk
                                                   ? 0
                                                   : 1)
                                      << 32),
                             c.at});
  }
  r.retransmits_a = a.retransmits();
  r.retransmits_b = b.retransmits();
  r.dropped = fab.packets_dropped();
  r.failed = a.failed() || b.failed();
  return r;
}

TEST(EngineParallelTest, LossyRdmaDeterministicAcrossModes) {
  const LossyRdmaResult base = RunLossyRdma(1, true, 0.05, 8);
  EXPECT_EQ(base.completions.size(), 40u);
  EXPECT_FALSE(base.failed);
  EXPECT_GT(base.retransmits_a + base.retransmits_b, 0u);
  for (uint32_t threads : {1u, 8u}) {
    for (bool ff : {true, false}) {
      if (threads == 1 && ff) continue;  // the baseline itself
      const LossyRdmaResult other = RunLossyRdma(threads, ff, 0.05, 8);
      EXPECT_EQ(base, other) << "threads=" << threads << " ff=" << ff;
    }
  }
}

TEST(EngineParallelTest, FaultOutcomeIdenticalAcrossModes) {
  // A drop rate the retry cap cannot beat: the *failure* must also be
  // deterministic — same abandoned ops, same cycle counts.
  const LossyRdmaResult base = RunLossyRdma(1, true, 0.9, 2);
  EXPECT_TRUE(base.failed);
  for (uint32_t threads : {1u, 8u}) {
    for (bool ff : {true, false}) {
      if (threads == 1 && ff) continue;
      const LossyRdmaResult other = RunLossyRdma(threads, ff, 0.9, 2);
      EXPECT_EQ(base, other) << "threads=" << threads << " ff=" << ff;
    }
  }
}

// ---------------------------------------------------------------------------
// ACCL collectives build Step()-driven engines with uncertified driver
// modules — the parallel request must fall back serially and reproduce the
// exact collective timing.
// ---------------------------------------------------------------------------

TEST(EngineParallelTest, AcclCollectiveIdenticalAcrossThreadCounts) {
  auto run = [](uint32_t threads) {
    sim::SetDefaultEngineThreads(threads);
    accl::Communicator comm(4);
    std::vector<std::vector<float>> buffers(4, std::vector<float>(512));
    for (size_t i = 0; i < buffers[1].size(); ++i) {
      buffers[1][i] = float(i) * 0.25f;
    }
    auto stats = comm.Broadcast(1, buffers, accl::Algo::kTree);
    sim::SetDefaultEngineThreads(1);
    EXPECT_TRUE(stats.ok()) << stats.status();
    return std::make_pair(stats.ok() ? stats->cycles : 0, buffers);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

}  // namespace
}  // namespace fpgadp
