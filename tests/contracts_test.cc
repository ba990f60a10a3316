// Contract tests: programmer-error paths guarded by FPGADP_CHECK must
// abort (death tests), and edge-case behaviours of small utilities.

#include <gtest/gtest.h>

#include "src/anns/topk.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/microrec/engine.h"
#include "src/net/tcp.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"
#include "src/sim/tap.h"

namespace fpgadp {
namespace {

TEST(CheckDeathTest, StreamOverflowAborts) {
  sim::Stream<int> s("s", 1);
  s.Write(1);
  EXPECT_DEATH(s.Write(2), "CanWrite");
}

TEST(CheckDeathTest, StreamUnderflowAborts) {
  sim::Stream<int> s("s", 1);
  EXPECT_DEATH((void)s.Read(), "CanRead");
}

class NopModule : public sim::Module {
 public:
  using sim::Module::Module;
  void Tick(sim::Cycle) override {}
  bool Idle() const override { return true; }
};

TEST(CheckDeathTest, StreamsAreSingleProducerSingleConsumer) {
  NopModule a("a"), b("b");
  sim::Stream<int> s("s", 4);
  // Re-binding the module already bound to a side is a no-op.
  s.BindProducer(&a);
  s.BindProducer(&a);
  s.BindConsumer(&b);
  s.BindConsumer(&b);
  EXPECT_EQ(s.producer(), &a);
  EXPECT_EQ(s.consumer(), &b);
  // A second, different module on either side aborts.
  EXPECT_DEATH(s.BindProducer(&b), "producer_");
  EXPECT_DEATH(s.BindConsumer(&a), "consumer_");
}

TEST(CheckDeathTest, ResultValueOnErrorAborts) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_DEATH((void)r.value(), "ok");
}

TEST(CheckDeathTest, ZipfRejectsBadTheta) {
  EXPECT_DEATH(ZipfGenerator(10, 1.5, 1), "theta");
  EXPECT_DEATH(ZipfGenerator(0, 0.5, 1), "n > 0");
}

TEST(CheckDeathTest, SystolicTopKRejectsZeroK) {
  EXPECT_DEATH(anns::SystolicTopK(0), "k > 0");
}

TEST(StreamEdgeTest, PeekDoesNotConsume) {
  sim::Stream<int> s("s", 4);
  s.Write(9);
  s.Commit();
  EXPECT_EQ(s.Peek(), 9);
  EXPECT_EQ(s.Size(), 1u);
  EXPECT_EQ(s.Read(), 9);
}

TEST(StreamTapEdgeTest, EmptyTapHasZeroGap) {
  sim::Stream<int> a("a", 2), b("b", 2);
  sim::StreamTap<int> tap("tap", &a, &b);
  EXPECT_EQ(tap.MaxInterArrivalGap(), 0u);
  EXPECT_EQ(tap.forwarded(), 0u);
}

TEST(TcpEdgeTest, ConnectIsIdempotent) {
  net::Fabric fab("fab", 2, [] {
    net::Fabric::Config c;
    c.clock_hz = 200e6;
    return c;
  }());
  net::TcpStack a("a", 0, &fab);
  net::TcpStack b("b", 1, &fab);
  sim::Engine e;
  fab.RegisterWith(e);
  e.AddModule(&a);
  e.AddModule(&b);
  a.Connect(1);
  a.Connect(1);
  a.Connect(1);
  uint64_t guard = 0;
  while (!a.Connected(1) && guard++ < 10000) e.Step();
  EXPECT_TRUE(a.Connected(1));
  // Only one SYN went out: the peer saw exactly one connection.
  EXPECT_TRUE(b.Connected(0));
  EXPECT_EQ(a.segments_sent(), 0u);  // no data yet
}

TEST(TcpEdgeTest, ZeroByteSendIsNoop) {
  net::Fabric fab("fab", 2, [] {
    net::Fabric::Config c;
    c.clock_hz = 200e6;
    return c;
  }());
  net::TcpStack a("a", 0, &fab);
  net::TcpStack b("b", 1, &fab);
  sim::Engine e;
  fab.RegisterWith(e);
  e.AddModule(&a);
  e.AddModule(&b);
  a.Send(1, 0);
  for (int i = 0; i < 2000; ++i) e.Step();
  EXPECT_EQ(b.Readable(0), 0u);
  EXPECT_EQ(a.segments_sent(), 0u);
  EXPECT_TRUE(a.Idle());
}

TEST(MicroRecEdgeTest, PipeliningHelpsThroughput) {
  microrec::RecModel m =
      microrec::MakeTypicalModel(32, 3, 10000, 200000, 16);
  m.hidden_layers = {};
  microrec::MicroRecConfig serial, pipelined;
  serial.jobs_in_flight = 1;
  serial.sram_budget_bytes = 0;
  serial.override_hbm_channels = 8;
  pipelined = serial;
  pipelined.jobs_in_flight = 16;
  auto e1 = microrec::MicroRecEngine::Create(
      &m, microrec::PlanWithoutCartesian(m), device::AlveoU280(), serial);
  auto e2 = microrec::MicroRecEngine::Create(
      &m, microrec::PlanWithoutCartesian(m), device::AlveoU280(), pipelined);
  ASSERT_TRUE(e1.ok() && e2.ok());
  auto s1 = e1->RunBatch(64, 5);
  auto s2 = e2->RunBatch(64, 5);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_GT(s2->inferences_per_sec, 1.5 * s1->inferences_per_sec)
      << "overlapping inferences must hide lookup latency";
}

TEST(MicroRecEdgeTest, LatencyLessThanSerialBatchTime) {
  microrec::RecModel m =
      microrec::MakeTypicalModel(32, 3, 10000, 200000, 16);
  auto engine = microrec::MicroRecEngine::Create(
      &m, microrec::PlanWithoutCartesian(m), device::AlveoU280());
  ASSERT_TRUE(engine.ok());
  auto stats = engine->RunBatch(32, 7);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->latency_us, stats->seconds * 1e6)
      << "one inference must be faster than the whole batch";
}

}  // namespace
}  // namespace fpgadp
