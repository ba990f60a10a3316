#include "src/net/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/net/agg_switch.h"
#include "src/net/rdma.h"
#include "src/sim/engine.h"

namespace fpgadp::net {
namespace {

Fabric::Config TestConfig() {
  Fabric::Config cfg;
  cfg.bits_per_sec = 100e9;     // 62.5 B/cycle @200MHz
  cfg.clock_hz = 200e6;
  cfg.wire_latency_ns = 1000;   // 200 cycles
  cfg.header_bytes = 64;
  return cfg;
}

/// Steps `e` until `done()` or `max` cycles; returns cycles stepped.
template <typename Pred>
uint64_t StepUntil(sim::Engine& e, Pred done, uint64_t max = 1 << 24) {
  uint64_t cycles = 0;
  while (!done() && cycles < max) {
    e.Step();
    ++cycles;
  }
  return cycles;
}

TEST(FabricTest, DeliversPacketWithWireLatency) {
  Fabric fab("fab", 2, TestConfig());
  sim::Engine e;
  fab.RegisterWith(e);
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.bytes = 0;
  p.tag = 9;
  fab.egress(0).Write(p);
  const uint64_t cycles =
      StepUntil(e, [&] { return fab.ingress(1).CanRead(); });
  ASSERT_TRUE(fab.ingress(1).CanRead());
  EXPECT_EQ(fab.ingress(1).Read().tag, 9u);
  // ~200 cycles of wire plus serialization of the 64B header.
  EXPECT_GE(cycles, 200u);
  EXPECT_LE(cycles, 260u);
}

TEST(FabricTest, LargePayloadPaysOneSerializationCutThrough) {
  // 1 MiB at 62.5 B/cycle ≈ 16777 cycles serialization; cut-through
  // switching overlaps tx and rx, so the transfer costs ~ser + wire.
  Fabric fab("fab", 2, TestConfig());
  sim::Engine e;
  fab.RegisterWith(e);
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.bytes = 1 << 20;
  fab.egress(0).Write(p);
  const uint64_t cycles =
      StepUntil(e, [&] { return fab.ingress(1).CanRead(); });
  const uint64_t ser = uint64_t((1 << 20) / 62.5) + 2;
  EXPECT_GE(cycles, ser);
  EXPECT_LE(cycles, ser + 300);
}

TEST(FabricTest, IncastSerializesAtReceiver) {
  // 4 senders each push 64 KiB to node 0 simultaneously: the receiver port
  // is the bottleneck, so total time ~ 4x one transfer's rx serialization.
  Fabric fab("fab", 5, TestConfig());
  sim::Engine e;
  fab.RegisterWith(e);
  for (uint32_t s = 1; s <= 4; ++s) {
    Packet p;
    p.src = s;
    p.dst = 0;
    p.bytes = 64 << 10;
    fab.egress(s).Write(p);
  }
  const uint64_t cycles = StepUntil(e, [&] {
    while (fab.ingress(0).CanRead()) (void)fab.ingress(0).Read();
    return fab.packets_delivered() == 4;
  });
  const uint64_t one = uint64_t((64 << 10) / 62.5);
  EXPECT_GE(cycles, 4 * one);
  EXPECT_EQ(fab.packets_delivered(), 4u);
}

TEST(FabricTest, DistinctDestinationsProceedInParallel) {
  Fabric fab("fab", 4, TestConfig());
  sim::Engine e;
  fab.RegisterWith(e);
  for (uint32_t s = 0; s < 2; ++s) {
    Packet p;
    p.src = s;
    p.dst = s + 2;
    p.bytes = 64 << 10;
    fab.egress(s).Write(p);
  }
  const uint64_t cycles = StepUntil(e, [&] {
    return fab.ingress(2).CanRead() && fab.ingress(3).CanRead();
  });
  const uint64_t one = uint64_t((64 << 10) / 62.5);
  // Both transfers overlap; total stays near one transfer's 2x ser + wire.
  EXPECT_LE(cycles, 2 * one + 400);
}

struct RdmaPair {
  Fabric fab{"fab", 2, TestConfig()};
  RdmaEndpoint a{"ep0", 0, &fab};
  RdmaEndpoint b{"ep1", 1, &fab};
  sim::Engine e;

  RdmaPair() {
    fab.RegisterWith(e);
    e.AddModule(&a);
    e.AddModule(&b);
  }
};

TEST(RdmaTest, SendRecvDeliversMessage) {
  RdmaPair p;
  p.a.PostSend(1, /*bytes=*/256, /*tag=*/5);
  ASSERT_TRUE(p.e.Run(100000).ok());
  Packet msg;
  ASSERT_TRUE(p.b.PollRecv(&msg));
  EXPECT_EQ(msg.kind, OpKind::kSend);
  EXPECT_EQ(msg.bytes, 256u);
  EXPECT_EQ(msg.tag, 5u);
  Completion c;
  ASSERT_TRUE(p.a.PollCompletion(&c));
  EXPECT_EQ(c.kind, OpKind::kSend);
}

TEST(RdmaTest, OneSidedReadCompletesWithData) {
  RdmaPair p;
  p.a.PostRead(1, /*addr=*/0x1000, /*bytes=*/4096, /*tag=*/11);
  ASSERT_TRUE(p.e.Run(100000).ok());
  Completion c;
  ASSERT_TRUE(p.a.PollCompletion(&c));
  EXPECT_EQ(c.kind, OpKind::kReadResp);
  EXPECT_EQ(c.tag, 11u);
  EXPECT_EQ(c.bytes, 4096u);
  // The target CPU never saw anything (one-sided).
  Packet unused;
  EXPECT_FALSE(p.b.PollRecv(&unused));
}

TEST(RdmaTest, ReadLatencyIsRoundTrip) {
  RdmaPair p;
  p.a.PostRead(1, 0, 64, 1);
  auto cycles = p.e.Run(100000);
  ASSERT_TRUE(cycles.ok());
  // Two wire traversals (~400 cycles) plus serialization: at 200 MHz this
  // is ~2-3 us, the single-digit-microsecond RDMA read the tutorial quotes.
  EXPECT_GE(cycles.value(), 400u);
  EXPECT_LE(cycles.value(), 700u);
}

TEST(RdmaTest, WriteCompletesViaAck) {
  RdmaPair p;
  p.a.PostWrite(1, 0x2000, 1024, 21);
  ASSERT_TRUE(p.e.Run(100000).ok());
  Completion c;
  ASSERT_TRUE(p.a.PollCompletion(&c));
  EXPECT_EQ(c.kind, OpKind::kWriteAck);
  EXPECT_EQ(c.tag, 21u);
}

TEST(RdmaTest, ManyOutstandingReadsPipeline) {
  RdmaPair p;
  const int n = 32;
  for (int i = 0; i < n; ++i) p.a.PostRead(1, uint64_t(i) * 64, 64, i);
  auto cycles = p.e.Run(1 << 20);
  ASSERT_TRUE(cycles.ok());
  int completions = 0;
  Completion c;
  while (p.a.PollCompletion(&c)) ++completions;
  EXPECT_EQ(completions, n);
  // Pipelined reads amortize the RTT: far less than n * RTT.
  EXPECT_LT(cycles.value(), uint64_t(n) * 400);
}

// ---------------------------------------------------------------------------
// Scheduler differential for the fabric's port accounting and delivery
// index: the same seeded traffic — data, control-lane acks and beacons, an
// incast onto one port, aggregating-switch groups (whose absorbed
// contributions the fabric acks on the control lane), and injected drops,
// duplicates, delay spikes and a link flap — must leave every port's
// tx/rx busy cycles, the delivery totals, and each port's delivery sequence
// identical under the every-cycle tick loop and the event scheduler.

constexpr uint32_t kDiffNodes = 6;
constexpr uint32_t kIncastPort = kDiffNodes - 1;
constexpr uint32_t kAggGroups = 6;

/// Writes a pre-drawn schedule of packets to one egress port, each at or
/// after its cycle (later when the FIFO is full).
class ScheduledSender : public sim::Module {
 public:
  ScheduledSender(std::string name, sim::Stream<Packet>* out,
                  std::vector<std::pair<sim::Cycle, Packet>> schedule)
      : Module(std::move(name)), out_(out), schedule_(std::move(schedule)) {
    out_->BindProducer(this);
  }
  void Tick(sim::Cycle c) override {
    bool sent = false;
    while (next_ < schedule_.size() && schedule_[next_].first <= c &&
           out_->CanWrite()) {
      out_->Write(schedule_[next_++].second);
      sent = true;
    }
    if (sent) MarkBusy();
  }
  bool Idle() const override { return next_ == schedule_.size(); }
  sim::Cycle NextEventCycle(sim::Cycle now) const override {
    if (next_ == schedule_.size()) return sim::kNoEventCycle;
    return std::max(schedule_[next_].first, now);
  }

 private:
  sim::Stream<Packet>* out_;
  std::vector<std::pair<sim::Cycle, Packet>> schedule_;
  size_t next_ = 0;
};

using DeliveryRecord = std::tuple<sim::Cycle, uint32_t, int, uint64_t,
                                  uint64_t, uint64_t, uint64_t, bool>;

/// Reads at most one packet every 4th cycle and nothing at all in
/// [kPauseFrom, kPauseTo), so bursts back up into a full ingress FIFO and
/// the fabric's blocked-delivery path runs; logs each packet with the cycle
/// it was read.
class SlowReceiver : public sim::Module {
 public:
  SlowReceiver(std::string name, sim::Stream<Packet>* in)
      : Module(std::move(name)), in_(in) {
    in_->BindConsumer(this);
  }
  void Tick(sim::Cycle c) override {
    if (c % 4 != 0 || (c >= kPauseFrom && c < kPauseTo) ||
        !in_->CanRead()) {
      return;
    }
    const Packet p = in_->Read();
    log_.emplace_back(c, p.src, int(p.kind), p.tag, p.user, p.addr, p.bytes,
                      p.corrupt);
    MarkBusy();
  }
  bool Idle() const override { return true; }
  sim::Cycle NextEventCycle(sim::Cycle) const override {
    return sim::kNoEventCycle;
  }
  const std::vector<DeliveryRecord>& log() const { return log_; }

  static constexpr sim::Cycle kPauseFrom = 1500;
  static constexpr sim::Cycle kPauseTo = 4000;

 private:
  sim::Stream<Packet>* in_;
  std::vector<DeliveryRecord> log_;
};

struct FabricRunState {
  sim::Cycle cycles = 0;
  uint64_t delivered = 0;
  uint64_t payload = 0;
  uint64_t dropped = 0;
  std::vector<uint64_t> tx_busy, rx_busy;
  uint64_t fabric_busy = 0, fabric_idle = 0;
  std::vector<std::vector<DeliveryRecord>> deliveries;  // per port
  uint64_t combines = 0, releases = 0, duplicates = 0, delays = 0;
};

FabricRunState RunSeededFabric(uint64_t seed, sim::Scheduling scheduling) {
  Fabric fab("fab", kDiffNodes, TestConfig());
  FaultInjector::Config fc;
  fc.seed = seed;
  fc.duplicate_rate = 0.05;
  fc.delay_rate = 0.05;
  fc.delay_spike_cycles = 300;
  fc.flap_down_cycles = 500;
  FaultInjector injector(fc);
  AggregatingSwitch agg(AggregatingSwitch::Config{},
                        [](uint64_t, const GatherReply& folded) {
                          return folded.concat_bytes() / 2 + 8;
                        });
  fab.set_fault_injector(&injector);
  fab.set_agg_switch(&agg);

  Rng rng(seed * 7919 + 1);
  // Drops target data packets only, and the flap a link the aggregation
  // traffic never uses: a lost contribution would hold its group open.
  for (int i = 0; i < 4; ++i) {
    injector.Schedule({rng.NextBounded(6000),
                       uint32_t(rng.NextBounded(kDiffNodes)),
                       FaultInjector::kAnyNode, FaultKind::kDrop,
                       int(OpKind::kSend)});
  }
  injector.Schedule({rng.NextBounded(6000), 0, 1, FaultKind::kLinkFlap,
                     int(OpKind::kSend)});
  for (uint32_t g = 0; g < kAggGroups; ++g) {
    agg.Arm(g, kIncastPort, /*members=*/kIncastPort);  // every other node
  }

  std::vector<std::unique_ptr<ScheduledSender>> senders;
  std::vector<std::unique_ptr<SlowReceiver>> receivers;
  for (uint32_t n = 0; n < kDiffNodes; ++n) {
    std::vector<std::pair<sim::Cycle, Packet>> sched;
    sim::Cycle t = 0;
    // Bursts separated by idle gaps, so the event scheduler gets cycles to
    // skip.
    for (int burst = 0; burst < 6; ++burst) {
      t += 200 + rng.NextBounded(1200);
      const uint64_t len = 1 + rng.NextBounded(40);
      for (uint64_t i = 0; i < len; ++i) {
        Packet p;
        p.src = n;
        p.tag = sched.size();
        const uint64_t roll = rng.NextBounded(10);
        if (roll < 4 || roll > 7) {
          p.dst = kIncastPort;  // incast
        } else {
          p.dst = uint32_t(rng.NextBounded(kDiffNodes));
        }
        if (roll == 4 || roll == 8) {
          p.kind = OpKind::kRdmaAck;  // control lane, header only
          p.seq = 1 + rng.NextBounded(100);
        } else if (roll == 5) {
          p.kind = OpKind::kHealthBeacon;
        } else {
          p.kind = OpKind::kSend;
          p.bytes = rng.NextBounded(4096);
        }
        sched.emplace_back(t + rng.NextBounded(3), p);
      }
    }
    if (n != kIncastPort) {
      // One sequenced contribution per aggregation group.
      for (uint32_t g = 0; g < kAggGroups; ++g) {
        Packet p;
        p.src = n;
        p.dst = kIncastPort;
        p.kind = OpKind::kOffloadResp;
        p.user = g;
        p.bytes = 64 + rng.NextBounded(2048);
        GatherReply::Entry entry;
        entry.tag = n;
        entry.shard = n;
        entry.own_bytes = p.bytes;
        p.reply.Add(entry);
        p.seq = 1000 + g;
        sched.emplace_back(500 + g * 900 + rng.NextBounded(400), p);
      }
    }
    std::stable_sort(sched.begin(), sched.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    senders.push_back(std::make_unique<ScheduledSender>(
        "send" + std::to_string(n), &fab.egress(n), std::move(sched)));
    receivers.push_back(std::make_unique<SlowReceiver>(
        "recv" + std::to_string(n), &fab.ingress(n)));
  }

  sim::Engine e;
  e.SetScheduling(scheduling);
  for (auto& s : senders) e.AddModule(s.get());
  fab.RegisterWith(e);
  for (auto& r : receivers) e.AddModule(r.get());
  auto cycles = e.Run(1u << 22);
  EXPECT_TRUE(cycles.ok()) << "seed " << seed;

  FabricRunState st;
  st.cycles = cycles.ok() ? *cycles : 0;
  st.delivered = fab.packets_delivered();
  st.payload = fab.payload_bytes_delivered();
  st.dropped = fab.packets_dropped();
  for (uint32_t n = 0; n < kDiffNodes; ++n) {
    st.tx_busy.push_back(fab.tx_busy_cycles(n));
    st.rx_busy.push_back(fab.rx_busy_cycles(n));
    st.deliveries.push_back(receivers[n]->log());
  }
  st.fabric_busy = fab.busy_cycles();
  st.fabric_idle = fab.idle_cycles();
  st.combines = agg.combines();
  st.releases = agg.releases();
  st.duplicates = injector.fault_count(FaultKind::kDuplicate);
  st.delays = injector.fault_count(FaultKind::kDelay);
  return st;
}

void ExpectSameFabricRun(const FabricRunState& ref, const FabricRunState& got,
                         const std::string& what) {
  EXPECT_EQ(got.cycles, ref.cycles) << what;
  EXPECT_EQ(got.delivered, ref.delivered) << what;
  EXPECT_EQ(got.payload, ref.payload) << what;
  EXPECT_EQ(got.dropped, ref.dropped) << what;
  EXPECT_EQ(got.tx_busy, ref.tx_busy) << what;
  EXPECT_EQ(got.rx_busy, ref.rx_busy) << what;
  EXPECT_EQ(got.fabric_busy, ref.fabric_busy) << what;
  EXPECT_EQ(got.fabric_idle, ref.fabric_idle) << what;
  EXPECT_EQ(got.combines, ref.combines) << what;
  EXPECT_EQ(got.releases, ref.releases) << what;
  for (uint32_t n = 0; n < kDiffNodes; ++n) {
    EXPECT_EQ(got.deliveries[n], ref.deliveries[n]) << what << " port " << n;
  }
}

TEST(FabricTest, PortAccountingAndDeliveryMatchAcrossSchedulers) {
  uint64_t releases = 0, duplicates = 0, delays = 0, dropped = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const FabricRunState oracle =
        RunSeededFabric(seed, sim::Scheduling::kLevelTick);
    const FabricRunState event =
        RunSeededFabric(seed, sim::Scheduling::kEventDriven);
    const std::string tag = "seed " + std::to_string(seed);
    ExpectSameFabricRun(oracle, event, tag + " event");
    releases += oracle.releases;
    duplicates += oracle.duplicates;
    delays += oracle.delays;
    dropped += oracle.dropped;
  }
  // The sweep must actually exercise what it claims to.
  EXPECT_EQ(releases, 20u * kAggGroups);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(delays, 0u);
  EXPECT_GT(dropped, 0u);
}

}  // namespace
}  // namespace fpgadp::net
