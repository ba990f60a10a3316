#ifndef FPGADP_NET_FABRIC_H_
#define FPGADP_NET_FABRIC_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/sim/engine.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::net {

class AggregatingSwitch;

/// RDMA-style operation kinds carried on the wire.
enum class OpKind : uint8_t {
  kSend = 0,      ///< Two-sided send (consumed by a matching receive).
  kReadReq = 1,   ///< One-sided read request (header-only).
  kReadResp = 2,  ///< Read response carrying the requested payload.
  kWrite = 3,     ///< One-sided write carrying payload.
  kWriteAck = 4,  ///< Hardware ACK completing a write.
  kOffloadReq = 5,  ///< Farview: read-with-offloaded-operator request.
  kOffloadResp = 6, ///< Farview: filtered/aggregated result payload.
  kTcpSyn = 7,      ///< TCP session layer: connection request.
  kTcpSynAck = 8,   ///< TCP session layer: connection accept.
  kTcpData = 9,     ///< TCP session layer: data segment.
  kTcpAck = 10,     ///< TCP session layer: cumulative ACK (header-only).
  kRdmaAck = 11,    ///< Link-level ACK for a sequenced packet (lossy mode).
  kRdmaNack = 12,   ///< Link-level NACK: payload CRC failed, resend now.
  kHealthBeacon = 13,  ///< Shard liveness beacon (replica -> coordinator port).
  kMigrateStart = 14,  ///< Coordinator -> source shard: begin streaming a range.
  kMigrateChunk = 15,  ///< Source -> target shard: one chunk of migrated state.
  kMigrateDone = 16,   ///< Target -> coordinator: all chunk bytes received.
  kOffloadFwd = 17,    ///< Shard -> shard: a slice handed to its new owner
                       ///< (live resharding); `user2` = its scatter shard.
  kScatterBundle = 18, ///< Coordinator/shard -> shard: a scatter-tree bundle
                       ///< carrying the recipient's slice and its subtree's.
};

/// The reply record of a partial-result gather, carried by kOffloadResp
/// packets: one entry per request slice the reply answers, plus the
/// concatenated payload size of the partial results folded into it. A
/// shard's own reply holds one entry; tree-gather interior shards and the
/// switch combiners fold replies into one record and forward it.
///
/// A handle: copies share one immutable record, so a packet's copies
/// through NIC queues and the fabric cost a pointer each, and only the
/// builder holding the sole handle appends (a shared record is copied
/// first). Records are recycled through a per-thread pool, so a steady
/// stream of replies does not touch the heap.
class GatherReply {
 public:
  struct Entry {
    uint64_t tag = 0;             ///< The coordinator's tag for the slice.
    uint64_t service_cycles = 0;  ///< Shard pipeline occupancy (if served).
    uint64_t own_bytes = 0;       ///< The slice's own partial-result bytes.
    uint32_t shard = 0;           ///< The slice's scatter shard.
    bool rejected = false;        ///< Shed at shard admission ("busy").
  };

  GatherReply() = default;
  GatherReply(const GatherReply& other) : rec_(other.rec_) {
    if (rec_ != nullptr) ++rec_->refs;
  }
  GatherReply(GatherReply&& other) noexcept
      : rec_(std::exchange(other.rec_, nullptr)) {}
  GatherReply& operator=(GatherReply other) noexcept {
    std::swap(rec_, other.rec_);
    return *this;
  }
  ~GatherReply() {
    if (rec_ != nullptr) Release();
  }

  std::span<const Entry> entries() const {
    return rec_ == nullptr ? std::span<const Entry>()
                           : std::span<const Entry>(rec_->entries);
  }
  size_t size() const { return entries().size(); }
  /// Sum of the payload bytes of everything folded in so far.
  uint64_t concat_bytes() const {
    return rec_ == nullptr ? 0 : rec_->concat_bytes;
  }

  /// Adds one slice's own entry; its partial result joins the payload.
  void Add(const Entry& entry) {
    Record& r = Own();
    r.entries.push_back(entry);
    r.concat_bytes += entry.own_bytes;
  }
  /// Folds another reply in, whose merged wire payload was `payload_bytes`.
  void Fold(const GatherReply& other, uint64_t payload_bytes) {
    const std::span<const Entry> more = other.entries();
    Record& r = Own();
    r.entries.insert(r.entries.end(), more.begin(), more.end());
    r.concat_bytes += payload_bytes;
  }

 private:
  struct Record {
    std::vector<Entry> entries;
    uint64_t concat_bytes = 0;
    uint32_t refs = 1;
  };
  static std::vector<std::unique_ptr<Record>>& Pool();

  /// The record this handle may write: its own when unshared, else a fresh
  /// (pooled) copy.
  Record& Own();
  /// Drops this handle's share, recycling the record when it was the last.
  void Release();

  Record* rec_ = nullptr;
};

/// A message on the fabric. `bytes` is payload size; the fabric adds the
/// configured header overhead when computing serialization time. Payload
/// contents travel functionally (the endpoint that created the packet and
/// the one consuming it share process memory), the fabric models time.
struct Packet {
  uint32_t src = 0;
  uint32_t dst = 0;
  OpKind kind = OpKind::kSend;
  uint64_t tag = 0;
  uint64_t addr = 0;   ///< Remote address for READ/WRITE.
  uint64_t bytes = 0;  ///< Payload bytes.
  uint64_t user = 0;   ///< Opaque field for upper layers (e.g. descriptor id).
  uint64_t user2 = 0;  ///< Second opaque field (e.g. a KV value).
  uint64_t seq = 0;    ///< Link-level sequence number (0 = unsequenced). For
                       ///< kRdmaAck/kRdmaNack/kTcpAck it names the acked seq /
                       ///< cumulative byte offset instead.
  bool corrupt = false;  ///< Payload failed its CRC (set by the FaultInjector);
                         ///< receivers must discard or NACK, never consume.
  GatherReply reply;  ///< Shard-layer kOffloadResp: the slices it answers.
};

/// The kinds of link fault the injector can produce.
enum class FaultKind : uint8_t {
  kDrop = 0,       ///< Packet vanishes in the switch after tx serialization.
  kCorrupt = 1,    ///< Packet arrives with `corrupt` set (payload CRC fail).
  kDuplicate = 2,  ///< Switch emits the packet twice.
  kDelay = 3,      ///< Delivery pays an extra latency spike.
  kLinkFlap = 4,   ///< The (src,dst) link goes down for a window of cycles.
};
inline constexpr int kNumFaultKinds = 5;

/// Returns a stable lowercase name for `kind` ("drop", "corrupt", ...).
const char* FaultKindName(FaultKind kind);

/// A seeded, deterministic per-link fault model the Fabric consults once per
/// packet pickup. Two sources of faults compose:
///
///  * probabilistic: per-packet Bernoulli draws for drop / corrupt /
///    duplicate / delay-spike, from one seeded xoshiro stream — the same
///    seed and offered traffic always yield the same fault pattern, so every
///    recovery path is exactly reproducible;
///  * scheduled: explicit `(cycle, src, dst, kind)` entries, each firing on
///    the first matching packet at or after `cycle` (one-shot), which lets
///    tests script "drop exactly the 3rd segment" scenarios.
///
/// A kLinkFlap fault takes the (src,dst) link down for `flap_down_cycles`;
/// every packet offered to a down link is dropped. Attach to a Fabric with
/// Fabric::set_fault_injector(); endpoints detect the attachment
/// (Fabric::lossy()) and switch on their reliability protocols.
class FaultInjector {
 public:
  static constexpr uint32_t kAnyNode = 0xffffffffu;

  struct Config {
    uint64_t seed = 1;
    double drop_rate = 0;       ///< P(drop) per packet.
    double corrupt_rate = 0;    ///< P(payload corruption) per packet.
    double duplicate_rate = 0;  ///< P(switch duplicates) per packet.
    double delay_rate = 0;      ///< P(delay spike) per packet.
    uint64_t delay_spike_cycles = 2000;  ///< Extra latency of one spike.
    uint64_t flap_down_cycles = 4000;    ///< Outage length of one link flap.
  };

  /// One scheduled fault: fires on the first packet matching (src, dst) —
  /// kAnyNode matches everything — picked up at or after `cycle`. When
  /// `op_filter` is set, only packets of that OpKind match, so a fault can
  /// target e.g. an offload response without hitting the RDMA ACKs sharing
  /// the link.
  struct Entry {
    sim::Cycle cycle = 0;
    uint32_t src = kAnyNode;
    uint32_t dst = kAnyNode;
    FaultKind kind = FaultKind::kDrop;
    int op_filter = -1;  ///< -1 = any; else an OpKind value.
  };

  /// What the fabric should do with one packet.
  struct Decision {
    bool drop = false;
    bool corrupt = false;
    bool duplicate = false;
    uint64_t extra_delay_cycles = 0;
  };

  explicit FaultInjector(const Config& config) : config_(config),
                                                 rng_(config.seed) {}

  /// Queues a scheduled fault.
  void Schedule(const Entry& entry) {
    schedule_.push_back(entry);
    fired_.push_back(false);
  }

  /// Consulted by the Fabric once per packet pickup; draws faults and
  /// advances the deterministic stream. Not idempotent — only the fabric
  /// should call this.
  Decision OnPacket(sim::Cycle cycle, const Packet& packet);

  /// True while the (src,dst) link is inside a flap outage.
  bool LinkDown(sim::Cycle cycle, uint32_t src, uint32_t dst) const;

  /// Earliest cycle strictly after `now` at which an unfired scheduled
  /// entry arms, or sim::kNoEventCycle if none. Entries latch on packet
  /// pickup, so this only bounds the fabric's event hint (the fabric must
  /// be awake at the arming cycle); it never fires anything by itself.
  sim::Cycle NextScheduledCycle(sim::Cycle now) const;

  uint64_t fault_count(FaultKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }
  uint64_t total_faults() const;
  const Config& config() const { return config_; }

 private:
  struct Flap {
    uint32_t src, dst;
    sim::Cycle until;
  };

  void Count(FaultKind kind) { ++counts_[static_cast<size_t>(kind)]; }

  Config config_;
  Rng rng_;
  std::vector<Entry> schedule_;
  std::vector<bool> fired_;  // parallel to schedule_
  std::vector<Flap> flaps_;
  uint64_t counts_[kNumFaultKinds] = {};
};

/// A single-switch 100 Gbps fabric connecting `num_nodes` endpoints — the
/// shape of the HACC cluster the tutorial describes. Models, per packet:
/// sender NIC serialization, propagation + switching latency, and receiver
/// NIC serialization; each NIC port is a serialized resource, so incasts
/// queue at the receiver exactly as they would on real hardware.
///
/// By default the fabric is loss-free and order-preserving per (src,dst)
/// pair. Attaching a FaultInjector makes it lossy: packets may be dropped,
/// corrupted, duplicated, delayed, or lost to link flaps, each fault counted
/// in the metrics registry and emitted as a trace instant. Endpoints check
/// lossy() and enable their reliability protocols (see rdma.h / tcp.h).
class Fabric : public sim::Module {
 public:
  struct Config {
    double bits_per_sec = 100e9;   ///< Port line rate.
    double clock_hz = 200e6;       ///< Kernel clock domain of the simulation.
    double wire_latency_ns = 1000; ///< One-way wire + switch latency.
    uint32_t header_bytes = 64;    ///< Per-packet framing overhead.
  };

  Fabric(std::string name, uint32_t num_nodes, const Config& config);

  /// Stream a node writes its outgoing packets to.
  sim::Stream<Packet>& egress(uint32_t node) { return *egress_[node]; }
  /// Stream a node reads its incoming packets from.
  sim::Stream<Packet>& ingress(uint32_t node) { return *ingress_[node]; }

  /// Registers the fabric module and all port streams with `engine`.
  void RegisterWith(sim::Engine& engine);

  /// Attaches (or detaches, with nullptr) a fault injector. Must be done
  /// before traffic is offered: endpoints key their reliability protocols
  /// off lossy(), and switching mid-flight would strand unsequenced
  /// packets. When no injector is attached the fabric is loss-free and
  /// byte-identical to the pre-fault-model behaviour.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }
  /// True iff a fault injector is attached, i.e. packets may be dropped,
  /// corrupted, duplicated, delayed, or lost to link flaps.
  bool lossy() const { return injector_ != nullptr; }

  /// Attaches (or detaches, with nullptr) an in-network aggregation engine
  /// (see agg_switch.h). Armed responses are consumed inside the switch —
  /// they never occupy the destination's receive port — and the combined
  /// packet is released through it instead. Attach before traffic is
  /// offered, for the same reason as set_fault_injector.
  void set_agg_switch(AggregatingSwitch* agg) { agg_switch_ = agg; }
  AggregatingSwitch* agg_switch() const { return agg_switch_; }

  void Tick(sim::Cycle cycle) override;
  bool Idle() const override;

  /// With the ports quiet (all streams empty is the caller's precondition)
  /// the fabric next acts when the earliest queued arrival finishes its
  /// receive serialization; a scheduled fault entry arming is also an
  /// event, so scripted "drop at cycle N" scenarios stay exact.
  sim::Cycle NextEventCycle(sim::Cycle now) const override;

  void SampleTraceCounters(obs::TraceCounterSink& sink) override;
  void ExportCustomMetrics(obs::MetricsRegistry& registry) const override;

  uint32_t num_nodes() const { return static_cast<uint32_t>(egress_.size()); }
  uint64_t packets_delivered() const { return packets_delivered_; }
  uint64_t payload_bytes_delivered() const { return payload_bytes_delivered_; }
  /// Packets the injector removed from the wire (drops + flap casualties).
  uint64_t packets_dropped() const { return packets_dropped_; }

  /// Cycles port `node` spent serializing onto / off the wire — the
  /// per-port share of line-rate occupancy — over every cycle the fabric
  /// has ticked or been skipped through.
  uint64_t tx_busy_cycles(uint32_t node) const { return Busy(ports_[node].tx); }
  uint64_t rx_busy_cycles(uint32_t node) const { return Busy(ports_[node].rx); }
  /// Packets currently queued for receive at `node` — the incast depth.
  size_t incast_depth(uint32_t node) const { return arriving_[node].size(); }

  /// One-way wire + switch latency in cycles. Periodic background traffic
  /// (health beacons) must be spaced further apart than this, or the wire
  /// never drains and the engine cannot quiesce.
  uint64_t wire_latency_cycles() const { return wire_latency_cycles_; }

  const Config& config() const { return config_; }

  /// Cycles one packet of `payload_bytes` occupies a port (payload + header
  /// at line rate). Public so endpoints can size retransmission timeouts.
  uint64_t SerializationCycles(uint64_t payload_bytes) const;

 protected:
  void AttributeSkip(sim::Cycle from, sim::Cycle to) override;

 private:
  struct InFlight {
    sim::Cycle deliver_at;
    Packet packet;
    bool operator>(const InFlight& o) const { return deliver_at > o.deliver_at; }
  };

  /// One serialized NIC resource: a port's tx or rx side. Each packet
  /// reserves it for [start, end), where start may lie ahead of the
  /// reservation tick (an rx port is idle while the packet is still on the
  /// wire); `free` is the end of the last reservation. It is busy in cycle
  /// c iff c lies in a reservation. `reserved` sums every reservation, and
  /// `runs` keeps those (back-to-back ones merged, oldest first) that may
  /// still reach past the covered window, so the busy count is `reserved`
  /// minus their uncovered part.
  struct Serializer {
    sim::Cycle free = 0;
    uint64_t reserved = 0;
    std::vector<std::pair<sim::Cycle, sim::Cycle>> runs;
  };
  struct Port {
    Serializer tx;
    Serializer rx;
  };

  /// Cycles of `s`'s runs at or after `from`, before `to`.
  static uint64_t RunCycles(const Serializer& s, sim::Cycle from,
                            sim::Cycle to) {
    uint64_t n = 0;
    for (const auto& [start, end] : s.runs) {
      const sim::Cycle lo = std::max(start, from);
      const sim::Cycle hi = std::min(end, to);
      if (lo < hi) n += hi - lo;
    }
    return n;
  }
  /// The busy cycles of `s` over every covered cycle.
  uint64_t Busy(const Serializer& s) const {
    return s.reserved - RunCycles(s, covered_to_, sim::kNoEventCycle);
  }

  /// Reserves `s` for [start, end) during the tick that covers cycle
  /// covered_to_ - 1. Reservations are made in order: start >= s.free.
  void Reserve(Serializer& s, sim::Cycle start, sim::Cycle end);

  /// Extends the covered window to start at `from` (a tick or skip of
  /// cycles from `from` on). Coverage is contiguous under every engine
  /// mode; a gap (a fabric re-driven from a later cycle) leaves the skipped
  /// cycles uncovered, so no port counts them busy.
  void Cover(sim::Cycle from);

  /// Queues `packet` for delivery to `node` at `at`, indexing the port in
  /// due_ when its earliest delivery moves up.
  void Arrive(uint32_t node, sim::Cycle at, const Packet& packet);

  /// Emits a fault marker on this module's trace track, if tracing.
  void TraceFault(sim::Cycle cycle, FaultKind kind, const Packet& packet);

  /// Injects a switch-originated link-level control packet (ack/nack on
  /// behalf of the aggregation engine) on the prioritized control lane.
  void InjectControl(sim::Cycle cycle, OpKind kind, uint32_t src,
                     uint32_t dst, uint64_t seq);

  Config config_;
  FaultInjector* injector_ = nullptr;
  AggregatingSwitch* agg_switch_ = nullptr;
  double bytes_per_cycle_;
  uint64_t wire_latency_cycles_;
  std::vector<std::unique_ptr<sim::Stream<Packet>>> egress_;
  std::vector<std::unique_ptr<sim::Stream<Packet>>> ingress_;
  std::vector<Port> ports_;
  // Every cycle in [0, covered_to_) that the fabric ticked or was skipped
  // through is accounted in the ports' busy counters (settled or pending).
  sim::Cycle covered_to_ = 0;
  // Trace counter dedup: last emitted values (-1 = never emitted).
  std::vector<double> last_incast_emitted_;
  double last_inflight_emitted_ = -1;
  std::vector<std::priority_queue<InFlight, std::vector<InFlight>,
                                  std::greater<InFlight>>>
      arriving_;  // per destination
  // Lazy-delete min-heap of (earliest delivery, port): every port with a
  // queued arrival has an entry for its queue head, so Tick and
  // NextEventCycle touch only ports with work. An entry that no longer
  // matches its port's head is stale and dropped when it surfaces.
  std::vector<std::pair<sim::Cycle, uint32_t>> due_;
  // Ports whose ingress FIFO filled up with deliveries still due; scratch
  // for re-indexing them after the delivery pass.
  std::vector<uint32_t> blocked_;
  uint64_t in_flight_ = 0;
  uint64_t packets_delivered_ = 0;
  uint64_t payload_bytes_delivered_ = 0;
  uint64_t packets_dropped_ = 0;
};

}  // namespace fpgadp::net

#endif  // FPGADP_NET_FABRIC_H_
