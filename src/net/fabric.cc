#include "src/net/fabric.h"

#include <algorithm>
#include <functional>
#include <span>

#include "src/common/check.h"
#include "src/net/agg_switch.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fpgadp::net {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kLinkFlap: return "link_flap";
  }
  return "unknown";
}

bool FaultInjector::LinkDown(sim::Cycle cycle, uint32_t src,
                             uint32_t dst) const {
  for (const Flap& f : flaps_) {
    if (cycle >= f.until) continue;
    if ((f.src == kAnyNode || f.src == src) &&
        (f.dst == kAnyNode || f.dst == dst)) {
      return true;
    }
  }
  return false;
}

FaultInjector::Decision FaultInjector::OnPacket(sim::Cycle cycle,
                                                const Packet& packet) {
  Decision d;
  // Scheduled faults first: the earliest unfired matching entry fires.
  for (size_t i = 0; i < schedule_.size(); ++i) {
    const Entry& e = schedule_[i];
    if (fired_[i] || cycle < e.cycle) continue;
    if ((e.src != kAnyNode && e.src != packet.src) ||
        (e.dst != kAnyNode && e.dst != packet.dst) ||
        (e.op_filter >= 0 && e.op_filter != int(packet.kind))) {
      continue;
    }
    fired_[i] = true;
    Count(e.kind);
    switch (e.kind) {
      case FaultKind::kDrop: d.drop = true; break;
      case FaultKind::kCorrupt: d.corrupt = true; break;
      case FaultKind::kDuplicate: d.duplicate = true; break;
      case FaultKind::kDelay:
        d.extra_delay_cycles += config_.delay_spike_cycles;
        break;
      case FaultKind::kLinkFlap:
        flaps_.push_back({e.src, e.dst, cycle + config_.flap_down_cycles});
        d.drop = true;  // the triggering packet is the first casualty
        break;
    }
  }
  // A down link loses everything offered to it.
  if (!d.drop && LinkDown(cycle, packet.src, packet.dst)) {
    Count(FaultKind::kLinkFlap);
    d.drop = true;
  }
  // Probabilistic faults, drawn in a fixed order from the seeded stream so
  // the same seed and offered traffic reproduce the same pattern.
  if (!d.drop && config_.drop_rate > 0 &&
      rng_.NextDouble() < config_.drop_rate) {
    Count(FaultKind::kDrop);
    d.drop = true;
  }
  if (!d.drop) {
    if (config_.corrupt_rate > 0 && rng_.NextDouble() < config_.corrupt_rate) {
      Count(FaultKind::kCorrupt);
      d.corrupt = true;
    }
    if (config_.duplicate_rate > 0 &&
        rng_.NextDouble() < config_.duplicate_rate) {
      Count(FaultKind::kDuplicate);
      d.duplicate = true;
    }
    if (config_.delay_rate > 0 && rng_.NextDouble() < config_.delay_rate) {
      Count(FaultKind::kDelay);
      d.extra_delay_cycles += config_.delay_spike_cycles;
    }
  }
  return d;
}

uint64_t FaultInjector::total_faults() const {
  uint64_t total = 0;
  for (uint64_t c : counts_) total += c;
  return total;
}

sim::Cycle FaultInjector::NextScheduledCycle(sim::Cycle now) const {
  sim::Cycle earliest = sim::kNoEventCycle;
  for (size_t i = 0; i < schedule_.size(); ++i) {
    if (fired_[i]) continue;
    if (schedule_[i].cycle > now && schedule_[i].cycle < earliest) {
      earliest = schedule_[i].cycle;
    }
  }
  return earliest;
}

Fabric::Fabric(std::string name, uint32_t num_nodes, const Config& config)
    : sim::Module(std::move(name)), config_(config) {
  FPGADP_CHECK(num_nodes > 0);
  bytes_per_cycle_ = config_.bits_per_sec / 8.0 / config_.clock_hz;
  wire_latency_cycles_ = NanosToCycles(config_.wire_latency_ns, config_.clock_hz);
  ports_.resize(num_nodes);
  arriving_.resize(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    egress_.push_back(std::make_unique<sim::Stream<Packet>>(
        this->name() + ".eg" + std::to_string(n), 64));
    ingress_.push_back(std::make_unique<sim::Stream<Packet>>(
        this->name() + ".ig" + std::to_string(n), 64));
    egress_.back()->BindConsumer(this);
    ingress_.back()->BindProducer(this);
  }
  SetEventSafe();
}

sim::Cycle Fabric::NextEventCycle(sim::Cycle now) const {
  sim::Cycle earliest = sim::kNoEventCycle;
  if (injector_ != nullptr) earliest = injector_->NextScheduledCycle(now);
  // Tick leaves a live head on due_, so the head is the earliest receive
  // completion over every port.
  if (!due_.empty()) {
    const sim::Cycle at = std::max(due_.front().first, now);
    if (at < earliest) earliest = at;
  }
  return earliest;
}

void Fabric::AttributeSkip(sim::Cycle from, sim::Cycle to) {
  // The ports' busy cycles over the skipped window follow in closed form
  // from their free cycles (see Serializer), so extending the window is all
  // the per-port accounting a skip needs.
  Cover(from);
  covered_to_ = to;
  // The serial ticks mark busy while anything is in flight (on the wire,
  // in receive serialization, or held in a switch combiner) and idle
  // otherwise.
  if (!Idle()) MarkBusyN(to - from);
}

void Fabric::Cover(sim::Cycle from) {
  if (from == covered_to_) return;
  for (Port& p : ports_) {
    for (Serializer* s : {&p.tx, &p.rx}) {
      s->busy = Busy(*s);
      s->from = from;
    }
  }
  covered_to_ = from;
}

void Fabric::SetFree(Serializer& s, sim::Cycle free_at) {
  s.busy = Busy(s);
  s.from = covered_to_;
  s.free = free_at;
}

void Fabric::Arrive(uint32_t node, sim::Cycle at, const Packet& packet) {
  auto& pq = arriving_[node];
  if (pq.empty() || at < pq.top().deliver_at) {
    due_.emplace_back(at, node);
    std::push_heap(due_.begin(), due_.end(), std::greater<>());
  }
  pq.push({at, packet});
  ++in_flight_;
}

void Fabric::RegisterWith(sim::Engine& engine) {
  engine.AddModule(this);
  for (auto& s : egress_) engine.AddStream(s.get());
  for (auto& s : ingress_) engine.AddStream(s.get());
}

uint64_t Fabric::SerializationCycles(uint64_t payload_bytes) const {
  const double wire_bytes =
      static_cast<double>(payload_bytes + config_.header_bytes);
  return static_cast<uint64_t>(
      (wire_bytes + bytes_per_cycle_ - 1.0) / bytes_per_cycle_);
}

void Fabric::Tick(sim::Cycle cycle) {
  // Per-port serialization accounting is settled lazily (see Serializer);
  // this tick covers `cycle`.
  Cover(cycle);
  covered_to_ = cycle + 1;
  bool progressed = false;
  // Pick up newly posted packets from every egress port, burst-read per
  // contiguous run; the per-packet switching/fault logic is unchanged.
  for (uint32_t n = 0; n < egress_.size(); ++n) {
    while (true) {
      std::span<const Packet> posted = egress_[n]->ReadableSpan();
      if (posted.empty()) break;
      for (size_t pi = 0; pi < posted.size(); ++pi) {
        Packet p = posted[pi];
        FPGADP_CHECK(p.dst < ingress_.size());
        // Link-level control packets (which only exist on a lossy fabric)
        // ride a prioritized control lane, as RC hardware acks do: they skip
        // the port's data backlog instead of queueing behind megabytes of
        // payload, so they cannot starve the very timers they feed.
        // Health beacons share the lane: a liveness probe queued behind a
        // data backlog would time out its own sender.
        const bool control = p.kind == OpKind::kRdmaAck ||
                             p.kind == OpKind::kRdmaNack ||
                             p.kind == OpKind::kHealthBeacon;
        const uint64_t ser = SerializationCycles(p.bytes);
        const sim::Cycle tx_start =
            control ? cycle + 1
                    : std::max<sim::Cycle>(cycle + 1, ports_[n].tx.free);
        if (!control) SetFree(ports_[n].tx, tx_start + ser);
        // Fault injection point: the packet has left the sender NIC (tx
        // serialization is already paid) and is inside the switch.
        uint64_t extra_delay = 0;
        bool duplicate = false;
        if (injector_ != nullptr) {
          const FaultInjector::Decision d = injector_->OnPacket(cycle, p);
          if (d.drop) {
            TraceFault(cycle, FaultKind::kDrop, p);
            ++packets_dropped_;
            progressed = true;
            continue;
          }
          if (d.corrupt) {
            p.corrupt = true;
            TraceFault(cycle, FaultKind::kCorrupt, p);
          }
          if (d.duplicate) {
            duplicate = true;
            TraceFault(cycle, FaultKind::kDuplicate, p);
          }
          if (d.extra_delay_cycles > 0) {
            extra_delay = d.extra_delay_cycles;
            TraceFault(cycle, FaultKind::kDelay, p);
          }
        }
        // In-network aggregation: an armed response is consumed by the
        // switch's per-port combiner right here — it pays no receive-port
        // serialization. Only the combined packet (released when the group
        // completes) goes through the port. The switch terminates the
        // reliability protocol for absorbed packets: the fabric acks (or
        // nacks, for corrupted payloads) on the combiner's behalf, and the
        // merged packet travels unsequenced.
        if (agg_switch_ != nullptr && agg_switch_->Wants(p)) {
          progressed = true;
          if (p.corrupt) {
            if (p.seq != 0) {
              InjectControl(cycle, OpKind::kRdmaNack, p.dst, p.src, p.seq);
            }
            continue;
          }
          if (p.seq != 0) {
            InjectControl(cycle, OpKind::kRdmaAck, p.dst, p.src, p.seq);
          }
          const sim::Cycle at_switch =
              tx_start + wire_latency_cycles_ + extra_delay;
          for (int copy = 0; copy < (duplicate ? 2 : 1); ++copy) {
            if (!agg_switch_->Wants(p)) break;  // first copy closed the group
            auto released = agg_switch_->Offer(at_switch, p);
            if (!released.has_value()) continue;
            const Packet& m = released->packet;
            const sim::Cycle mrx_end =
                std::max<sim::Cycle>(released->ready_at,
                                     ports_[m.dst].rx.free) +
                SerializationCycles(m.bytes);
            SetFree(ports_[m.dst].rx, mrx_end);
            Arrive(m.dst, mrx_end, m);
          }
          continue;
        }
        // Cut-through switching: the receive port streams the packet while
        // the sender is still serializing it, so an uncontended transfer
        // costs ser + wire, not 2x ser. The rx port is still a serialized
        // resource (incast queues here).
        const sim::Cycle rx_start =
            control ? tx_start + wire_latency_cycles_
                    : std::max<sim::Cycle>(tx_start + wire_latency_cycles_,
                                           ports_[p.dst].rx.free);
        const sim::Cycle rx_end = rx_start + ser;
        if (!control) SetFree(ports_[p.dst].rx, rx_end);
        // A delay spike holds the packet in switch buffering after the port:
        // it does not occupy the receive port meanwhile, so later packets
        // overtake it — delay faults genuinely reorder delivery.
        Arrive(p.dst, rx_end + extra_delay, p);
        if (duplicate) {
          // The switch emits a second copy right behind the first; it pays
          // its own receive-port serialization.
          const sim::Cycle rx2_end = ports_[p.dst].rx.free + ser;
          SetFree(ports_[p.dst].rx, rx2_end);
          Arrive(p.dst, rx2_end + extra_delay, p);
        }
        progressed = true;
      }
      egress_[n]->ConsumeRead(posted.size());
    }
  }
  // Deliver packets whose receive serialization has completed, burst-written
  // per contiguous free run of each ingress FIFO. Only ports indexed as due
  // are visited; identical (cycle, port) entries pop back to back, so a
  // repeat is skipped.
  std::pair<sim::Cycle, uint32_t> prev{sim::kNoEventCycle, 0};
  while (!due_.empty() && due_.front().first <= cycle) {
    std::pop_heap(due_.begin(), due_.end(), std::greater<>());
    const std::pair<sim::Cycle, uint32_t> entry = due_.back();
    due_.pop_back();
    if (entry == prev) continue;
    prev = entry;
    const uint32_t n = entry.second;
    auto& pq = arriving_[n];
    if (pq.empty() || pq.top().deliver_at != entry.first) continue;  // stale
    while (!pq.empty() && pq.top().deliver_at <= cycle) {
      std::span<Packet> dst = ingress_[n]->WritableSpan();
      if (dst.empty()) break;  // ingress FIFO full
      size_t k = 0;
      while (k < dst.size() && !pq.empty() && pq.top().deliver_at <= cycle) {
        dst[k] = pq.top().packet;
        payload_bytes_delivered_ += pq.top().packet.bytes;
        pq.pop();
        ++k;
      }
      ingress_[n]->CommitWrite(k);
      in_flight_ -= k;
      packets_delivered_ += k;
      progressed = progressed || k > 0;
    }
    if (pq.empty()) continue;
    if (pq.top().deliver_at <= cycle) {
      blocked_.push_back(n);  // retried next tick, once the FIFO drains
    } else {
      due_.emplace_back(pq.top().deliver_at, n);
      std::push_heap(due_.begin(), due_.end(), std::greater<>());
    }
  }
  for (uint32_t n : blocked_) {
    due_.emplace_back(arriving_[n].top().deliver_at, n);
    std::push_heap(due_.begin(), due_.end(), std::greater<>());
  }
  blocked_.clear();
  // Leave a live head for NextEventCycle.
  while (!due_.empty()) {
    const auto& [at, n] = due_.front();
    if (!arriving_[n].empty() && arriving_[n].top().deliver_at == at) break;
    std::pop_heap(due_.begin(), due_.end(), std::greater<>());
    due_.pop_back();
  }
  if (progressed) {
    MarkBusy();
  } else if (!Idle()) {
    MarkBusy();  // packets on the wire / held in the switch combiners
  } else {
    MarkStall(sim::StallKind::kIdle);  // no traffic offered
  }
}

bool Fabric::Idle() const {
  return in_flight_ == 0 &&
         (agg_switch_ == nullptr || agg_switch_->held_responses() == 0);
}

void Fabric::InjectControl(sim::Cycle cycle, OpKind kind, uint32_t src,
                           uint32_t dst, uint64_t seq) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.kind = kind;
  p.seq = seq;
  // Same timing as an endpoint-originated control packet: one cycle of
  // pickup, the wire, header-only serialization on the control lane.
  Arrive(dst, cycle + 1 + wire_latency_cycles_ + SerializationCycles(0), p);
}

void Fabric::SampleTraceCounters(obs::TraceCounterSink& sink) {
  // Emit only on change so a quiet 8-node fabric does not flood the trace.
  const auto in_flight = static_cast<double>(in_flight_);
  if (in_flight != last_inflight_emitted_) {
    sink.Counter(name() + ".in_flight", in_flight);
    last_inflight_emitted_ = in_flight;
  }
  last_incast_emitted_.resize(arriving_.size(), -1);
  for (uint32_t n = 0; n < arriving_.size(); ++n) {
    // Incast pressure is per receive port; one counter track per node.
    const auto depth = static_cast<double>(arriving_[n].size());
    if (depth != last_incast_emitted_[n]) {
      sink.Counter(name() + ".incast_q" + std::to_string(n), depth);
      last_incast_emitted_[n] = depth;
    }
  }
}

void Fabric::TraceFault(sim::Cycle cycle, FaultKind kind, const Packet& packet) {
  if (trace_writer() == nullptr) return;
  trace_writer()->Instant(trace_pid(), trace_tid(),
                          std::string("fault.") + FaultKindName(kind) + " " +
                              std::to_string(packet.src) + "->" +
                              std::to_string(packet.dst),
                          cycle);
}

void Fabric::ExportCustomMetrics(obs::MetricsRegistry& registry) const {
  const std::string base = "net." + name();
  registry.GetGauge(base + ".packets_delivered")
      ->Set(static_cast<double>(packets_delivered_));
  registry.GetGauge(base + ".payload_bytes")
      ->Set(static_cast<double>(payload_bytes_delivered_));
  if (injector_ != nullptr) {
    for (int k = 0; k < kNumFaultKinds; ++k) {
      const auto kind = static_cast<FaultKind>(k);
      registry.GetGauge(base + ".faults." + FaultKindName(kind))
          ->Set(static_cast<double>(injector_->fault_count(kind)));
    }
    registry.GetGauge(base + ".packets_dropped")
        ->Set(static_cast<double>(packets_dropped_));
  }
  for (uint32_t n = 0; n < ports_.size(); ++n) {
    const std::string port = base + ".port" + std::to_string(n);
    registry.GetGauge(port + ".tx_busy_cycles")
        ->Set(static_cast<double>(tx_busy_cycles(n)));
    registry.GetGauge(port + ".rx_busy_cycles")
        ->Set(static_cast<double>(rx_busy_cycles(n)));
  }
}

}  // namespace fpgadp::net
