#include "src/net/rdma.h"

#include "src/common/check.h"
#include "src/obs/metrics.h"

namespace fpgadp::net {

namespace {

/// Link-level control packets are never sequenced (acking an ack would
/// recurse forever); everything else carries a per-destination seq.
bool IsSequenced(OpKind kind) {
  // Health beacons ride unreliable-datagram semantics: no sequence number,
  // no retransmission. Losing one is the signal — the receiver's timeout
  // detects silence; retrying would mask exactly the failure it reports.
  return kind != OpKind::kRdmaAck && kind != OpKind::kRdmaNack &&
         kind != OpKind::kHealthBeacon;
}

}  // namespace

RdmaEndpoint::RdmaEndpoint(std::string name, uint32_t node_id, Fabric* fabric,
                           const Reliability& reliability)
    : sim::Module(std::move(name)), node_id_(node_id), fabric_(fabric),
      reliability_(reliability) {
  FPGADP_CHECK(fabric_ != nullptr);
  FPGADP_CHECK(node_id_ < fabric_->num_nodes());
  FPGADP_CHECK(reliability_.backoff >= 1.0);
  // The Tick touches exactly this node's port pair; declaring the
  // endpoints gives the event scheduler its stream wake edges.
  fabric_->egress(node_id_).BindProducer(this);
  fabric_->ingress(node_id_).BindConsumer(this);
  // Event-safe: NextEventCycle covers posted work and retransmission
  // timers, the ingress bind covers arrivals, and Post* self-wakes. A
  // skipped endpoint has an empty outbox, no pending arrivals, and no
  // timer due — cycles the serial tick would have spent idle.
  SetEventSafe();
}

RdmaEndpoint::RdmaEndpoint(std::string name, uint32_t node_id, Fabric* fabric)
    : RdmaEndpoint(std::move(name), node_id, fabric, Reliability()) {}

void RdmaEndpoint::NotifyDelivery() {
  // Called immediately BEFORE a completion or received message is queued,
  // so an event-driven settle of the listener attributes its skipped
  // cycles against the pre-delivery queue state (the state every serial
  // tick in that gap would have observed).
  if (listener_ != nullptr) listener_->WakeUp();
}

void RdmaEndpoint::PostSend(uint32_t dst, uint64_t bytes, uint64_t tag,
                            uint64_t user) {
  WakeUp();  // posted work ships next tick; arm a sleeping endpoint
  Packet p;
  p.src = node_id_;
  p.dst = dst;
  p.kind = OpKind::kSend;
  p.bytes = bytes;
  p.tag = tag;
  p.user = user;
  outbox_.push_back(p);
}

void RdmaEndpoint::PostRead(uint32_t dst, uint64_t addr, uint64_t bytes,
                            uint64_t tag) {
  WakeUp();
  Packet p;
  p.src = node_id_;
  p.dst = dst;
  p.kind = OpKind::kReadReq;
  p.addr = addr;
  p.bytes = 0;  // header-only on the wire; `user` remembers requested size
  p.user = bytes;
  p.tag = tag;
  outbox_.push_back(p);
}

void RdmaEndpoint::PostWrite(uint32_t dst, uint64_t addr, uint64_t bytes,
                             uint64_t tag) {
  WakeUp();
  Packet p;
  p.src = node_id_;
  p.dst = dst;
  p.kind = OpKind::kWrite;
  p.addr = addr;
  p.bytes = bytes;
  p.tag = tag;
  outbox_.push_back(p);
}

void RdmaEndpoint::PostPacket(Packet p) {
  WakeUp();
  p.src = node_id_;
  outbox_.push_back(p);
}

bool RdmaEndpoint::PollCompletion(Completion* out) {
  if (cq_.empty()) return false;
  *out = cq_.front();
  cq_.pop_front();
  return true;
}

bool RdmaEndpoint::PollRecv(Packet* out) {
  if (rq_.empty()) return false;
  *out = rq_.front();
  rq_.pop_front();
  return true;
}

uint64_t RdmaEndpoint::InitialRto(const Packet& p) const {
  // Base timeout plus the round trip's share of payload serialization, so
  // a 1 MiB write is not declared lost while it is still on the wire.
  return reliability_.rto_cycles + 2 * fabric_->SerializationCycles(p.bytes);
}

void RdmaEndpoint::FailOp(sim::Cycle cycle, const Packet& p) {
  if (status_.ok()) {
    status_ = Status::Unavailable(
        name() + ": gave up on " + std::to_string(p.dst) + " seq " +
        std::to_string(p.seq) + " after " +
        std::to_string(reliability_.max_retries) + " retries");
  }
  NotifyDelivery();
  cq_.push_back(
      {p.tag, p.kind, p.dst, p.bytes, cycle, StatusCode::kUnavailable});
}

void RdmaEndpoint::CheckRetransmits(sim::Cycle cycle) {
  for (auto it = unacked_.begin(); it != unacked_.end();) {
    Unacked& u = it->second;
    if (cycle < u.next_retry) {
      ++it;
      continue;
    }
    if (u.retries >= reliability_.max_retries) {
      FailOp(cycle, u.packet);
      it = unacked_.erase(it);
      continue;
    }
    ++u.retries;
    ++retransmits_;
    u.rto = static_cast<uint64_t>(double(u.rto) * reliability_.backoff);
    u.next_retry = cycle + u.rto;
    outbox_.push_back(u.packet);
    ++it;
  }
}

void RdmaEndpoint::Dispatch(sim::Cycle cycle, const Packet& p) {
  switch (p.kind) {
    case OpKind::kReadReq: {
      // NIC answers autonomously with the payload.
      Packet resp;
      resp.src = node_id_;
      resp.dst = p.src;
      resp.kind = OpKind::kReadResp;
      resp.addr = p.addr;
      resp.bytes = p.user;  // requested size
      resp.tag = p.tag;
      outbox_.push_back(resp);
      break;
    }
    case OpKind::kReadResp:
      NotifyDelivery();
      cq_.push_back({p.tag, OpKind::kReadResp, p.src, p.bytes, cycle});
      break;
    case OpKind::kWrite: {
      Packet ack;
      ack.src = node_id_;
      ack.dst = p.src;
      ack.kind = OpKind::kWriteAck;
      ack.bytes = 0;
      ack.tag = p.tag;
      outbox_.push_back(ack);
      break;
    }
    case OpKind::kWriteAck:
      NotifyDelivery();
      cq_.push_back({p.tag, OpKind::kWriteAck, p.src, p.bytes, cycle});
      break;
    case OpKind::kSend:
    case OpKind::kOffloadReq:
    case OpKind::kOffloadResp:
    case OpKind::kTcpSyn:
    case OpKind::kTcpSynAck:
    case OpKind::kTcpData:
    case OpKind::kTcpAck:
    case OpKind::kRdmaAck:
    case OpKind::kRdmaNack:
    case OpKind::kHealthBeacon:
    case OpKind::kMigrateStart:
    case OpKind::kMigrateChunk:
    case OpKind::kMigrateDone:
      // TCP kinds only appear when a TcpStack owns the port; surfacing
      // them in the receive queue keeps misconfigurations observable.
      // (kRdmaAck/kRdmaNack are consumed before Dispatch in lossy mode.)
      // Beacon and migration kinds are consumed by the shard layer.
      NotifyDelivery();
      rq_.push_back(p);
      break;
  }
}

void RdmaEndpoint::HandleArrival(sim::Cycle cycle, Packet p) {
  if (!reliable()) {
    Dispatch(cycle, p);
    return;
  }
  if (p.kind == OpKind::kRdmaAck) {
    if (p.corrupt) return;  // a corrupted ack is useless; timers recover
    auto it = unacked_.find({p.src, p.seq});
    if (it != unacked_.end()) {
      const Packet& original = it->second.packet;
      if (original.kind == OpKind::kSend) {
        // RC send semantics on a lossy link: the message is known delivered.
        NotifyDelivery();
        cq_.push_back(
            {original.tag, OpKind::kSend, original.dst, original.bytes, cycle});
      }
      unacked_.erase(it);
    }
    // Progress restarts the peer's timers: acks are flowing, so packets
    // still waiting are queued (behind our own tx serialization or the
    // peer's incast), not lost. Prevents spurious retransmits of deeply
    // pipelined transfers.
    for (auto& [key, u] : unacked_) {
      if (key.first == p.src) u.next_retry = cycle + u.rto;
    }
    return;
  }
  if (p.kind == OpKind::kRdmaNack) {
    if (p.corrupt) return;
    auto it = unacked_.find({p.src, p.seq});
    if (it != unacked_.end()) {
      Unacked& u = it->second;
      if (u.retries >= reliability_.max_retries) {
        FailOp(cycle, u.packet);
        unacked_.erase(it);
      } else {
        // The link works (the NACK made it back): resend immediately
        // without touching the backoff.
        ++u.retries;
        ++retransmits_;
        u.next_retry = cycle + u.rto;
        outbox_.push_back(u.packet);
      }
    }
    return;
  }
  if (p.seq == 0) {
    // Unsequenced datagram: switch-originated packets (an AggregatingSwitch
    // releases its combined responses with seq 0) bypass the ack/window
    // machinery — the switch already terminated the protocol for the
    // responses it absorbed. Endpoint-originated data always carries a seq
    // on a lossy fabric, so this lane never captures peer traffic.
    if (!p.corrupt) Dispatch(cycle, p);
    return;
  }
  // Sequenced data packet.
  if (p.corrupt) {
    Packet nack;
    nack.src = node_id_;
    nack.dst = p.src;
    nack.kind = OpKind::kRdmaNack;
    nack.seq = p.seq;
    outbox_.push_back(nack);
    ++nacks_sent_;
    return;
  }
  Packet ack;
  ack.src = node_id_;
  ack.dst = p.src;
  ack.kind = OpKind::kRdmaAck;
  ack.seq = p.seq;
  outbox_.push_back(ack);
  ++acks_sent_;
  RecvWindow& w = recv_window_[p.src];
  if (p.seq < w.next_expected || w.seen_ahead.count(p.seq) > 0) {
    ++duplicates_discarded_;  // already consumed; the re-ACK covers a lost ack
    return;
  }
  if (p.seq == w.next_expected) {
    ++w.next_expected;
    while (w.seen_ahead.erase(w.next_expected) > 0) ++w.next_expected;
  } else {
    w.seen_ahead.insert(p.seq);
  }
  Dispatch(cycle, p);
}

void RdmaEndpoint::Tick(sim::Cycle cycle) {
  bool progressed = false;
  auto& eg = fabric_->egress(node_id_);
  const bool rel = reliable();
  // Ship posted work requests to the NIC.
  while (!outbox_.empty() && eg.CanWrite()) {
    Packet p = outbox_.front();
    outbox_.pop_front();
    if (rel && IsSequenced(p.kind) && p.seq == 0) {
      // First transmission: stamp the per-destination sequence number and
      // arm the retransmission timer.
      p.seq = ++next_seq_[p.dst];
      const uint64_t rto = InitialRto(p);
      unacked_[{p.dst, p.seq}] = {p, cycle + rto, rto, 0};
    }
    eg.Write(p);
    if (!rel && p.kind == OpKind::kSend) {
      // Local send completion: the message left the NIC.
      NotifyDelivery();
      cq_.push_back({p.tag, OpKind::kSend, p.dst, p.bytes, cycle});
    }
    progressed = true;
  }
  // Service arrivals.
  auto& ig = fabric_->ingress(node_id_);
  while (ig.CanRead()) {
    HandleArrival(cycle, ig.Read());
    progressed = true;
  }
  if (rel) CheckRetransmits(cycle);
  if (progressed) MarkBusy();
}

void RdmaEndpoint::ExportCustomMetrics(obs::MetricsRegistry& registry) const {
  if (retransmits_ == 0 && acks_sent_ == 0 && nacks_sent_ == 0 &&
      duplicates_discarded_ == 0) {
    return;  // loss-free endpoints stay out of the registry
  }
  const std::string base = "net." + name();
  registry.GetGauge(base + ".retransmits")
      ->Set(static_cast<double>(retransmits_));
  registry.GetGauge(base + ".acks_sent")->Set(static_cast<double>(acks_sent_));
  registry.GetGauge(base + ".nacks_sent")
      ->Set(static_cast<double>(nacks_sent_));
  registry.GetGauge(base + ".duplicates_discarded")
      ->Set(static_cast<double>(duplicates_discarded_));
}

}  // namespace fpgadp::net
