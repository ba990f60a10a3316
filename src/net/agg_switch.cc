#include "src/net/agg_switch.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace fpgadp::net {

AggregatingSwitch::AggregatingSwitch(const Config& config, MergeSizer sizer)
    : config_(config), sizer_(std::move(sizer)) {
  FPGADP_CHECK(sizer_ != nullptr);
}

void AggregatingSwitch::Arm(uint64_t request_id, uint32_t port,
                            uint32_t members) {
  FPGADP_CHECK(members != 0);
  const auto key = std::make_pair(request_id, port);
  FPGADP_CHECK(groups_.find(key) == groups_.end());
  Group g;
  g.members = members;
  groups_.emplace(key, std::move(g));
}

void AggregatingSwitch::Disarm(uint64_t request_id) {
  for (auto it = groups_.lower_bound({request_id, 0});
       it != groups_.end() && it->first.first == request_id;) {
    held_ -= it->second.absorbed;
    it = groups_.erase(it);
  }
}

void AggregatingSwitch::KillPort(uint32_t port) {
  dead_ports_.insert(port);
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (it->first.second == port) {
      held_ -= it->second.absorbed;
      dropped_dead_port_ += it->second.absorbed;
      it->second.absorbed = 0;
      // The group stays armed (Wants keeps matching) so straggler
      // responses are consumed and dropped, not misdelivered to the dead
      // port; Disarm cleans it up when the gather finalizes.
    }
    ++it;
  }
}

bool AggregatingSwitch::Wants(const Packet& p) const {
  if (p.kind != OpKind::kOffloadResp) return false;
  return groups_.find({p.user, p.dst}) != groups_.end();
}

std::optional<AggregatingSwitch::Released> AggregatingSwitch::Offer(
    sim::Cycle at, const Packet& p) {
  const auto it = groups_.find({p.user, p.dst});
  FPGADP_CHECK(it != groups_.end());
  if (dead_ports_.count(p.dst) > 0) {
    ++dropped_dead_port_;
    return std::nullopt;
  }
  Group& g = it->second;
  const auto folded = [&g](const GatherReply::Entry& e) {
    const auto have = g.reply.entries();
    return std::any_of(have.begin(), have.end(),
                       [&e](const GatherReply::Entry& h) {
                         return h.tag == e.tag;
                       });
  };
  const auto entries = p.reply.entries();
  if (std::all_of(entries.begin(), entries.end(), folded)) {
    ++duplicates_ignored_;  // lossy retransmit already folded in
    return std::nullopt;
  }
  g.reply.Fold(p.reply, p.bytes);
  ++g.absorbed;
  ++held_;
  ++combines_;
  // The combiner is a serialized pipeline: each response occupies it for
  // combine_cycles_per_resp once the response is inside the switch.
  g.combine_free =
      std::max(g.combine_free, at) + config_.combine_cycles_per_resp;
  if (g.reply.size() < g.members) return std::nullopt;
  Released rel;
  rel.ready_at = g.combine_free;
  rel.packet.src = p.src;  // the last contributor; upper layers ignore it
  rel.packet.dst = p.dst;
  rel.packet.kind = OpKind::kOffloadResp;
  rel.packet.user = it->first.first;
  rel.packet.bytes = sizer_(it->first.first, g.reply);
  // seq stays 0: the merged packet is switch-originated and unsequenced.
  FPGADP_CHECK(rel.packet.bytes <= g.reply.concat_bytes());
  bytes_elided_ += g.reply.concat_bytes() - rel.packet.bytes;
  rel.packet.reply = std::move(g.reply);
  held_ -= g.absorbed;
  ++releases_;
  groups_.erase(it);
  return rel;
}

}  // namespace fpgadp::net
