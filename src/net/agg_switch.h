#ifndef FPGADP_NET_AGG_SWITCH_H_
#define FPGADP_NET_AGG_SWITCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "src/net/fabric.h"
#include "src/sim/module.h"

namespace fpgadp::net {

/// In-network aggregation engine for mergeable gather responses — the
/// switch-resident combining the source paper motivates (and ACCL-style
/// collectives implement): instead of N response packets serializing
/// one after another through the destination's receive port, a per-port
/// combiner inside the switch folds them together at a modeled per-response
/// cost and releases ONE merged packet through the port. The incast wall
/// becomes a single serialization, and for shrinking merges (top-k) the
/// merged payload is smaller than the concatenation.
///
/// Not a sim::Module: the combiners live inside the switch, so the Fabric
/// drives them from its own Tick at the exact point a packet "is inside the
/// switch" (after the sender's tx serialization and the fault injector).
/// Attach with Fabric::set_agg_switch(). The control plane (Arm / Disarm /
/// KillPort) belongs to whoever owns the gather — the ShardCoordinator arms
/// a group per (request, port) at scatter and disarms it at finalize, so a
/// degraded gather can never strand held responses. Mutating it from a
/// coordinator Tick is safe because every engine ticks its modules one at
/// a time, in registration order (see sim::Engine).
///
/// Wire protocol: the switch combines kOffloadResp packets in merged form —
/// `user` = request id, `addr` = done-shard mask, `user2` = rejected-shard
/// mask, `bytes` = payload. A group completes when the union of its
/// contributions' masks covers the armed member mask; duplicates (lossy
/// retransmits) are mask-idempotent. On a lossy fabric the fabric
/// acknowledges absorbed sequenced packets on the combiner's behalf and the
/// merged packet travels unsequenced (seq 0) — the protocol terminates at
/// the switch, exactly like a real SmartSwitch offload.
class AggregatingSwitch {
 public:
  struct Config {
    /// Cycles the per-port combiner spends folding in one response.
    uint64_t combine_cycles_per_resp = 8;
  };

  /// Computes the merged payload size: (request_id, done_mask,
  /// concatenated_bytes) -> wire bytes. Runs inside Fabric::Tick, so it
  /// must be functional-only (shard::Workload::MergedBytes qualifies).
  using MergeSizer = std::function<uint64_t(uint64_t, uint64_t, uint64_t)>;

  AggregatingSwitch(const Config& config, MergeSizer sizer);

  // --- control plane (the gather owner) ---

  /// Opens the combine group for `request_id`'s responses arriving at
  /// fabric node `port`; the group completes when the contributions' masks
  /// cover `member_mask`.
  void Arm(uint64_t request_id, uint32_t port, uint64_t member_mask);
  /// Closes every group of `request_id` (gather finalized); held partial
  /// contributions are discarded.
  void Disarm(uint64_t request_id);
  /// Fault injection: the combiner on `port` dies. Held contributions are
  /// lost and every further response offered to the port's groups is
  /// consumed and dropped — the gather deadline is the caller's recovery.
  void KillPort(uint32_t port);

  // --- data plane (the Fabric) ---

  /// True when an armed group wants `p` (it never reaches the rx port).
  bool Wants(const Packet& p) const;

  /// The combined packet the switch releases when a group completes.
  struct Released {
    Packet packet;
    /// Cycle the combiner output is ready to start rx serialization.
    sim::Cycle ready_at = 0;
  };

  /// Folds one response into its group at switch-arrival cycle `at`.
  /// Returns the merged packet when this contribution completes the group.
  /// Precondition: Wants(p).
  std::optional<Released> Offer(sim::Cycle at, const Packet& p);

  /// Responses absorbed into groups that have not completed — the fabric
  /// counts these as in flight so the engine cannot quiesce around them.
  size_t held_responses() const { return held_; }

  uint64_t combines() const { return combines_; }
  uint64_t releases() const { return releases_; }
  /// Payload bytes the merge elided vs. forwarding every response.
  uint64_t bytes_elided() const { return bytes_elided_; }
  uint64_t dropped_dead_port() const { return dropped_dead_port_; }
  uint64_t duplicates_ignored() const { return duplicates_ignored_; }

 private:
  struct Group {
    uint64_t member_mask = 0;
    uint64_t done_mask = 0;
    uint64_t rejected_mask = 0;
    uint64_t concat_bytes = 0;
    uint32_t absorbed = 0;
    sim::Cycle combine_free = 0;  ///< The combiner pipeline's busy horizon.
  };

  Config config_;
  MergeSizer sizer_;
  std::map<std::pair<uint64_t, uint32_t>, Group> groups_;  ///< (req, port).
  std::set<uint32_t> dead_ports_;
  size_t held_ = 0;
  uint64_t combines_ = 0;
  uint64_t releases_ = 0;
  uint64_t bytes_elided_ = 0;
  uint64_t dropped_dead_port_ = 0;
  uint64_t duplicates_ignored_ = 0;
};

}  // namespace fpgadp::net

#endif  // FPGADP_NET_AGG_SWITCH_H_
