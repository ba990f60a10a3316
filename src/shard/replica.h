#ifndef FPGADP_SHARD_REPLICA_H_
#define FPGADP_SHARD_REPLICA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/module.h"

namespace fpgadp::obs {
class MetricsRegistry;
}  // namespace fpgadp::obs

namespace fpgadp::shard {

/// Elastic-operations knobs for one ShardCluster. Every default leaves the
/// cluster exactly as it was before replication existed: one replica per
/// shard, no beacons on the wire, no admission penalty — the R=1 path stays
/// bit-identical to the pre-replication goldens.
struct ReplicaConfig {
  /// Replicas per shard (R). R > 1 requires flat gather topology; replica r
  /// of shard s occupies fabric node GatherPlan::ReplicaNode(s, r).
  uint32_t replication_factor = 1;
  /// Every replica server posts a kHealthBeacon to its coordinator port
  /// each interval. 0 disables beacons entirely (failover then relies on
  /// the RC transport's retry cap alone).
  uint64_t beacon_interval_cycles = 0;
  /// Coordinator-side liveness deadline: a replica whose last beacon is
  /// older than this is declared dead; a dead primary is promoted away
  /// from. Must be comfortably larger than the interval plus wire time —
  /// the constructor CHECKs a 2x floor. 0 disables beacon-driven failover.
  uint64_t beacon_timeout_cycles = 0;
  /// Deadline-feasibility admission adds the remaining window to every
  /// slice ETA targeting a shard that promoted less than this many cycles
  /// ago, so the front door sheds into the recovery gap instead of blowing
  /// the SLO. 0 disables the penalty.
  uint64_t promotion_penalty_cycles = 0;
};

/// Per-shard replica bookkeeping: which replica is primary, which are
/// still alive, and when each was last heard from. Owned by ElasticState;
/// mutated only from coordinator/server Tick()s, which the engine runs one
/// at a time.
class ReplicaSet {
 public:
  ReplicaSet(uint32_t num_shards, uint32_t replication_factor);

  uint32_t num_shards() const { return num_shards_; }
  uint32_t replication_factor() const { return replication_factor_; }

  /// The replica index currently serving `shard`.
  uint32_t Primary(uint32_t shard) const;
  bool alive(uint32_t shard, uint32_t replica) const;
  uint32_t alive_count(uint32_t shard) const;

  /// True when the shard still has a live standby to promote to.
  bool CanPromote(uint32_t shard) const;

  /// Declares the current primary dead and advances to the next live
  /// replica (cyclic scan from primary+1). Returns false — and leaves the
  /// primary in place — when no live standby remains.
  bool Promote(uint32_t shard);

  /// Declares one replica dead without promoting (a standby that missed
  /// its beacon deadline). Killing the primary this way is allowed; the
  /// caller decides whether to promote.
  void MarkDead(uint32_t shard, uint32_t replica);

  void ObserveBeacon(uint32_t shard, uint32_t replica, sim::Cycle cycle);
  sim::Cycle last_beacon(uint32_t shard, uint32_t replica) const;

  uint64_t promotions() const { return promotions_; }

 private:
  size_t Index(uint32_t shard, uint32_t replica) const;

  uint32_t num_shards_;
  uint32_t replication_factor_;
  std::vector<uint32_t> primary_;     ///< Per shard.
  std::vector<uint8_t> alive_;        ///< shard-major [shard][replica].
  std::vector<sim::Cycle> last_beacon_;
  uint64_t promotions_ = 0;
};

/// One live key-range migration: stream `state_bytes` of shard `source`'s
/// state for [range_lo, range_hi] to `target` over the fabric, then flip
/// ownership. The stream pays real wire serialization, so copying contends
/// with serving — that contention is the cost the E25 tables measure.
struct MigrationPlan {
  uint32_t source = 0;
  uint32_t target = 0;
  uint64_t range_lo = 0;
  uint64_t range_hi = 0;  ///< Inclusive.
  /// Total bytes of state to stream before ownership can flip.
  uint64_t state_bytes = 0;
  /// Bytes per kMigrateChunk packet.
  uint64_t chunk_bytes = 4096;
  /// Source-side pacing: cycles between consecutive chunk posts. Spreads
  /// the copy out so serving traffic interleaves instead of queueing behind
  /// a megabyte burst.
  uint64_t chunk_interval_cycles = 32;
};

enum class MigrationPhase : uint8_t {
  kCopy = 0,   ///< Chunks streaming source -> target; source still owns.
  kDrain = 1,  ///< Ownership flipped; requests scattered pre-flip drain out.
  kDone = 2,   ///< Drained: no in-flight request predates the flip.
  kAborted = 3,  ///< A chunk or the done notification hit the retry cap;
                 ///< ownership never flipped, no state was lost.
};

const char* MigrationPhaseName(MigrationPhase phase);

/// Runtime state of one migration. Shared (via ElasticState) between the
/// coordinator, which starts it and commits the flip, and the source /
/// target servers, which stream and count the chunks. All writes happen in
/// serially-ticked modules.
struct Migration {
  MigrationPlan plan;
  MigrationPhase phase = MigrationPhase::kCopy;
  uint64_t seq = 0;  ///< Cluster-unique id; carried in Packet::user.
  sim::Cycle started_at = 0;
  sim::Cycle flipped_at = 0;
  sim::Cycle finished_at = 0;
  uint64_t bytes_streamed = 0;   ///< Source-side: posted to the fabric.
  uint64_t bytes_received = 0;   ///< Target-side: chunk payload landed.
  bool start_seen = false;       ///< Source observed kMigrateStart.
  sim::Cycle next_chunk_at = 0;  ///< Source-side pacing cursor.
};

/// The shared elastic-operations state of one ShardCluster: replica
/// liveness plus active/finished migrations. The cluster owns one instance
/// and hands a pointer to the coordinator and every server; a null pointer
/// (standalone construction) means "no elastic operations", which all
/// consumers treat as R=1 with every feature off.
struct ElasticState {
  ElasticState(const ReplicaConfig& config, uint32_t num_shards);

  /// The migration carrying `seq`, or nullptr.
  Migration* Find(uint64_t seq);
  /// The copy-phase migration streaming out of `shard`, or nullptr.
  Migration* ActiveCopyFrom(uint32_t shard);
  /// True while `shard` is source or target of a kCopy/kDrain migration.
  bool Busy(uint32_t shard) const;

  ReplicaConfig config;
  ReplicaSet replicas;
  std::vector<Migration> migrations;
  uint64_t next_migration_seq = 1;
};

/// A policy hook, not a control loop: reads the gauges a ShardCluster
/// exports into a MetricsRegistry (coordinator queue high-watermarks,
/// `ingress_shed`, fabric port utilization) and recommends adding or
/// draining a shard. The driver (a bench sweep, an operator script)
/// applies the decision between runs — shard count is construction-time
/// state, so the hook deliberately returns intent instead of mutating the
/// cluster mid-tick.
class Autoscaler {
 public:
  struct Config {
    /// Recommend kAdd when any shard's queue high-watermark reaches this.
    double queue_hwm_high = 12.0;
    /// Recommend kAdd when the coordinator shed this many requests.
    double ingress_shed_high = 1.0;
    /// Recommend kAdd when any coordinator port's receive utilization
    /// (rx_busy_cycles / elapsed) reaches this fraction.
    double port_util_high = 0.80;
    /// Recommend kDrain when every signal is below this fraction of its
    /// high threshold (ports below port_util_low, no sheds, queues under
    /// low-fraction of queue_hwm_high).
    double port_util_low = 0.10;
    uint32_t min_shards = 1;
    uint32_t max_shards = 64;
  };

  enum class Action : uint8_t { kHold = 0, kAdd = 1, kDrain = 2 };

  struct Decision {
    Action action = Action::kHold;
    /// kDrain: the coldest shard (lowest served count) to migrate off.
    uint32_t shard = 0;
    std::string reason;
  };

  explicit Autoscaler(const Config& config) : config_(config) {}

  /// Evaluates the gauges `ShardCluster::ExportMetrics`-style exports left
  /// in `registry`. `coord_name`/`fabric_name` are the module names the
  /// gauge keys embed; `elapsed_cycles` normalizes port busy-cycles into
  /// utilization. Safe to call any time outside a tick phase.
  Decision Evaluate(const obs::MetricsRegistry& registry,
                    const std::string& coord_name,
                    const std::string& fabric_name, uint32_t num_shards,
                    uint32_t coordinator_ports,
                    uint64_t elapsed_cycles) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace fpgadp::shard

#endif  // FPGADP_SHARD_REPLICA_H_
