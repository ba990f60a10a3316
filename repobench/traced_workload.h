#ifndef FPGADP_REPOBENCH_TRACED_WORKLOAD_H_
#define FPGADP_REPOBENCH_TRACED_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "span_log.h"
#include "src/shard/shard.h"
#include "src/sim/engine.h"

namespace fpgadp::repobench {

/// A shard::Workload decorator for the traced run. It forwards every
/// virtual of the Workload interface to the wrapped workload unchanged and
/// records, around each call, a host-time span named "<layer>.<call>" plus
/// the modeled cycle at which the cluster made it. Serve and Merge calls
/// are also kept as records, from which the benchmark rebuilds each
/// request's queue / service / gather segments.
///
/// Forwarding must be complete: a virtual left to the base-class default
/// would silently change the modeled run (MergedBytes sizes tree-gather
/// responses, ScatterSharedBytes sizes scatter bundles, SliceOwner and
/// CommitMigration route live resharding). The traced run is compared bit
/// for bit against the untraced one to catch exactly that.
class TracedWorkload : public shard::Workload {
 public:
  /// One Serve call: the slice (request, shard) started service at
  /// `start` and occupies its shard for `cycles` (at least 1, as the
  /// server charges it).
  struct ServeRecord {
    uint64_t request = 0;
    uint32_t shard = 0;
    sim::Cycle start = 0;
    uint64_t cycles = 0;
  };
  /// One Merge call, in finalize order.
  struct MergeRecord {
    uint64_t request = 0;
    sim::Cycle completed_at = 0;
    std::vector<uint32_t> done_shards;
  };
  /// Calls of the two virtuals that only tree topologies reach, to show
  /// those forwarding paths were exercised.
  struct CallCounts {
    uint64_t merged_bytes = 0, scatter_shared_bytes = 0;
  };

  /// `inner` and `spans` must outlive the decorator. `layer` prefixes the
  /// span names ("anns" gives "anns.serve", ...).
  TracedWorkload(shard::Workload* inner, const std::string& layer,
                 SpanLog* spans);

  /// The engine whose now() stamps Serve and Merge (set once the cluster
  /// exists; calls before that, e.g. Scatter from the front door's
  /// constructor, carry no cycle).
  void set_engine(const sim::Engine* engine) { engine_ = engine; }

  std::vector<shard::SubRequest> Scatter(uint64_t request_id) override;
  shard::Service Serve(uint32_t shard, uint64_t request_id) override;
  void Merge(uint64_t request_id,
             const shard::PartialOutcome& outcome) override;
  uint64_t MergedBytes(uint64_t request_id, uint64_t done_mask,
                       uint64_t concat_bytes) override;
  uint64_t ScatterSharedBytes(uint64_t request_id) override;
  uint32_t SliceOwner(uint32_t shard, uint64_t request_id) override;
  void CommitMigration(const shard::MigrationPlan& plan) override;

  const std::vector<ServeRecord>& serves() const { return serves_; }
  const std::vector<MergeRecord>& merges() const { return merges_; }
  const CallCounts& calls() const { return calls_; }

 private:
  int64_t Stamp() const {
    return engine_ == nullptr ? -1 : static_cast<int64_t>(engine_->now());
  }

  shard::Workload* inner_;
  SpanLog* spans_;
  const sim::Engine* engine_ = nullptr;
  std::string scatter_name_, serve_name_, merge_name_, merged_bytes_name_,
      shared_bytes_name_, slice_owner_name_, commit_name_;
  std::vector<ServeRecord> serves_;
  std::vector<MergeRecord> merges_;
  CallCounts calls_;
};

}  // namespace fpgadp::repobench

#endif  // FPGADP_REPOBENCH_TRACED_WORKLOAD_H_
