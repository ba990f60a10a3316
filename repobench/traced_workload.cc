#include "traced_workload.h"

#include <algorithm>

namespace fpgadp::repobench {

TracedWorkload::TracedWorkload(shard::Workload* inner,
                               const std::string& layer, SpanLog* spans)
    : inner_(inner),
      spans_(spans),
      scatter_name_(layer + ".scatter"),
      serve_name_(layer + ".serve"),
      merge_name_(layer + ".merge"),
      merged_bytes_name_(layer + ".merged_bytes"),
      shared_bytes_name_(layer + ".scatter_shared_bytes"),
      slice_owner_name_(layer + ".slice_owner"),
      commit_name_(layer + ".commit_migration") {}

std::vector<shard::SubRequest> TracedWorkload::Scatter(uint64_t request_id) {
  ScopedSpan span(spans_, scatter_name_, static_cast<int64_t>(request_id),
                  Stamp());
  return inner_->Scatter(request_id);
}

shard::Service TracedWorkload::Serve(uint32_t shard, uint64_t request_id) {
  const int64_t now = Stamp();
  shard::Service svc;
  {
    ScopedSpan span(spans_, serve_name_, static_cast<int64_t>(request_id),
                    now);
    svc = inner_->Serve(shard, request_id);
  }
  serves_.push_back({request_id, shard, static_cast<sim::Cycle>(now),
                     std::max<uint64_t>(1, svc.compute_cycles)});
  return svc;
}

void TracedWorkload::Merge(uint64_t request_id,
                           const shard::PartialOutcome& outcome) {
  {
    ScopedSpan span(spans_, merge_name_, static_cast<int64_t>(request_id),
                    Stamp());
    inner_->Merge(request_id, outcome);
  }
  MergeRecord rec;
  rec.request = request_id;
  rec.completed_at = outcome.completed_at;
  for (const shard::PartialOutcome::Slice& s : outcome.slices) {
    if (s.outcome == shard::SubOutcome::kDone) rec.done_shards.push_back(s.shard);
  }
  merges_.push_back(std::move(rec));
}

uint64_t TracedWorkload::MergedBytes(uint64_t request_id, uint64_t done_mask,
                                     uint64_t concat_bytes) {
  ++calls_.merged_bytes;
  ScopedSpan span(spans_, merged_bytes_name_,
                  static_cast<int64_t>(request_id), Stamp());
  return inner_->MergedBytes(request_id, done_mask, concat_bytes);
}

uint64_t TracedWorkload::ScatterSharedBytes(uint64_t request_id) {
  ++calls_.scatter_shared_bytes;
  ScopedSpan span(spans_, shared_bytes_name_,
                  static_cast<int64_t>(request_id), Stamp());
  return inner_->ScatterSharedBytes(request_id);
}

uint32_t TracedWorkload::SliceOwner(uint32_t shard, uint64_t request_id) {
  ScopedSpan span(spans_, slice_owner_name_, static_cast<int64_t>(request_id),
                  Stamp());
  return inner_->SliceOwner(shard, request_id);
}

void TracedWorkload::CommitMigration(const shard::MigrationPlan& plan) {
  ScopedSpan span(spans_, commit_name_, -1, Stamp());
  inner_->CommitMigration(plan);
}

}  // namespace fpgadp::repobench
