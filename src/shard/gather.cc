#include "src/shard/gather.h"

#include <algorithm>
#include <string>

#include "src/common/check.h"

namespace fpgadp::shard {

const char* GatherTopologyName(GatherTopology topology) {
  switch (topology) {
    case GatherTopology::kFlat: return "flat";
    case GatherTopology::kTree: return "tree";
    case GatherTopology::kSwitch: return "switch";
  }
  return "unknown";
}

bool ParseGatherTopology(const std::string& text, GatherTopology* out) {
  if (text == "flat") { *out = GatherTopology::kFlat; return true; }
  if (text == "tree") { *out = GatherTopology::kTree; return true; }
  if (text == "switch") { *out = GatherTopology::kSwitch; return true; }
  return false;
}

Status ValidateGather(const GatherConfig& config, uint32_t num_shards,
                      uint32_t replicas) {
  if (num_shards == 0) {
    return Status::InvalidArgument("gather needs at least one shard");
  }
  if (config.coordinator_ports == 0) {
    return Status::InvalidArgument(
        "gather needs at least one coordinator port");
  }
  if (replicas == 0) {
    return Status::InvalidArgument("replication factor must be >= 1");
  }
  if (replicas > 1) {
    // Tree and switch gather address peers by shard id; replica routing is
    // only defined for the flat response path.
    if (config.topology != GatherTopology::kFlat) {
      return Status::InvalidArgument(
          std::string(GatherTopologyName(config.topology)) +
          " gather cannot run replicated shards (R=" +
          std::to_string(replicas) + "): replication needs flat gather");
    }
    // Scatter bundles address subtree members by shard id too, and the
    // replay-after-failover protocol re-posts individual slices.
    if (config.scatter != ScatterMode::kUnicast) {
      return Status::InvalidArgument(
          "tree scatter cannot run replicated shards (R=" +
          std::to_string(replicas) + "): replication needs unicast scatter");
    }
  }
  if (config.topology != GatherTopology::kFlat && num_shards > 64) {
    // Merges are sized by Workload::MergedBytes, whose done-shard set is a
    // 64-bit mask.
    return Status::InvalidArgument(
        std::string(GatherTopologyName(config.topology)) +
        " gather supports at most 64 shards, got " +
        std::to_string(num_shards));
  }
  if ((config.topology == GatherTopology::kTree ||
       config.scatter == ScatterMode::kTree) &&
      config.fanout == 0) {
    return Status::InvalidArgument("tree gather/scatter needs fanout >= 1");
  }
  return Status::OK();
}

GatherPlan::GatherPlan(const GatherConfig& config, uint32_t num_shards,
                       uint32_t replicas)
    : config_(config), num_shards_(num_shards), replicas_(replicas) {
  FPGADP_CHECK_OK(ValidateGather(config_, num_shards_, replicas_));
}

void GatherPlan::Arm(uint64_t request_id,
                     const std::vector<SliceInfo>& slices,
                     uint64_t shared_bytes) {
  FPGADP_CHECK(routed());
  FPGADP_CHECK(!slices.empty());
  FPGADP_CHECK(routes_.find(request_id) == routes_.end());
  std::map<uint32_t, Route>& route = routes_[request_id];
  // One heap-shaped fanout-ary tree per coordinator port, over the port's
  // members in ascending shard order.
  for (uint32_t port = 0; port < ports(); ++port) {
    std::vector<const SliceInfo*> group;
    for (size_t i = 0; i < slices.size(); ++i) {
      FPGADP_CHECK(i == 0 || slices[i - 1].shard < slices[i].shard);
      FPGADP_CHECK(slices[i].request_bytes >= shared_bytes);
      if (PortOf(slices[i].shard) == port) group.push_back(&slices[i]);
    }
    for (size_t i = 0; i < group.size(); ++i) {
      Route r;
      r.gather.port = port;
      if (i > 0) r.gather.parent = group[(i - 1) / config_.fanout]->shard;
      r.scatter.root = i == 0;
      const size_t first_child = i * config_.fanout + 1;
      for (size_t c = first_child;
           c < first_child + config_.fanout && c < group.size(); ++c) {
        ++r.gather.expected_children;
        r.scatter.down.push_back(group[c]->shard);
      }
      r.scatter.slice_bytes = group[i]->request_bytes;
      r.scatter.tag = group[i]->tag;
      // Seeded with the member's distinct bytes; the bottom-up pass below
      // folds in descendants, and the shared portion is added once per
      // bundle at the end.
      r.scatter.subtree_bytes = group[i]->request_bytes - shared_bytes;
      route[group[i]->shard] = std::move(r);
    }
    // Heap order guarantees parent index < child index, so one reverse
    // sweep accumulates subtree distinct bytes bottom-up.
    for (size_t i = group.size(); i-- > 1;) {
      route[group[(i - 1) / config_.fanout]->shard].scatter.subtree_bytes +=
          route[group[i]->shard].scatter.subtree_bytes;
    }
    for (const SliceInfo* s : group) {
      route[s->shard].scatter.subtree_bytes += shared_bytes;
    }
  }
}

void GatherPlan::Release(uint64_t request_id) { routes_.erase(request_id); }

std::optional<GatherPlan::GatherRole> GatherPlan::GatherRoleOf(
    uint64_t request_id, uint32_t shard) const {
  if (config_.topology != GatherTopology::kTree) {
    GatherRole depth1;
    depth1.port = PortOf(shard);
    return depth1;
  }
  const auto it = routes_.find(request_id);
  if (it == routes_.end()) return std::nullopt;
  const auto rit = it->second.find(shard);
  if (rit == it->second.end()) return std::nullopt;
  return rit->second.gather;
}

const GatherPlan::ScatterRole* GatherPlan::ScatterRoleOf(
    uint64_t request_id, uint32_t shard) const {
  const auto it = routes_.find(request_id);
  if (it == routes_.end()) return nullptr;
  const auto rit = it->second.find(shard);
  return rit == it->second.end() ? nullptr : &rit->second.scatter;
}

}  // namespace fpgadp::shard
