#ifndef FPGADP_REPOBENCH_WORKLOADS_H_
#define FPGADP_REPOBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "span_log.h"

namespace fpgadp::repobench {

/// The benchmark's workloads, in report order.
const std::vector<std::string>& WorkloadNames();

/// How one evaluation runs.
struct RunOptions {
  uint64_t seed = 1;
  /// Self-test size: a fraction of the requests and a smaller corpus.
  bool short_run = false;
};

/// Raw samples behind the end-to-end modeled metrics, kept unaggregated so
/// a run can pool several evaluations (different traffic seeds) before
/// taking percentiles.
struct Headline {
  /// Serving: primary-class latencies at rho = 0.85. farview_scan:
  /// per-query latencies of the concurrent offload batch.
  std::vector<uint64_t> latencies;
  /// Serving: completions within SLO at rho = 1.20, and that run's modeled
  /// seconds. farview_scan: offloaded queries and the batch makespan.
  uint64_t good = 0;
  double good_seconds = 0;
  uint64_t ok = 0;     ///< Requests neither degraded, lost nor wrong.
  uint64_t total = 0;  ///< Requests offered.
  double recall_sum = 0;  ///< Result quality summed over checked results.
  uint64_t recall_n = 0;
};

/// One evaluation of a workload: every simulated run it defines, from
/// input generation to the last check.
struct Evaluation {
  Headline headline;
  /// Modeled-plane metrics: deterministic functions of (code, seed). The
  /// traced and untraced runs must agree on every entry bit for bit.
  std::map<std::string, double> modeled;
  /// Per-layer metrics only a traced run has: host-time spans and the
  /// per-request segment breakdown.
  std::map<std::string, double> traced;
  double setup_s = 0;        ///< Host seconds building inputs and systems.
  double run_s = 0;          ///< Host seconds inside simulated runs.
  uint64_t sim_cycles = 0;   ///< Modeled cycles those runs advanced.
  uint64_t attempted = 0;    ///< Requests or queries offered.
  uint64_t failed = 0;       ///< Degraded, lost or wrong results.
  std::vector<std::string> errors;  ///< Failed checks; empty = correct.
  std::string scheduling;    ///< Engine scheduler actually used.
  uint32_t threads = 0;      ///< Engine thread count actually used.
};

/// Nearest-rank percentile `p` of `v`, which it sorts; 0 when empty.
uint64_t Percentile(std::vector<uint64_t>& v, double p);

/// Runs workload `name` once. A non-null `spans` makes it the traced run:
/// shard workloads are wrapped in TracedWorkload and every phase records a
/// span; null runs the program exactly as shipped.
Evaluation Evaluate(const std::string& name, const RunOptions& options,
                    SpanLog* spans);

}  // namespace fpgadp::repobench

#endif  // FPGADP_REPOBENCH_WORKLOADS_H_
