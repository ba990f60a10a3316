#ifndef FPGADP_BENCH_BENCH_COMMON_H_
#define FPGADP_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fpgadp::bench {

/// Shared observability harness for every bench binary. Declare one at the
/// top of main():
///
///   int main(int argc, char** argv) {
///     fpgadp::bench::Session session(argc, argv);
///     ...
///   }
///
/// Flags (unknown flags are ignored so benches can add their own):
///   --trace=<file>   Record every simulated engine run as Chrome
///                    trace_event JSON; open in chrome://tracing or
///                    https://ui.perfetto.dev. Module-busy spans, stream
///                    depth and hardware counter tracks; 1 trace "us" = 1
///                    kernel cycle.
///   --metrics        Print the metrics registry (stall attribution, stream
///                    traffic, memory/network counters) on exit.
///   --fault-seed=N   Seed for the fault injector of benches that support
///                    lossy-fabric runs (default 1).
///   --drop-rate=X    Per-packet drop probability in [0,1) for those
///                    benches; 0 (default) keeps the fabric loss-free.
///   --engine=MODE    Run() scheduler for every engine: "event" (default,
///                    the event-driven core) or "tick" (the every-cycle
///                    level-tick reference loop); any other value aborts.
///                    Cycle counts are bit-identical across modes; the
///                    flag exists to cross-check the schedulers and measure
///                    simulator throughput. Overrides the FPGADP_ENGINE
///                    environment variable. Engines tick on one thread;
///                    there is no thread-count or fast-forward knob.
///   --json=<file>    Dump every result row the bench recorded with
///                    AddResult(), plus the bench's total wall-clock, as a
///                    JSON file on exit — the machine-readable complement
///                    to the printed tables, for diffing perf trajectories
///                    across commits.
///
/// The session installs the process-global trace writer / metrics registry
/// (see obs/trace.h), which every Engine picks up when it starts running —
/// including engines constructed deep inside ExecuteFpga or pipeline
/// helpers. The destructor writes the trace file and prints metrics, so the
/// Session must outlive all engine runs (declare it first in main).
class Session {
 public:
  Session(int argc, char** argv);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool tracing() const { return writer_ != nullptr; }
  bool metrics_enabled() const { return metrics_ != nullptr; }
  const std::string& trace_path() const { return trace_path_; }

  /// Fault-model knobs for benches with lossy-fabric modes. The session
  /// only parses them; the bench constructs its own FaultInjector.
  uint64_t fault_seed() const { return fault_seed_; }
  double drop_rate() const { return drop_rate_; }

  /// The engine scheduler, installed process-wide in the constructor so it
  /// reaches engines constructed deep inside pipeline helpers.
  bool event_engine() const { return event_engine_; }

  /// The registry --metrics dumps, for benches that want to add their own
  /// instruments; nullptr when --metrics is off.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }

  /// One named numeric field of a result row.
  using ResultField = std::pair<std::string, double>;

  /// Records one result row for --json export (a no-op without --json).
  /// `name` identifies the scenario/configuration; fields are the numbers a
  /// printed table row would carry (cycles, wall seconds, items/sec, ...).
  void AddResult(const std::string& name,
                 const std::vector<ResultField>& fields);

  /// Fallback --json destination a bench can install before results are
  /// recorded; an explicit --json=<file> flag always wins.
  void SetDefaultJsonPath(const std::string& path);

  bool json_enabled() const { return !json_path_.empty(); }
  const std::string& json_path() const { return json_path_; }

 private:
  struct ResultRow {
    std::string name;
    std::vector<ResultField> fields;
  };

  std::string trace_path_;
  std::string json_path_;
  std::unique_ptr<obs::TraceWriter> writer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::vector<ResultRow> results_;
  std::chrono::steady_clock::time_point start_;
  uint64_t fault_seed_ = 1;
  double drop_rate_ = 0;
  bool event_engine_ = false;
  bool engine_flag_seen_ = false;
};

}  // namespace fpgadp::bench

#endif  // FPGADP_BENCH_BENCH_COMMON_H_
