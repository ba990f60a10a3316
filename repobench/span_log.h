#ifndef FPGADP_REPOBENCH_SPAN_LOG_H_
#define FPGADP_REPOBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fpgadp::repobench {

/// Host seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval of the benchmark's traced run: a phase (dataset
/// build, cluster construction, a simulated run) or one call into a
/// workload layer (Serve, Merge, ...).
struct Span {
  const char* name = "";  ///< Interned by SpanLog; stable for its lifetime.
  double start_s = 0;     ///< Host seconds since the log was created.
  double end_s = 0;
  int64_t parent = -1;     ///< Index of the enclosing span, -1 at top level.
  int64_t request = -1;    ///< Request id, -1 when the span has none.
  int64_t sim_cycle = -1;  ///< Modeled cycle at the call, -1 outside a run.
};

/// In-memory span recorder. Spans nest by call order: a span opened while
/// another is open becomes its child. Nothing is written until WriteJson.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span and returns its index.
  int64_t Open(const std::string& name, int64_t request = -1,
               int64_t sim_cycle = -1);
  /// Closes the innermost open span, which must be `id`.
  void Close(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration and count of every span called `name`.
  double Seconds(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  /// Summed duration of the direct children of every span called `name`.
  double ChildSeconds(const std::string& name) const;

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool WriteJson(const std::string& path) const;

 private:
  const char* Intern(const std::string& name);

  double origin_;
  std::set<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t request = -1,
             int64_t sim_cycle = -1)
      : log_(log), id_(log == nullptr ? -1 : log->Open(name, request,
                                                        sim_cycle)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace fpgadp::repobench

#endif  // FPGADP_REPOBENCH_SPAN_LOG_H_
