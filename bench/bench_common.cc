#include "bench/bench_common.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/sim/engine.h"

namespace fpgadp::bench {

Session::Session(int argc, char** argv)
    : start_(std::chrono::steady_clock::now()) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path_ = arg + 8;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path_ = arg + 7;
    } else if (std::strcmp(arg, "--metrics") == 0) {
      metrics_ = std::make_unique<obs::MetricsRegistry>();
    } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
      fault_seed_ = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--drop-rate=", 12) == 0) {
      drop_rate_ = std::strtod(arg + 12, nullptr);
    } else if (std::strncmp(arg, "--engine=", 9) == 0) {
      // Same vocabulary (and the same loud failure on anything else) as
      // the FPGADP_ENGINE environment variable.
      event_engine_ =
          sim::SchedulingFromEnv(arg + 9) == sim::Scheduling::kEventDriven;
      engine_flag_seen_ = true;
    }
  }
  if (!trace_path_.empty()) {
    writer_ = std::make_unique<obs::TraceWriter>();
    obs::SetGlobalTraceWriter(writer_.get());
  }
  if (metrics_) obs::SetGlobalMetrics(metrics_.get());
  // Installed process-wide so engines constructed inside helpers
  // (ExecuteFpga, MicroRec, ACCL) inherit it without config plumbing. An
  // explicit --engine= flag overrides the FPGADP_ENGINE environment
  // variable (already folded into the process default); no flag leaves the
  // environment's choice standing.
  if (engine_flag_seen_) {
    sim::SetDefaultScheduling(event_engine_ ? sim::Scheduling::kEventDriven
                                            : sim::Scheduling::kLevelTick);
  }
  event_engine_ = sim::DefaultScheduling() == sim::Scheduling::kEventDriven;
}

void Session::AddResult(const std::string& name,
                        const std::vector<ResultField>& fields) {
  // Recorded unconditionally (it is a handful of doubles); dumped only when
  // a --json path is configured by flag or SetDefaultJsonPath.
  results_.push_back({name, fields});
}

void Session::SetDefaultJsonPath(const std::string& path) {
  if (json_path_.empty()) json_path_ = path;
}

namespace {

/// RFC 8259 string escaping for row/field names: quote, backslash, and
/// every control character below 0x20 (named escapes where JSON has them,
/// \u00XX otherwise). Scenario names built from user flags or file paths
/// can legally contain tabs and newlines; emitting those raw produced
/// files strict parsers reject.
std::string JsonEscape(const std::string& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out.push_back(kHex[u >> 4]);
          out.push_back(kHex[u & 0xF]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

/// Writes one numeric field value. JSON has no NaN/Infinity literals;
/// streaming them raw ("nan", "inf") silently corrupts the whole file, so
/// non-finite values degrade to null — absent, but parseable.
void WriteJsonNumber(std::ostream& os, double value) {
  if (std::isfinite(value)) {
    os << value;
  } else {
    os << "null";
  }
}

}  // namespace

Session::~Session() {
  if (!json_path_.empty()) {
    const double wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::ofstream out(json_path_);
    if (!out.good()) {
      std::cerr << "[bench] cannot write json results to " << json_path_
                << "\n";
    } else {
      out.precision(12);  // cycle counts must round-trip exactly
      out << "{\n  \"wall_clock_sec\": " << wall_sec << ",\n  \"rows\": [";
      for (size_t i = 0; i < results_.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
            << JsonEscape(results_[i].name) << "\"";
        for (const auto& [key, value] : results_[i].fields) {
          out << ", \"" << JsonEscape(key) << "\": ";
          WriteJsonNumber(out, value);
        }
        out << "}";
      }
      out << "\n  ]\n}\n";
      std::cerr << "[bench] wrote " << results_.size() << " result rows to "
                << json_path_ << "\n";
    }
  }
  if (writer_) {
    obs::SetGlobalTraceWriter(nullptr);
    const Status s = writer_->WriteFile(trace_path_);
    if (s.ok()) {
      std::cerr << "[bench] wrote " << writer_->event_count()
                << " trace events to " << trace_path_
                << " (open in chrome://tracing or ui.perfetto.dev; 1 us = 1 "
                   "cycle)\n";
    } else {
      std::cerr << "[bench] trace write failed: " << s << "\n";
    }
  }
  if (metrics_) {
    obs::SetGlobalMetrics(nullptr);
    std::cerr << "\n[bench] metrics registry (" << metrics_->size()
              << " instruments):\n"
              << metrics_->ToString();
  }
}

}  // namespace fpgadp::bench
