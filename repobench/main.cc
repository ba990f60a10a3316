// The repository benchmark. One command runs one named workload against the
// public APIs of serve/, shard/, net/, anns/, kvs/, farview/ and sim/,
// checks every output, and prints its metrics by name with units; the last
// line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//   repobench --selftest
//
// --trace 0 measures the program as shipped (default scheduler, default
// thread count, no observer attached) and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced evaluations, reports the
// per-layer metrics, and writes the last traced evaluation's spans to
// <spans-dir>/spans-<workload>.jsonl. Every evaluation of a run must
// reproduce the first one's modeled metrics bit for bit. No other flag is
// accepted: engine, thread and observer flags are refused, as is the
// FPGADP_ENGINE environment variable.
//
// --selftest runs a short untraced, a repeated untraced and a short traced
// evaluation of every workload and checks that all three agree on the
// modeled metrics, that every check passes, and that the decorator's
// forwarding paths were exercised.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "span_log.h"
#include "workloads.h"

namespace fpgadp::repobench {
namespace {

struct MetricSpec {
  std::string name;
  const char* unit;
};

/// End-to-end metrics, printed with --trace 0 (BENCHMARK.json end_to_end).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"run_wall_s", "s"},
    {"sim_mcycles_per_s", "Mcycles/s"},
    {"peak_rss_mb", "MB"},
    {"p50_cycles", "cycles"},
    {"p99_cycles", "cycles"},
    {"goodput_per_s", "1/s"},
    {"ok_frac", "fraction"},
    {"result_recall", "fraction"},
};

/// Per-layer metrics, printed with --trace 1 (BENCHMARK.json per_layer).
std::vector<MetricSpec> PerLayer() {
  std::vector<MetricSpec> v = {
      {"sim.run_s", "s"},
      {"sim.cycles", "cycles"},
      {"sim.other_s", "s"},
      {"serve.build_s", "s"},
  };
  auto add = [&](const std::string& name, const char* unit) {
    v.push_back({name, unit});
  };
  for (const char* tag : {"r050", "r085", "r120"}) {
    for (const char* c : {"offered", "shed", "completed", "slo_violations"}) {
      add(std::string("serve.") + c + "." + tag, "count");
    }
  }
  for (const char* tag : {"r050", "r085", "r120"}) {
    for (const char* seg : {"queue", "service", "gather"}) {
      for (const char* pct : {"p50", "p99"}) {
        add(std::string("shard.seg_") + seg + "_" + pct + "." + tag, "cycles");
      }
    }
  }
  const std::vector<MetricSpec> fixed = {
      {"serve.p50_cycles.r050", "cycles"},
      {"serve.p99_cycles.r050", "cycles"},
      {"serve.p50_cycles.r085", "cycles"},
      {"serve.p99_cycles.r085", "cycles"},
      {"serve.p99_cycles.r120", "cycles"},
      {"serve.goodput_rps.r120", "1/s"},
      {"serve.error_frac", "fraction"},
      {"shard.busy_frac", "fraction"},
      {"shard.queue_hwm_max", "count"},
      {"shard.svc_est_err_pct", "%"},
      {"shard.gather_stall_cycles", "cycles"},
      {"shard.late_responses", "count"},
      {"shard.degraded", "count"},
      {"shard.failovers", "count"},
      {"shard.replayed_slices", "count"},
      {"shard.beacon_timeouts", "count"},
      {"shard.merges_forwarded", "count"},
      {"shard.bundles_forwarded", "count"},
      {"shard.recovery_cycles.r085", "cycles"},
      {"net.packets", "count"},
      {"net.payload_mb", "MB"},
      {"net.coord_rx_busy_frac", "fraction"},
      {"net.coord_tx_busy_frac", "fraction"},
      {"net.faults_injected", "count"},
      {"anns.dataset_s", "s"},
      {"anns.index_build_s", "s"},
      {"anns.scatter_s", "s"},
      {"anns.serve_s", "s"},
      {"anns.serve_calls", "count"},
      {"anns.serve_us_per_call", "us"},
      {"anns.merge_s", "s"},
      {"anns.recall_at_10", "fraction"},
      {"kvs.load_s", "s"},
      {"kvs.serve_s", "s"},
      {"kvs.merge_s", "s"},
      {"farview.table_build_s", "s"},
      {"farview.offload_makespan_cycles", "cycles"},
      {"farview.fetch_makespan_cycles", "cycles"},
      {"farview.wire_bytes_offload", "bytes"},
      {"farview.wire_bytes_fetch", "bytes"},
      {"farview.wire_reduction", "fraction"},
      {"farview.scan_gbps", "GB/s"},
      {"farview.fetch_gbps", "GB/s"},
      {"memory.dram_gbps", "GB/s"},
      {"trace.overhead_x", "x"},
  };
  v.insert(v.end(), fixed.begin(), fixed.end());
  return v;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

long Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : n;
}

/// Lists the modeled entries on which two evaluations differ.
std::vector<std::string> Diff(const std::map<std::string, double>& a,
                              const std::map<std::string, double>& b) {
  std::vector<std::string> out;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end()) {
      out.push_back(k + " missing");
    } else if (std::memcmp(&v, &it->second, sizeof(double)) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: %.17g vs %.17g", k.c_str(), v,
                    it->second);
      out.push_back(buf);
    }
  }
  for (const auto& [k, v] : b) {
    if (a.count(k) == 0) out.push_back(k + " unexpected");
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-dir <dir>]\n"
               "       repobench --selftest\nworkloads:",
               why);
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

void PrintErrors(const std::string& what, const Evaluation& ev) {
  for (const std::string& e : ev.errors) {
    std::printf("CHECK FAILED [%s]: %s\n", what.c_str(), e.c_str());
  }
}

int SelfTest() {
  bool ok = true;
  for (const std::string& w : WorkloadNames()) {
    RunOptions opts;
    opts.seed = 1;
    opts.short_run = true;
    const Evaluation a = Evaluate(w, opts, nullptr);
    const Evaluation b = Evaluate(w, opts, nullptr);
    SpanLog spans;
    const Evaluation t = Evaluate(w, opts, &spans);
    bool pass = a.errors.empty() && b.errors.empty() && t.errors.empty();
    PrintErrors(w + " untraced", a);
    PrintErrors(w + " traced", t);
    for (const std::string& d : Diff(a.modeled, b.modeled)) {
      std::printf("NONDETERMINISTIC [%s]: %s\n", w.c_str(), d.c_str());
      pass = false;
    }
    for (const std::string& d : Diff(a.modeled, t.modeled)) {
      std::printf("TRACED RUN DIFFERS [%s]: %s\n", w.c_str(), d.c_str());
      pass = false;
    }
    if (w == "anns_topk") {
      // Tree gather sizes merges through MergedBytes and tree scatter sizes
      // bundles through ScatterSharedBytes; both must reach the workload.
      for (const char* call : {"trace.calls_merged_bytes",
                               "trace.calls_scatter_shared_bytes"}) {
        const auto it = t.traced.find(call);
        if (it == t.traced.end() || it->second <= 0) {
          std::printf("FORWARDING NOT EXERCISED [%s]: %s\n", w.c_str(), call);
          pass = false;
        }
      }
    }
    if (w != "farview_scan" && t.traced.count("shard.seg_queue_p50.r050") == 0) {
      std::printf("NO SEGMENTS [%s]\n", w.c_str());
      pass = false;
    }
    std::printf("selftest %-13s %s (%zu modeled metrics, %zu spans)\n",
                w.c_str(), pass ? "PASS" : "FAIL", a.modeled.size(),
                spans.spans().size());
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name.c_str(), v,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

/// Traffic seeds per untraced run: evaluation i uses sub-run i % kSubRuns,
/// and the end-to-end modeled metrics pool the samples of all sub-runs, so
/// tail percentiles rest on kSubRuns times the requests of one evaluation.
constexpr size_t kSubRuns = 16;

uint64_t SubSeed(uint64_t seed, size_t sub) { return seed * 1000003ull + sub; }

/// The end-to-end modeled metrics over the pooled samples of `evals`.
std::map<std::string, double> Pool(const std::vector<Evaluation>& evals) {
  std::vector<uint64_t> lat;
  uint64_t good = 0, ok = 0, total = 0, recall_n = 0;
  double good_seconds = 0, recall_sum = 0;
  for (const Evaluation& ev : evals) {
    const Headline& h = ev.headline;
    lat.insert(lat.end(), h.latencies.begin(), h.latencies.end());
    good += h.good;
    good_seconds += h.good_seconds;
    ok += h.ok;
    total += h.total;
    recall_sum += h.recall_sum;
    recall_n += h.recall_n;
  }
  return {{"p50_cycles", double(Percentile(lat, 0.50))},
          {"p99_cycles", double(Percentile(lat, 0.99))},
          {"goodput_per_s", good_seconds == 0 ? 0 : double(good) / good_seconds},
          {"ok_frac", total == 0 ? 0 : double(ok) / double(total)},
          {"result_recall",
           recall_n == 0 ? 0 : recall_sum / double(recall_n)},
          {"latency_samples", double(lat.size())}};
}

int Measure(const std::string& workload, uint64_t seed, double seconds,
            bool trace, const std::string& spans_dir) {
  std::printf("repobench: workload %s, seed %llu, %s run, %.0f s budget\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", seconds);

  // Untraced: cycle through the kSubRuns traffic seeds until every one ran
  // and the budget is spent. Traced: alternate untraced and traced
  // evaluations of sub-run 0 (at least two of each), so host noise hits
  // both alike. Hard stop well inside the 180 s limit.
  const double hard_stop = 120;
  const double t0 = Now();
  std::vector<Evaluation> plain, traced;
  SpanLog last_spans;
  bool correct = true;
  while (true) {
    const double elapsed = Now() - t0;
    const bool enough = trace ? plain.size() >= 2 && traced.size() >= 2
                              : plain.size() >= kSubRuns;
    if ((enough && elapsed >= seconds) || elapsed >= hard_stop) break;
    RunOptions opts;
    opts.seed = SubSeed(seed, trace ? 0 : plain.size() % kSubRuns);
    plain.push_back(Evaluate(workload, opts, nullptr));
    if (plain.size() > kSubRuns) {
      // Only the first evaluation of each sub-run feeds the pooled
      // metrics; dropping later samples keeps peak memory independent of
      // how many evaluations fit the budget.
      plain.back().headline = Headline{};
    }
    if (trace) {
      SpanLog spans;
      traced.push_back(Evaluate(workload, opts, &spans));
      last_spans = std::move(spans);
    }
  }
  const size_t subs = trace ? 1 : std::min(kSubRuns, plain.size());
  if (!trace && plain.size() < kSubRuns) {
    std::printf("CHECK FAILED: only %zu of %zu sub-runs fit the time limit\n",
                plain.size(), kSubRuns);
    correct = false;
  }
  const Evaluation& first = plain.front();
  std::printf("engine: scheduling=%s threads=%u (nproc %ld); %zu untraced "
              "and %zu traced evaluations over %zu traffic sub-seed(s)\n",
              first.scheduling.c_str(), first.threads, Nproc(), plain.size(),
              traced.size(), subs);
  if (workload != "farview_scan") {
    std::printf("generator: open-loop Poisson front door driven in simulated "
                "time; it injects every arrival on its due cycle, so it is "
                "never late and no lateness is reported\n");
  }
  if (long(first.threads) > Nproc()) {
    std::printf("CHECK FAILED: %u engine threads exceed nproc %ld\n",
                first.threads, Nproc());
    correct = false;
  }

  // Every evaluation must pass its checks and reproduce the modeled
  // metrics of the first evaluation of its sub-run bit for bit (same
  // seed, traced or not).
  uint64_t attempted = 0, failed = 0;
  auto audit = [&](const Evaluation& ev, const Evaluation& ref,
                   const char* kind, size_t i) {
    attempted += ev.attempted;
    failed += ev.failed;
    if (!ev.errors.empty()) correct = false;
    PrintErrors(std::string(kind) + " #" + std::to_string(i), ev);
    for (const std::string& d : Diff(ref.modeled, ev.modeled)) {
      std::printf("NONDETERMINISTIC [%s #%zu]: %s\n", kind, i, d.c_str());
      correct = false;
    }
  };
  for (size_t i = 0; i < plain.size(); ++i) {
    audit(plain[i], plain[i % subs], "untraced", i);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    audit(traced[i], first, "traced", i);
  }

  std::vector<double> setup, run, rate;
  for (const Evaluation& ev : plain) {
    setup.push_back(ev.setup_s);
    run.push_back(ev.run_s);
    rate.push_back(double(ev.sim_cycles) / 1e6 / ev.run_s);
  }
  std::printf("host seconds per evaluation: run min %.4f median %.4f max "
              "%.4f; setup min %.4f median %.4f max %.4f\n",
              *std::min_element(run.begin(), run.end()), Median(run),
              *std::max_element(run.begin(), run.end()),
              *std::min_element(setup.begin(), setup.end()), Median(setup),
              *std::max_element(setup.begin(), setup.end()));
  std::vector<std::pair<MetricSpec, double>> out;
  if (!trace) {
    std::map<std::string, double> e2e = Pool(
        std::vector<Evaluation>(plain.begin(), plain.begin() + subs));
    e2e["setup_s"] = Median(setup);
    e2e["run_wall_s"] = Median(run);
    e2e["sim_mcycles_per_s"] = Median(rate);
    e2e["peak_rss_mb"] = PeakRssMb();
    for (const MetricSpec& m : kEndToEnd) out.push_back({m, e2e[m.name]});
    std::printf("\nend-to-end metrics (host: median of %zu evaluations; "
                "modeled: pooled over %zu sub-runs, %.0f latency samples)\n",
                plain.size(), subs, e2e["latency_samples"]);
    for (const auto& [m, v] : out) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), v, m.unit);
    }
    std::printf("\nmodeled metrics of sub-run 0\n");
    for (const auto& [k, v] : first.modeled) {
      if (k.rfind("serve.", 0) == 0 || k.rfind("farview.", 0) == 0 ||
          k.rfind("shard.recovery", 0) == 0) {
        std::printf("  %-34s %18.6f\n", k.c_str(), v);
      }
    }
  } else {
    // Host-time layer metrics: median over the traced evaluations. Modeled
    // and segment metrics are identical in every evaluation.
    std::map<std::string, double> layer = first.modeled;
    for (const auto& [k, v] : traced.front().traced) {
      std::vector<double> vals;
      for (const Evaluation& ev : traced) vals.push_back(ev.traced.at(k));
      layer[k] = Median(vals);
    }
    std::vector<double> traced_run;
    for (const Evaluation& ev : traced) traced_run.push_back(ev.run_s);
    layer["trace.overhead_x"] = Median(traced_run) / Median(run);
    std::printf("\nper-layer metrics of sub-run 0 (traced run_wall_s %.6f s "
                "vs untraced %.6f s)\n",
                Median(traced_run), Median(run));
    std::vector<std::string> absent;
    for (const MetricSpec& m : PerLayer()) {
      const auto it = layer.find(m.name);
      const double v = it == layer.end() ? 0 : it->second;
      if (it == layer.end()) absent.push_back(m.name);
      out.push_back({m, v});
      std::printf("  %-34s %18.6f %s%s\n", m.name.c_str(), v, m.unit,
                  it == layer.end() ? "  (n/a)" : "");
    }
    if (!absent.empty()) {
      std::printf("n/a on %s (layer not exercised by this workload; "
                  "reported as 0):",
                  workload.c_str());
      for (const std::string& a : absent) std::printf(" %s", a.c_str());
      std::printf("\n");
    }
    if (!spans_dir.empty()) {
      const std::string path = spans_dir + "/spans-" + workload + ".jsonl";
      if (last_spans.WriteJson(path)) {
        std::printf("spans: %zu written to %s\n", last_spans.spans().size(),
                    path.c_str());
      } else {
        std::printf("spans: could not write %s\n", path.c_str());
      }
    }
  }
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fpgadp::repobench

int main(int argc, char** argv) {
  using namespace fpgadp::repobench;
  if (std::getenv("FPGADP_ENGINE") != nullptr) {
    return Usage("FPGADP_ENGINE is set; the benchmark runs the shipped "
                 "default scheduler only");
  }
  // glibc adapts its mmap threshold to the block sizes freed so far, so
  // whether a multi-megabyte table comes from fresh (page-faulted) memory
  // or from the heap flipped between processes and made setup_s bimodal.
  // Fixed thresholds keep freed memory in the heap: every evaluation after
  // the first does the same work.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's 64-bit maximum.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) return SelfTest();
  std::string workload, spans_dir;
  uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds) || seconds == 0) {
        return Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUint(value, &trace) || trace > 1) return Usage("bad --trace");
    } else if (flag == "--spans-dir") {
      spans_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || trace > 1) {
    return Usage("--seed, --seconds and --trace are required");
  }
  return Measure(workload, seed, double(seconds), trace == 1, spans_dir);
}
