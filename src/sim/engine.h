#ifndef FPGADP_SIM_ENGINE_H_
#define FPGADP_SIM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/module.h"
#include "src/sim/stream.h"

namespace fpgadp::sim {

/// Observability knobs for a traced engine run.
struct TraceOptions {
  /// Cycles between stream-depth / hardware-counter samples. Spans are
  /// tracked every cycle regardless.
  uint32_t sample_period = 16;
  /// Label for this engine's process track in the trace viewer.
  std::string label = "engine";
};

/// How Run() decides which modules to tick each cycle.
///
///  * kEventDriven — the default and the one production scheduler:
///    per-module activation. A module ticks only when armed (its own
///    NextEventCycle hint, residual items on a bound input stream, a stream
///    commit/drain edge, or an explicit WakeUp). Idle modules cost zero per
///    cycle and cycles with no armed work are jumped over. Modules not
///    SetEventSafe() are always active: ticked every visited cycle, and
///    skipped only across gaps where every stream is empty and every hint
///    lies ahead — the same NextEventCycle contract, applied to them alone.
///  * kLevelTick — the reference oracle: every module ticks every cycle,
///    with no skipping of any kind. Event-driven runs must reproduce its
///    cycles and counters bit for bit; it stays selectable (`--engine=tick`,
///    FPGADP_ENGINE=tick) so tests and CI can check that.
enum class Scheduling : uint8_t { kLevelTick, kEventDriven };

/// Process-global default new engines are constructed with, so harness
/// flags (bench_common's --engine) reach engines built deep inside pipeline
/// helpers (ExecuteFpga, MicroRec, ACCL) without threading a knob through
/// every config struct; Engine::SetScheduling overrides it per engine. It
/// is kEventDriven unless the FPGADP_ENGINE environment variable (read
/// once, at startup) says "tick", so test tiers can sweep the scheduler
/// without rebuilding.
void SetDefaultScheduling(Scheduling s);
Scheduling DefaultScheduling();

/// Parses an FPGADP_ENGINE value: null (unset) and "event" select
/// kEventDriven, "tick" selects kLevelTick. Any other value aborts with a
/// message naming both accepted values — a typo must not silently pick a
/// scheduler.
Scheduling SchedulingFromEnv(const char* value);

/// Drives a set of modules and streams with a two-phase, cycle-stepped loop:
/// each cycle every module Tick()s (reads are visible, writes staged), then
/// every stream Commit()s staged writes. The engine neither owns modules nor
/// streams; pipelines typically hold them as members and register pointers.
///
///   Engine e(/*clock_hz=*/200e6);
///   e.AddModule(&source); e.AddModule(&kernel); e.AddModule(&sink);
///   e.AddStream(&in); e.AddStream(&out);
///   Result<Cycle> cycles = e.Run(/*max_cycles=*/1 << 24);
///
/// Observability: attach a TraceWriter (or set the process-global one — see
/// obs/trace.h) and every run records per-module busy spans, stream-depth
/// counter tracks, and hardware counters published by modules, as Chrome
/// trace_event JSON. Attach a MetricsRegistry and the run exports stall
/// attribution and stream traffic totals. Both are pure observers: enabling
/// them never changes simulated cycle counts, and when disabled the cost is
/// one pointer check per cycle.
///
/// Two paths drive the cycles, and they agree on cycle counts and every
/// per-module counter bit for bit (locked down by
/// tests/golden_cycles_test.cc and tests/engine_event_test.cc):
///
///  * The event scheduler (Run() by default): keeps a per-module activation
///    state plus a calendar heap and ticks only armed modules; stream
///    commit/drain edges and explicit WakeUp() calls re-arm sleepers, and
///    cycles with no armed work are jumped over, their stall attribution
///    settled in closed form via Module::AccountSkip. Host cost scales with
///    events, not cycles x modules. See DESIGN.md "Event-driven core".
///
///  * The level-tick loop: every module ticks every cycle, in registration
///    order. It is the differential oracle and is reached only by Step(),
///    by observed runs, and by SetScheduling(kLevelTick) (`--engine=tick`,
///    FPGADP_ENGINE=tick).
///
/// Attaching a trace writer or metrics registry routes that engine's Run()
/// through the level-tick loop: per-cycle probes need every cycle.
class Engine {
 public:
  /// `clock_hz` is the modeled kernel clock, used only by reporting helpers.
  explicit Engine(double clock_hz = 200e6);
  ~Engine();

  /// Registers a module; ticked in registration order (order never affects
  /// results thanks to two-phase streams).
  void AddModule(Module* module);

  /// Registers a stream so the engine commits it each cycle. Commit work is
  /// skipped for streams that staged nothing: writers enqueue themselves on
  /// a dirty-stream list the commit phase drains, so streams with no
  /// traffic cost zero per cycle.
  void AddStream(StreamBase* stream);

  /// Records this run into `writer` (one process track group per engine).
  /// Overrides the process-global writer for this engine.
  void EnableTracing(obs::TraceWriter* writer, TraceOptions options = {});

  /// Exports run statistics into `registry` when each Run() finishes.
  /// Overrides the process-global registry for this engine.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Always 1: every engine ticks on the calling thread. Kept only because
  /// the repository benchmark (repobench/workloads.cc) reports it; remove
  /// it together with that field in the next benchmark change.
  uint32_t threads() const { return 1; }

  /// Selects the Run() scheduler (see Scheduling). Event-driven runs are
  /// bit-identical to level-tick runs; the level-tick loop stays available
  /// as the reference for differential testing (`--engine=tick` in
  /// benches). Attaching a trace writer or metrics registry forces the
  /// level-tick path for that engine — per-cycle probes need every cycle.
  void SetScheduling(Scheduling s) { scheduling_ = s; }
  Scheduling scheduling() const { return scheduling_; }

  /// Advances exactly one cycle through the level-tick body, so manually
  /// stepped harnesses observe every cycle; see FlushObservers() for the probe
  /// contract when driving the engine this way.
  void Step();

  /// Runs until every module is idle and every stream is drained, or until
  /// `max_cycles` additional cycles have elapsed (then returns Timeout).
  /// Returns the total elapsed cycle count on success.
  Result<Cycle> Run(uint64_t max_cycles);

  /// True iff all modules are idle and all streams drained.
  bool QuiescedNow() const;

  Cycle now() const { return now_; }
  double clock_hz() const { return clock_hz_; }

  /// Seconds of simulated time elapsed so far at the modeled clock.
  double ElapsedSeconds() const;

  /// One line per module: name, busy cycles, utilization % (one decimal),
  /// and the stall-attribution breakdown (starved / blocked / idle).
  std::string UtilizationReport() const;

  /// Closes open trace spans and exports metrics. Run() calls this on exit
  /// (including on timeout). Step() never calls it — a manually stepped
  /// engine that quiesces has NOT flushed, and its last busy spans and
  /// metric deltas are missing until someone flushes. Call this when a
  /// manual-stepping harness finishes; as a safety net the destructor also
  /// flushes (idempotent: spans already closed and delta cursors already
  /// advanced make a second flush a no-op), which requires the registered
  /// modules, streams, and attached observers to outlive the engine.
  void FlushObservers();

 private:
  struct TraceState {
    obs::TraceWriter* writer = nullptr;
    int pid = 0;
    TraceOptions options;
    // Per-module span tracking; grown lazily so late AddModule calls work.
    std::vector<int> tids;
    std::vector<uint64_t> prev_busy;
    std::vector<uint64_t> span_start;
    std::vector<bool> span_open;
    // Per-stream counter dedup: last emitted depth (-1 = never emitted).
    std::vector<double> last_depth;
  };

  struct MetricsState {
    obs::MetricsRegistry* registry = nullptr;
    uint32_t sample_period = 16;
    // Deltas since last export, so repeated Run() calls never double-count.
    // Counter handles are resolved by name once (EnsureProbeSlots) and
    // reused by every subsequent export.
    struct ModuleCursor {
      uint64_t busy = 0, starved = 0, blocked = 0, idle = 0;
      obs::Counter* busy_c = nullptr;
      obs::Counter* starved_c = nullptr;
      obs::Counter* blocked_c = nullptr;
      obs::Counter* idle_c = nullptr;
    };
    struct StreamCursor {
      uint64_t pushed = 0, popped = 0;
      obs::Counter* pushed_c = nullptr;
      obs::Counter* popped_c = nullptr;
    };
    std::vector<ModuleCursor> module_cursor;
    std::vector<StreamCursor> stream_cursor;
    std::vector<obs::Histogram*> depth_hist;  // parallel to streams_
    obs::Counter* cycles_c = nullptr;
    uint64_t cycles_cursor = 0;
  };

  friend class Module;  // Module::WakeUp forwards to WakeModule.

  void SetupObservability();
  void EnsureProbeSlots();
  void ProbeStep();
  void ExportMetrics();
  void RebuildSchedule();
  /// One level-tick cycle: every module ticks in registration order, then
  /// the dirty streams commit, under the tick-phase metrics-lookup guard.
  void TickAndCommit();

  // --- Event-driven core (Scheduling::kEventDriven) -----------------------

  /// The event-mode Run() loop: builds each cycle's armed-module run list
  /// from the calendar heap, the previous cycle's next-cycle arms, and the
  /// always-active set; dispatches it; and jumps over cycles with no armed
  /// work.
  Result<Cycle> RunEventDriven(uint64_t max_cycles);
  /// (Re)allocates the per-module activation arrays and the per-stream
  /// wake-edge plumbing; arms every event-certified module at now_.
  void RebuildEventState();
  /// Brings every module's skipped-cycle attribution up to now_ and drops
  /// the event state. Called before any level-tick stepping (Step, a level-tick
  /// Run, schedule rebuild) so bucket totals are always settled whenever
  /// event bookkeeping is not live.
  void InvalidateEventState();
  /// Lazily settles module `i`'s attribution through cycle `to` (exclusive).
  void SettleTo(size_t i, Cycle to);
  /// O(1)-amortized quiescence probe: re-tests the cached blocking
  /// module/stream before falling back to the full scan.
  bool EventQuiesced();
  /// Pops the run list for cycle `c` into run_now_ (sorted, deduped).
  void BuildRunList(Cycle c);
  /// Drops stale calendar heads; returns the earliest live entry's cycle, or
  /// kNoEventCycle when the calendar is empty.
  Cycle CalendarHead();
  /// Arms every event-certified module at now_ and drops the calendar:
  /// the event loop's entry seeding, also used to re-enter bookkeeping
  /// after a saturated phase (see RunEventDriven).
  void SeedAllArmed();
  /// Ticks the armed modules of cycle `c` in registration order, commits
  /// dirty streams, and arms stream edges.
  void DispatchCycle(Cycle c);
  /// Post-tick re-arm for a certified module: bound-input residual first
  /// (no virtual call), then the NextEventCycle hint.
  void ReArmModule(size_t i, Cycle c);
  /// Arms module `i` for the cycle after the one being dispatched.
  void ArmNext(size_t i);
  /// Event-mode wake entry point (Module::WakeUp): arms the target while
  /// preserving the reference loop's registration-order visibility — a
  /// target whose index precedes the in-flight tick is armed for the next
  /// cycle (the reference loop ticked it before the mutation), a later one
  /// for this cycle.
  void WakeModule(size_t i);

  double clock_hz_;
  Cycle now_ = 0;
  std::vector<Module*> modules_;
  std::vector<StreamBase*> streams_;
  bool observability_checked_ = false;
  bool flushed_ = true;  // no cycles stepped since the last observer flush
  std::unique_ptr<TraceState> trace_;
  std::unique_ptr<MetricsState> metrics_;
  Scheduling scheduling_ = Scheduling::kEventDriven;
  // Set when the module/stream set changes; the next Step()/Run() re-wires
  // the commit queue and the stream endpoint indices.
  bool schedule_dirty_ = true;

  // --- Event-driven scheduler state (valid iff event_state_valid_) -------
  //
  // next_run_[i] is the single source of truth for module i's arming: the
  // cycle it will next tick at, or kNoEventCycle when unarmed. The calendar
  // heap_ is a lazy-delete min-heap of (cycle, index) pairs — an entry is
  // live iff it still matches next_run_; re-arms simply push a second entry
  // and the stale one is dropped (or deduped) at pop time. Arms for the
  // cycle right after the one being dispatched accumulate in run_next_
  // (sortedness tracked while building, sorted only when a wake broke the
  // order), which becomes the seed of the next cycle's run list. Modules
  // not event_safe() live in always_active_ and join every run list —
  // exact reference behavior for them. accounted_[i] is the cycle (exclusive)
  // through which module i's stall attribution is settled; gaps settle
  // lazily at the next tick, wake, or Run() exit.
  bool event_state_valid_ = false;
  bool event_dispatching_ = false;
  // True while the event loop runs its saturated-phase inner loop (every
  // module armed and busy): ticks run through the zero-overhead level-tick body
  // and wakes are dropped — everyone ticks every cycle anyway, and the
  // re-seed on phase exit re-arms the world.
  bool event_saturated_ = false;
  // Consecutive event cycles whose run list was the full module set; the
  // saturated fast path engages past a small threshold (hysteresis, so a
  // workload that oscillates near density does not thrash the O(modules)
  // phase-exit re-seed).
  uint32_t dense_streak_ = 0;
  size_t current_ticking_index_ = 0;
  std::vector<Cycle> next_run_;
  std::vector<Cycle> accounted_;
  std::vector<std::pair<Cycle, size_t>> heap_;
  std::vector<size_t> run_now_;
  std::vector<size_t> run_next_;
  bool run_next_sorted_ = true;
  std::vector<size_t> heap_pops_;
  std::vector<size_t> always_active_;
  // Bound input streams per module (consumer side), for the residual-item
  // re-arm check that avoids the virtual hint call on flow-through paths.
  std::vector<std::vector<const StreamBase*>> bound_inputs_;
  // Cached quiescence blocker (module / stream index; ~0 = none cached).
  size_t qc_module_ = ~size_t{0};
  size_t qc_stream_ = ~size_t{0};
  // Dirty-stream list: streams push themselves here on their first staged
  // write of a cycle (StreamBase::NoteStaged) and the commit phase drains
  // it, so idle streams cost nothing. RebuildSchedule() shares this vector
  // with every registered stream. Shared ownership (instead of a raw
  // back-pointer) makes stream/engine destruction order irrelevant —
  // harnesses destroy them in both orders.
  std::shared_ptr<std::vector<StreamBase*>> commit_queue_ =
      std::make_shared<std::vector<StreamBase*>>();
  // Read-edge wake list: streams that went from full to non-full this cycle
  // (StreamBase::NoteDrained) so the event scheduler can re-arm a blocked
  // producer. Attached to streams only while event bookkeeping is live.
  std::shared_ptr<std::vector<StreamBase*>> drain_queue_ =
      std::make_shared<std::vector<StreamBase*>>();
};

}  // namespace fpgadp::sim

#endif  // FPGADP_SIM_ENGINE_H_
