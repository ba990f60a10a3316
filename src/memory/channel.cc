#include "src/memory/channel.h"

#include <algorithm>
#include <span>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace fpgadp::mem {

MemoryChannel::MemoryChannel(std::string name, sim::Stream<MemRequest>* req,
                             sim::Stream<MemResponse>* resp,
                             const Config& config)
    : sim::Module(std::move(name)), req_(req), resp_(resp), config_(config) {
  FPGADP_CHECK(req_ != nullptr && resp_ != nullptr);
  FPGADP_CHECK(config_.bytes_per_sec > 0 && config_.clock_hz > 0);
  latency_cycles_ = NanosToCycles(config_.latency_ns, config_.clock_hz);
  bytes_per_cycle_ = config_.bytes_per_sec / config_.clock_hz;
  req_->BindConsumer(this);
  resp_->BindProducer(this);
  SetEventSafe();
}

void MemoryChannel::AttributeSkip(sim::Cycle from, sim::Cycle to) {
  const uint64_t n = to - from;
  if (pending_.empty()) return;  // quiet channel: backfilled as idle
  // Closed form of the per-tick accounting: the bus streams until
  // bus_free_, the remainder of the gap is latency shadow, and every
  // cycle with requests in flight counts busy.
  const uint64_t bus =
      bus_free_ > from ? std::min<uint64_t>(n, bus_free_ - from) : 0;
  bus_busy_cycles_ += bus;
  latency_wait_cycles_ += n - bus;
  MarkBusyN(n);
}

void MemoryChannel::Tick(sim::Cycle cycle) {
  last_tick_ = cycle;
  // Attribute this cycle of channel activity: the bus is streaming a burst,
  // or in-flight requests are waiting out the fixed access latency.
  if (cycle < bus_free_) {
    ++bus_busy_cycles_;
  } else if (!pending_.empty()) {
    ++latency_wait_cycles_;
  }
  bool progressed = false;
  // Deliver completions whose time has come, burst-written per contiguous
  // free run of the response FIFO.
  while (!pending_.empty() && pending_.front().done <= cycle) {
    std::span<MemResponse> dst = resp_->WritableSpan();
    if (dst.empty()) break;  // response FIFO full
    size_t n = 0;
    while (n < dst.size() && !pending_.empty() &&
           pending_.front().done <= cycle) {
      dst[n++] = pending_.front().resp;
      pending_.pop_front();
    }
    resp_->CommitWrite(n);
    completed_ += n;
    progressed = progressed || n > 0;
  }
  // Accept new requests while the controller queue has room, burst-read
  // from the request FIFO (the per-request bus math is unchanged).
  while (pending_.size() < config_.max_outstanding) {
    std::span<const MemRequest> src = req_->ReadableSpan();
    if (src.empty()) break;  // no requests waiting
    const size_t n =
        std::min<size_t>(src.size(), config_.max_outstanding - pending_.size());
    for (size_t i = 0; i < n; ++i) {
      const MemRequest& r = src[i];
      const uint64_t eff_bytes =
          std::max<uint64_t>(r.bytes, config_.access_granularity);
      const auto transfer_cycles = static_cast<uint64_t>(
          (static_cast<double>(eff_bytes) + bytes_per_cycle_ - 1) /
          bytes_per_cycle_);
      // Row access latency overlaps with other transfers (the controller
      // pipelines), but the data bus itself is serialized.
      const sim::Cycle start = std::max<sim::Cycle>(cycle + 1, bus_free_);
      const sim::Cycle done = start + latency_cycles_ + transfer_cycles;
      bus_free_ = start + transfer_cycles;
      bytes_transferred_ += eff_bytes;
      pending_.push_back(
          {done, MemResponse{r.id, r.addr, r.bytes, r.is_write}});
    }
    req_->ConsumeRead(n);
    progressed = true;
  }
  // Completion order must stay monotone for the front-pop above; the
  // fixed-latency + serialized-bus model guarantees it, assert in debug.
  if (progressed) {
    MarkBusy();
  } else if (!pending_.empty() && pending_.front().done <= cycle) {
    MarkStall(sim::StallKind::kOutputBlocked);  // response FIFO is full
  } else if (!pending_.empty()) {
    MarkBusy();  // serving in-flight requests (bus or latency shadow)
  } else {
    MarkStall(sim::StallKind::kIdle);  // no requests queued or in flight
  }
}

void MemoryChannel::SampleTraceCounters(obs::TraceCounterSink& sink) {
  // Emit only on change so a 32-pseudo-channel HBM stack stays tractable.
  const auto queue = static_cast<double>(pending_.size());
  if (queue != last_queue_emitted_) {
    sink.Counter(name() + ".queue", queue);
    last_queue_emitted_ = queue;
  }
  const double bus_busy = bus_free_ > last_tick_ ? 1 : 0;
  if (bus_busy != last_bus_emitted_) {
    sink.Counter(name() + ".bus_busy", bus_busy);
    last_bus_emitted_ = bus_busy;
  }
}

void MemoryChannel::ExportCustomMetrics(obs::MetricsRegistry& registry) const {
  // Gauges (idempotent Set) because this hook runs once per Run() and the
  // underlying counters are cumulative.
  const std::string base = "mem." + name();
  registry.GetGauge(base + ".bus_busy_cycles")
      ->Set(static_cast<double>(bus_busy_cycles_));
  registry.GetGauge(base + ".latency_wait_cycles")
      ->Set(static_cast<double>(latency_wait_cycles_));
  registry.GetGauge(base + ".bytes_transferred")
      ->Set(static_cast<double>(bytes_transferred_));
  registry.GetGauge(base + ".completed")->Set(static_cast<double>(completed_));
}

}  // namespace fpgadp::mem
