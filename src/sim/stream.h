#ifndef FPGADP_SIM_STREAM_H_
#define FPGADP_SIM_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace fpgadp::sim {

class Module;

/// Base of every stream. Holds the complete ring-buffer bookkeeping — all of
/// it is independent of the item type, so Commit(), occupancy queries, and
/// traffic stats are NON-virtual: the engine's per-cycle commit loop and
/// quiesce scans never pay a vtable dispatch. Only the item storage lives in
/// the typed subclass.
class StreamBase {
 public:
  StreamBase(std::string name, size_t capacity)
      : capacity_(capacity), name_(std::move(name)) {
    FPGADP_CHECK(capacity_ > 0);
  }
  virtual ~StreamBase() {
    // Deregister from the commit queue (shared with the engine, so it is
    // alive regardless of which side is destroyed first).
    if (commit_queue_ != nullptr) {
      auto& q = *commit_queue_;
      q.erase(std::remove(q.begin(), q.end(), this), q.end());
    }
    if (drain_queue_ != nullptr) {
      auto& q = *drain_queue_;
      q.erase(std::remove(q.begin(), q.end(), this), q.end());
    }
  }

  StreamBase(const StreamBase&) = delete;
  StreamBase& operator=(const StreamBase&) = delete;

  /// Makes writes performed during the current cycle visible to readers.
  /// Called by the engine after all modules have ticked. O(1): folds the
  /// staged count into the committed count, never touches items.
  void Commit() {
    committed_count_ += staged_count_;
    staged_count_ = 0;
    has_staged_ = false;
  }

  /// True iff any item is buffered (committed or staged).
  bool InFlight() const { return committed_count_ + staged_count_ > 0; }

  /// Current occupancy, committed + staged items — what a depth probe on the
  /// physical FIFO would read. The engine samples this periodically when
  /// observability is enabled.
  size_t Depth() const { return committed_count_ + staged_count_; }

  /// FIFO capacity, for occupancy-relative reporting.
  size_t Capacity() const { return capacity_; }

  /// Lifetime item counts, exposed on the base so the observability layer
  /// can export them without knowing T.
  uint64_t TotalPushed() const { return total_pushed_; }
  uint64_t TotalPopped() const { return total_popped_; }

  /// Deepest occupancy (committed + staged — the same quantity backpressure
  /// is computed from) ever observed; a full FIFO reports its capacity.
  size_t high_watermark() const { return high_watermark_; }

  /// True iff writes are staged and the next Commit() will publish them.
  /// The engine re-seeds its dirty-stream list from this flag when it
  /// (re)wires a stream.
  bool has_staged() const { return has_staged_; }

  const std::string& name() const { return name_; }

  /// Endpoint declarations for the event scheduler's wake edges: the module
  /// whose Tick writes this stream (re-armed by a drain edge), and the one
  /// whose Tick reads it (re-armed by a commit edge). Called from module
  /// constructors. A stream may legitimately have an unbound side (driven
  /// from outside the engine, e.g. a test harness); a side bound twice to
  /// *different* modules marks the stream conflicted, which only demotes
  /// every module of the engine to always-active (an edge with an unknown
  /// set of endpoints cannot be attributed, so nobody may sleep on it).
  void BindProducer(Module* m) {
    if (producer_ != nullptr && producer_ != m) bind_conflict_ = true;
    producer_ = m;
  }
  void BindConsumer(Module* m) {
    if (consumer_ != nullptr && consumer_ != m) bind_conflict_ = true;
    consumer_ = m;
  }
  Module* producer() const { return producer_; }
  Module* consumer() const { return consumer_; }
  bool bind_conflict() const { return bind_conflict_; }

 protected:
  /// Called by the typed stream on the first staged item of a cycle: flags
  /// the stream dirty and, when an engine registered its commit queue,
  /// enqueues the stream so the commit phase touches only streams that
  /// actually moved data.
  void NoteStaged() {
    if (has_staged_) return;
    has_staged_ = true;
    if (commit_queue_ != nullptr) commit_queue_->push_back(this);
  }

  /// Called by the typed stream when a read is about to free slots in a FULL
  /// stream: the producer may be output-blocked, and the event-driven
  /// scheduler must re-arm it for the next cycle (a read edge is the mirror
  /// of the commit edge that wakes consumers). The drain queue is attached
  /// only while an engine's event bookkeeping is live; the null check keeps
  /// the per-item read cost at one predictable branch everywhere else.
  void NoteDrained() {
    if (drain_queue_ == nullptr || drained_pending_) return;
    drained_pending_ = true;
    drain_queue_->push_back(this);
  }

  // Ring cursors and counts, maintained by the typed subclass. The ring
  // layout is: head_pos_ points at the oldest committed item, followed by
  // committed_count_ committed items, then staged_count_ staged items
  // ending at tail_pos_ (one past the newest staged item).
  size_t capacity_;
  size_t head_pos_ = 0;
  size_t tail_pos_ = 0;
  size_t committed_count_ = 0;
  size_t staged_count_ = 0;
  uint64_t total_pushed_ = 0;
  uint64_t total_popped_ = 0;
  size_t high_watermark_ = 0;

 private:
  friend class Engine;

  std::string name_;
  Module* producer_ = nullptr;
  Module* consumer_ = nullptr;
  bool bind_conflict_ = false;
  bool has_staged_ = false;
  /// Dirty-stream list shared with the registering engine (see
  /// Engine::AddStream). Shared ownership makes stream/engine destruction
  /// order-independent: a stream staged after its engine died pushes into a
  /// vector nobody drains (bounded at one entry by has_staged_), and the
  /// destructor above removes the stream from a queue its engine still
  /// holds.
  std::shared_ptr<std::vector<StreamBase*>> commit_queue_;
  /// Was-full read notifications for the event-driven scheduler (see
  /// NoteDrained). Same ownership story as the commit queue.
  std::shared_ptr<std::vector<StreamBase*>> drain_queue_;
  bool drained_pending_ = false;
  /// Engine indices of the bound endpoints, cached by
  /// Engine::RebuildSchedule so stream-edge wakeups are O(1) array arms
  /// instead of pointer-to-index lookups. kNoEndpoint when unbound,
  /// conflicted, or the endpoint module is registered with another engine.
  static constexpr size_t kNoEndpoint = ~size_t{0};
  size_t producer_index_ = kNoEndpoint;
  size_t consumer_index_ = kNoEndpoint;
};

/// Bounded FIFO channel between two modules — the simulator analog of
/// `hls::stream<T>` with a `#pragma HLS stream depth=N`. Writes performed in
/// cycle c become readable in cycle c+1 (latch semantics), which makes the
/// simulation independent of module tick order and models the one-cycle
/// register between pipeline stages.
///
/// Capacity counts committed + staged items, so a full FIFO exerts
/// backpressure on the producer within the same cycle it fills up.
///
/// Storage is a fixed-capacity ring buffer (see StreamBase for the cursor
/// layout). Commit() publishes the staged run in O(1); items are written
/// exactly once and never shuffled between containers.
///
/// Two data-plane APIs coexist:
///  * per-item — CanWrite()/Write(), CanRead()/Read()/Peek() — one checked
///    call per item, convenient for control-ish modules;
///  * span-based burst — WritableSpan()/CommitWrite(n) and
///    ReadableSpan()/ConsumeRead(n) — expose the contiguous run up to the
///    ring wrap point, so a wide-lane stage moves a whole burst with one
///    bounds check and one memcpy-shaped loop per cycle. A span never
///    includes staged items (readers) or overflows capacity (writers), so
///    the latch semantics above hold for bursts exactly as for items: data
///    staged this cycle is not readable until after Commit(), regardless of
///    which API staged it. Because a span ends at the wrap point, movers
///    loop "span, consume, span, consume" until the span is empty or their
///    per-cycle budget is spent (at most two iterations cover the ring).
///    An empty WritableSpan is exactly the !CanWrite() condition, and an
///    empty ReadableSpan exactly !CanRead() — the wrap clip never yields an
///    empty span while slots/items remain.
template <typename T>
class Stream : public StreamBase {
 public:
  Stream(std::string name, size_t capacity)
      : StreamBase(std::move(name), capacity), buf_(capacity) {}

  /// True iff `n` Write()s this cycle would not overflow the FIFO.
  bool CanWrite(size_t n = 1) const {
    return committed_count_ + staged_count_ + n <= capacity_;
  }

  /// Enqueues `v`; caller must have checked CanWrite().
  void Write(T v) {
    FPGADP_CHECK(CanWrite());
    buf_[tail_pos_] = std::move(v);
    if (++tail_pos_ == capacity_) tail_pos_ = 0;
    ++staged_count_;
    ++total_pushed_;
    high_watermark_ =
        std::max(high_watermark_, committed_count_ + staged_count_);
    NoteStaged();
  }

  /// True iff `n` items are available to Read() this cycle.
  bool CanRead(size_t n = 1) const { return committed_count_ >= n; }

  /// Dequeues the oldest committed item; caller must have checked CanRead().
  T Read() {
    FPGADP_CHECK(CanRead());
    if (committed_count_ + staged_count_ == capacity_) NoteDrained();
    T v = std::move(buf_[head_pos_]);
    if (++head_pos_ == capacity_) head_pos_ = 0;
    --committed_count_;
    ++total_popped_;
    return v;
  }

  /// The oldest committed item without consuming it.
  const T& Peek() const {
    FPGADP_CHECK(CanRead());
    return buf_[head_pos_];
  }

  /// Burst write: the contiguous run of free slots starting at the staging
  /// cursor, clipped at the ring wrap. Fill a prefix, then CommitWrite(n).
  /// Empty iff the FIFO is full; may be shorter than the free space when
  /// the run wraps (call again after CommitWrite for the remainder).
  std::span<T> WritableSpan() {
    const size_t free_slots = capacity_ - committed_count_ - staged_count_;
    return {buf_.data() + tail_pos_,
            std::min(free_slots, capacity_ - tail_pos_)};
  }

  /// Stages the first `n` items of the current WritableSpan(). Items become
  /// readable only after Commit(), exactly like Write().
  void CommitWrite(size_t n) {
    FPGADP_CHECK(n <= capacity_ - committed_count_ - staged_count_);
    FPGADP_CHECK(n <= capacity_ - tail_pos_);
    tail_pos_ += n;
    if (tail_pos_ == capacity_) tail_pos_ = 0;
    staged_count_ += n;
    total_pushed_ += n;
    high_watermark_ =
        std::max(high_watermark_, committed_count_ + staged_count_);
    if (n > 0) NoteStaged();
  }

  /// Burst read: the contiguous run of committed items starting at the
  /// oldest, clipped at the ring wrap. Staged items are never included.
  /// Consume a prefix with ConsumeRead(n).
  std::span<const T> ReadableSpan() const {
    return {buf_.data() + head_pos_,
            std::min(committed_count_, capacity_ - head_pos_)};
  }

  /// Retires the first `n` items of the current ReadableSpan().
  void ConsumeRead(size_t n) {
    FPGADP_CHECK(n <= committed_count_);
    FPGADP_CHECK(n <= capacity_ - head_pos_);
    if (n > 0 && committed_count_ + staged_count_ == capacity_) NoteDrained();
    head_pos_ += n;
    if (head_pos_ == capacity_) head_pos_ = 0;
    committed_count_ -= n;
    total_popped_ += n;
  }

  /// Number of committed (readable) items.
  size_t Size() const { return committed_count_; }
  size_t capacity() const { return capacity_; }

  /// Lifetime statistics, for occupancy analysis.
  uint64_t total_pushed() const { return total_pushed_; }
  uint64_t total_popped() const { return total_popped_; }

 private:
  std::vector<T> buf_;  // fixed ring storage, allocated once
};

}  // namespace fpgadp::sim

#endif  // FPGADP_SIM_STREAM_H_
