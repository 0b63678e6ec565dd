// TraceSource: where an experiment's per-step routing assignments come
// from. Systems only ever consume a stream of per-layer Assignments, so a
// live TraceGenerator and a replayed RoutingTrace are interchangeable —
// the replay contract (DESIGN.md Section 7) is that a recorded run and its
// replay feed byte-identical steps to the system under test.

#ifndef FLEXMOE_GATE_TRACE_SOURCE_H_
#define FLEXMOE_GATE_TRACE_SOURCE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "moe/moe_layer.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Abstract stream of per-step, per-layer routing assignments.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The next step's per-layer assignments. Requires StepsRemaining() != 0.
  virtual std::vector<Assignment> NextStep() = 0;

  /// Steps this source can still produce; < 0 means unbounded.
  virtual int64_t StepsRemaining() const { return -1; }
};

/// \brief Live source: streams a TraceGenerator's steps, generated one
/// step ahead on a worker thread.
///
/// The generated stream depends only on the generator's options, never on
/// the system that consumes it, so the worker builds step t+1 while the
/// caller simulates step t. The first NextStep starts the worker (a source
/// that is never read starts no thread); from then on the worker alone
/// touches the generator. Steps pass through a one-slot buffer: the worker
/// builds a step only once the slot is empty, so at most one step is in
/// flight. The destructor stops and joins the worker, discarding at most
/// that one unconsumed step. NextStep must be called from one thread at a
/// time; the stream it returns is bit-identical to calling
/// TraceGenerator::Step in a loop (DESIGN.md Section 7.2).
class GeneratorTraceSource : public TraceSource {
 public:
  explicit GeneratorTraceSource(TraceGenerator gen) : gen_(std::move(gen)) {}
  ~GeneratorTraceSource() override;

  GeneratorTraceSource(const GeneratorTraceSource&) = delete;
  GeneratorTraceSource& operator=(const GeneratorTraceSource&) = delete;

  std::vector<Assignment> NextStep() override;

 private:
  /// Worker loop: waits for an empty slot, builds the next step, fills
  /// the slot; returns once stop_ is set.
  void Produce();

  TraceGenerator gen_;  ///< Owned by the worker once it has started.
  std::mutex mu_;       ///< Guards slot_, slot_full_ and stop_.
  std::condition_variable cv_;  ///< Signals slot_full_ and stop_ changes.
  std::vector<Assignment> slot_;
  bool slot_full_ = false;
  bool stop_ = false;
  std::thread worker_;  ///< Declared last: it uses every member above.
};

/// \brief Replay source: streams the steps of a recorded RoutingTrace.
class ReplayTraceSource : public TraceSource {
 public:
  explicit ReplayTraceSource(RoutingTrace trace) : trace_(std::move(trace)) {}

  std::vector<Assignment> NextStep() override;
  int64_t StepsRemaining() const override {
    return trace_.num_steps() - cursor_;
  }

  const RoutingTrace& trace() const { return trace_; }

 private:
  RoutingTrace trace_;
  int64_t cursor_ = 0;
};

/// \brief Decorator that appends every step it hands out to `sink` (not
/// owned; must outlive the source). Used by the harness's record mode.
class RecordingTraceSource : public TraceSource {
 public:
  RecordingTraceSource(std::unique_ptr<TraceSource> inner, RoutingTrace* sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::vector<Assignment> NextStep() override;
  int64_t StepsRemaining() const override {
    return inner_->StepsRemaining();
  }

 private:
  std::unique_ptr<TraceSource> inner_;
  RoutingTrace* sink_;
};

/// \brief FNV-1a hash of one step's assignments, chained from `h`. Seed
/// the chain with kTraceHashSeed; identical streams hash identically, so
/// live-vs-replay and record-vs-golden comparisons are one integer.
constexpr uint64_t kTraceHashSeed = 1469598103934665603ULL;
uint64_t HashStep(const std::vector<Assignment>& step, uint64_t h);

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_TRACE_SOURCE_H_
