#ifndef STRATLEARN_OBS_TRACE_SINK_H_
#define STRATLEARN_OBS_TRACE_SINK_H_

#include <mutex>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace stratlearn::obs {

/// Receiver interface for structured runtime events: one handler per
/// event type in STRATLEARN_OBS_EVENTS (OnQueryStart(const
/// QueryStartEvent&), OnQueryEnd, OnArcAttempt, OnClimbMove,
/// OnSequentialTest, OnQuotaProgress, OnPaloStop, OnRetry, OnBreaker,
/// OnDegraded, OnDrift, OnAlert, OnDecisionCertificate, OnRecovery).
/// Every handler defaults to a no-op so sinks implement only what they
/// care about. Emitters must guard emission behind a single
/// nullable-pointer branch (see Observer), so an absent sink costs one
/// predictable branch.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

#define STRATLEARN_OBS_HANDLER(Name) \
  virtual void On##Name(const Name##Event&) {}
  STRATLEARN_OBS_EVENTS(STRATLEARN_OBS_HANDLER)
#undef STRATLEARN_OBS_HANDLER

  /// Push buffered output to the underlying medium. May be called any
  /// number of times mid-run; must not finalise the output.
  virtual void Flush() {}

  /// Finalise the output (e.g. write a format's closing delimiter) and
  /// flush. Idempotent; every sink's destructor calls its own Close so
  /// traces stay well-formed even when the owner exits early on an
  /// error path. Events delivered after Close are dropped.
  virtual void Close() { Flush(); }
};

/// Deliver(sink, e) calls the handler of e's type, so code written once
/// for every event type can hand an event on.
#define STRATLEARN_OBS_DELIVER(Name)                           \
  inline void Deliver(TraceSink& sink, const Name##Event& e) { \
    sink.On##Name(e);                                          \
  }
STRATLEARN_OBS_EVENTS(STRATLEARN_OBS_DELIVER)
#undef STRATLEARN_OBS_DELIVER

/// Base for sinks that treat every event type alike: each handler calls
/// `Derived::Handle(e)`, a template (or overload set) over the event
/// types. `Base` is TraceSink or a subclass of it.
template <typename Derived, typename Base = TraceSink>
class GenericSink : public Base {
 public:
  using Base::Base;

#define STRATLEARN_OBS_GENERIC(Name)             \
  void On##Name(const Name##Event& e) override { \
    static_cast<Derived*>(this)->Handle(e);      \
  }
  STRATLEARN_OBS_EVENTS(STRATLEARN_OBS_GENERIC)
#undef STRATLEARN_OBS_GENERIC
};

/// Explicit do-nothing sink, for call sites that want a non-null sink.
class NullSink final : public TraceSink {};

/// Fans every event out to a list of borrowed sinks, in order. Lets one
/// Observer feed a file sink and an in-process aggregator (e.g. the
/// StrategyProfiler) at the same time. Null entries are skipped.
class TeeSink final : public GenericSink<TeeSink> {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}

  template <typename Event>
  void Handle(const Event& e) {
    for (TraceSink* s : sinks_) {
      if (s != nullptr) Deliver(*s, e);
    }
  }
  void Flush() override {
    for (TraceSink* s : sinks_) {
      if (s != nullptr) s->Flush();
    }
  }
  void Close() override {
    for (TraceSink* s : sinks_) {
      if (s != nullptr) s->Close();
    }
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Serialises a borrowed single-threaded sink behind one mutex so any
/// number of threads can emit events into it — the concurrency adapter
/// for JsonlSink / ChromeTraceSink / StrategyProfiler, whose own event
/// handlers assume exclusive access (buffered stream writes, aggregation
/// maps). Event *ordering* across threads is whatever the mutex hands
/// out; each event is delivered whole, so a JSONL file never interleaves
/// two lines. Wrap the innermost sink (or a TeeSink fan-out) once; the
/// per-event cost is one uncontended lock, which trace emission — already
/// a formatting + I/O path — amortises trivially.
class LockingSink final : public GenericSink<LockingSink> {
 public:
  explicit LockingSink(TraceSink* inner) : inner_(inner) {}

  template <typename Event>
  void Handle(const Event& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    Deliver(*inner_, e);
  }
  void Flush() override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->Flush();
  }
  void Close() override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->Close();
  }

 private:
  std::mutex mutex_;
  TraceSink* inner_;
};

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_TRACE_SINK_H_
