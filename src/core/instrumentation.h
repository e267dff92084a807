// Shared instrumentation wiring for every measurement path.
//
// InstrumentationScope is the set of recorders a measured section feeds,
// and ScopedInstrumentation attaches them to the engine around the section:
// destruction (or an explicit release()) detaches them and captures the
// engine-counter delta into the registry.  Every subsystem — latency,
// bandwidth, replay, and the concurrent exec engine — takes the same scope;
// core/observers.h builds one per measured point.
#pragma once

#include "machine/system.h"

namespace hsw::obs {
class ResourceStatsRecorder;
}  // namespace hsw::obs

namespace hsw {

// A (possibly empty) set of observers for a measured section.  All fields
// are optional and non-owning; a default-constructed scope is "run dark"
// and costs the engine one null-pointer test per instrumentation site.
struct InstrumentationScope {
  // Receives a span tree / component attribution per access.
  trace::Tracer* tracer = nullptr;
  // Receives uncore-PMU-style events, and the engine-counter delta of the
  // section when the scope is released.
  metrics::MetricsRegistry* metrics = nullptr;
  // Receives per-line state transitions, residency time, and accessor
  // history (the coherence flight recorder, obs/line_stats.h).
  obs::LineStatsRecorder* linestats = nullptr;
  // Receives per-resource queueing telemetry — busy residency, waits, and
  // queue depths at every shared FIFO server (obs/resource_stats.h).  Fed
  // directly by the event-driven exec engine, which owns the FIFO servers;
  // it has no System attach point, so ScopedInstrumentation leaves it
  // alone.
  obs::ResourceStatsRecorder* resstats = nullptr;
};

// RAII attach/detach around a measured section:
//
//   CounterSet::Snapshot delta;
//   {
//     ScopedInstrumentation attached(system, scope);
//     ... issue accesses ...
//     delta = attached.release();   // or let the destructor detach
//   }
//
// release() detaches the tracer and registry, captures the engine-counter
// delta over the section into the registry (if one is attached), and
// returns that delta; it is idempotent, and the destructor calls it.
class ScopedInstrumentation {
 public:
  ScopedInstrumentation(System& system, const InstrumentationScope& scope)
      : system_(system),
        scope_(scope),
        before_(system.counters().snapshot()) {
    system_.set_tracer(scope_.tracer);
    if (scope_.metrics != nullptr) system_.attach_metrics(*scope_.metrics);
    if (scope_.linestats != nullptr) {
      system_.attach_linestats(*scope_.linestats);
    }
  }
  ~ScopedInstrumentation() { release(); }

  ScopedInstrumentation(const ScopedInstrumentation&) = delete;
  ScopedInstrumentation& operator=(const ScopedInstrumentation&) = delete;

  CounterSet::Snapshot release() {
    if (!released_) {
      released_ = true;
      system_.set_tracer(nullptr);
      if (scope_.metrics != nullptr) system_.detach_metrics();
      if (scope_.linestats != nullptr) system_.detach_linestats();
      delta_ = system_.counters().diff(before_);
      if (scope_.metrics != nullptr) {
        scope_.metrics->capture_engine_counters(delta_);
      }
    }
    return delta_;
  }

 private:
  System& system_;
  InstrumentationScope scope_;
  CounterSet::Snapshot before_;
  CounterSet::Snapshot delta_{};
  bool released_ = false;
};

}  // namespace hsw
