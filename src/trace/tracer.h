// Per-stream transaction tracer: the engine-facing span builder.
//
// One Tracer instance belongs to one System (the engine is single-threaded
// per System; parallel sweeps give every sweep point its own System and its
// own Tracer, identified by a deterministically assigned stream id).  The
// engine emits spans through the builder methods while it composes an
// access's latency; all methods are no-ops unless an access is open, so
// placement helpers (writebacks, evictions) can run with a tracer attached
// without producing orphan spans.
//
// Finished records land in a bounded per-tracer buffer (oldest records are
// dropped first once `capacity` is reached — deterministically, since each
// stream's record sequence does not depend on scheduling).  A TraceHub
// (sink.h) later absorbs many tracers and merges their buffers by
// (stream, seq) into a stable order.
//
// Modes:
//   kAttribution — per-access component breakdown only; the span tree is
//                  built in scratch storage and recycled (no retention).
//   kFull        — breakdown plus retained TraceRecords for export.
//
// When no tracer is attached the engine's hot path stays a null-pointer
// check per flow (guarded by the simbench tracing-overhead benchmarks).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "trace/span.h"

namespace hsw::trace {

class Tracer {
 public:
  enum class Mode : std::uint8_t { kAttribution, kFull };

  explicit Tracer(Mode mode = Mode::kFull, std::uint32_t stream = 0,
                  std::size_t capacity = kDefaultCapacity)
      : mode_(mode), stream_(stream), capacity_(capacity) {}

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  // --- engine-facing emission API -------------------------------------------
  void begin_access(char op, int core, std::uint64_t line);
  void leaf(Component comp, const char* name, double cost);
  void open_group(Component comp, const char* name);
  void close_group(double total);
  void open_parallel(const char* name);
  void open_leg(const char* name);
  void close_leg();

  // How a parallel race resolved: every leg gates the join (snoop responses
  // collected at the HA), only the most recently closed leg gates it (a
  // cache-to-cache forward won), or none do (an off-critical-path aside).
  enum class Join : std::uint8_t { kAll, kWinner, kNone };
  void close_parallel(Join join);

  // Finishes the open access.  Returns the attribution of this access; the
  // pointer stays valid until the next begin_access on this tracer.
  const AccessAttribution* end_access(double ns, const char* source);

  // --- results ---------------------------------------------------------------
  // kFull only; nullptr if nothing recorded yet.
  [[nodiscard]] const TraceRecord* last_record() const {
    return records_.empty() ? nullptr : &records_.back();
  }
  [[nodiscard]] const std::deque<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint32_t stream() const { return stream_; }

 private:
  // Returns the span list currently receiving emissions.
  std::vector<Span>& sink_spans();

  Mode mode_;
  std::uint32_t stream_;
  std::size_t capacity_;
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;

  bool recording_ = false;
  TraceRecord current_;
  // Stack of open containers (group / parallel / leg) into current_.spans.
  // Indices into a flat ownership chain would dangle across vector growth,
  // so open containers are kept as detached nodes and spliced on close.
  std::vector<Span> open_;

  AccessAttribution attribution_;
  std::deque<TraceRecord> records_;
};

}  // namespace hsw::trace
