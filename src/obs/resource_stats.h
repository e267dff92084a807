// Per-resource queueing telemetry for the event-driven exec engine.
//
// The tracer explains individual accesses, the metrics registry counts box
// events, and the line-stats recorder follows cache lines; this module
// watches the *shared FIFO servers* themselves — ring stops, iMC channels,
// QPI links, inter-ring bridges — and answers the queueing question behind
// every bandwidth figure in the paper: which box saturated first, and what
// did everyone else pay waiting for it.
//
// A ResourceStatsRecorder attaches through InstrumentationScope with the
// same detached-hot-path contract as its siblings: one null-pointer test
// per instrumentation site when off.  Both exec entry points
// (run_closed_loop and run_programs) feed it one on_service() call per
// (request, resource) visit, carrying the three timestamps the FIFO
// discipline already computes — arrival (the event clock when the request
// reached the box), service start (when the box freed up), and departure.
// From those it accumulates, per resource:
//
//   * busy residency in simulated ns (service intervals never overlap on a
//     FIFO server, so busy time is exactly the summed service time) and,
//     by subtraction from the observation window, idle residency;
//   * service counts and protocol bytes moved (64 B x path weight);
//   * waiting time: sum / max / log-bucketed histogram of (start - arrival);
//   * queue depth: the time-averaged number of requests present (waiting or
//     in service), its maximum, and an event-boundary time series decimated
//     deterministically to a bounded number of points.
//
// The mean depth is computed two independent ways — the incremental
// area-under-depth integral, and arrival rate x mean residence (Little's
// law, L = lambda W).  The two agree exactly for a drained run and within a
// boundary term otherwise; the unit tests assert it as an invariant, which
// pins the accounting against sign/window bugs.
//
// ResourceStatsHub is the generic StreamHub (util/stream_hub.h) over these
// recorders; merge_streams() below is its stream-order fold, so the
// "resources" report section is byte-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/stream_hub.h"

namespace hsw::obs {

// Retained points per resource in the event-boundary depth time series.
// When a run produces more depth-change events than this, every other
// retained point is dropped and the sampling stride doubles — the kept
// points depend only on event order, never on wall clock or scheduling.
inline constexpr std::size_t kDepthSeriesCap = 128;

// One (time, depth) point of the decimated queue-depth series.
struct DepthSample {
  double ns = 0.0;
  std::uint64_t depth = 0;
};

// Everything accumulated about one FIFO server.  The trailing members are
// live accounting state (open like LineRecord's open-episode fields);
// finalize() closes them at the end-of-run clock.
struct ResourceUsage {
  double busy_ns = 0.0;        // summed service time (never overlaps)
  std::uint64_t services = 0;  // requests serviced (== arrivals)
  double bytes = 0.0;          // protocol bytes moved (64 x path weight)
  double wait_ns = 0.0;        // summed (start - arrival)
  double wait_max_ns = 0.0;
  double residence_ns = 0.0;   // summed (done - arrival); lambda-W side
  LogHistogram wait_hist;      // log-bucketed waits, ns
  double depth_area = 0.0;     // integral of depth dt; L side of Little
  std::uint64_t depth_max = 0;
  std::vector<DepthSample> depth_series;

  // Open accounting state (closed by ResourceStatsRecorder::finalize).
  std::deque<double> pending;  // departure times of requests present, sorted
  double mark = 0.0;           // clock of the last depth-area update
  std::uint64_t series_events = 0;
  std::uint64_t series_stride = 1;

  [[nodiscard]] std::uint64_t depth() const { return pending.size(); }
  [[nodiscard]] double mean_service_ns() const {
    return services ? busy_ns / static_cast<double>(services) : 0.0;
  }
  [[nodiscard]] double mean_wait_ns() const {
    return services ? wait_ns / static_cast<double>(services) : 0.0;
  }
};

// Per-run recorder.  Single-threaded like the engine feeding it; `stream`
// orders recorders in the hub merge exactly like tracer streams (derived
// from configuration, never from scheduling).  One recorder accounts one
// run: its clock starts at 0 and finalize() closes the books — reusing a
// finalized recorder for a second run is refused (on_service becomes a
// no-op) because event time would restart behind the accounting marks.
class ResourceStatsRecorder {
 public:
  explicit ResourceStatsRecorder(std::uint32_t stream = 0) : stream_(stream) {}

  // Adopts the resource vocabulary (parallel name/capacity vectors indexed
  // like bw::Flow::Use::resource).  The engine calls this on first use; a
  // second bind with the same resource count is a no-op, a different count
  // resets the accounting (a recorder describes one machine shape).
  void bind(std::vector<std::string> names,
            std::vector<double> capacities_gbps);
  [[nodiscard]] bool bound() const { return !names_.empty(); }

  // One request visiting one FIFO server: it arrived (joined the queue) at
  // `arrival_ns`, occupied the server over [start_ns, done_ns), and moved
  // `bytes` protocol bytes.  Arrival times are nondecreasing per the event
  // queue; departures are nondecreasing per resource (FIFO).
  void on_service(std::size_t resource, double arrival_ns, double start_ns,
                  double done_ns, double bytes);

  // Closes the observation window at `now_ns` (or at the latest event seen,
  // whichever is later): drains completed departures, settles the depth
  // integral, and freezes the recorder.  Idempotent.
  void finalize(double now_ns);
  void finalize() { finalize(last_ns_); }

  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  // Observation window length (0 until finalize).
  [[nodiscard]] double elapsed_ns() const { return elapsed_ns_; }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] const std::vector<double>& capacities_gbps() const {
    return capacities_;
  }
  [[nodiscard]] const std::vector<ResourceUsage>& usage() const {
    return usage_;
  }

 private:
  // Settles the depth integral of `u` up to `now`, retiring any departures
  // that happened first (each one is a depth boundary of its own).
  void settle(ResourceUsage& u, double now);
  void record_point(ResourceUsage& u, double ns);

  std::uint32_t stream_ = 0;
  bool finalized_ = false;
  double last_ns_ = 0.0;
  double elapsed_ns_ = 0.0;
  std::vector<std::string> names_;
  std::vector<double> capacities_;
  std::vector<ResourceUsage> usage_;
};

// The stream-order fold of every absorbed recorder.  Scalar fields sum;
// wait histograms merge (deterministic bucket keys); depth_max takes the
// max.  The depth time series is kept only for single-stream merges — a
// concatenation across independent runs would interleave unrelated clocks.
struct MergedResourceStats {
  std::size_t streams = 0;
  double elapsed_ns = 0.0;  // summed observation windows
  std::vector<std::string> names;
  std::vector<double> capacities_gbps;
  std::vector<ResourceUsage> usage;

  // Busy fraction of the observation window (the quantity cross-checked
  // against the analytic max-min utilization in validate_bw_model).
  [[nodiscard]] double utilization(std::size_t r) const {
    return elapsed_ns > 0.0 && r < usage.size() ? usage[r].busy_ns / elapsed_ns
                                                : 0.0;
  }
  // Time-averaged queue depth from the area integral (L)...
  [[nodiscard]] double mean_depth(std::size_t r) const {
    return elapsed_ns > 0.0 && r < usage.size()
               ? usage[r].depth_area / elapsed_ns
               : 0.0;
  }
  // ...and from Little's law (lambda x W = residence / elapsed).
  [[nodiscard]] double littles_depth(std::size_t r) const {
    return elapsed_ns > 0.0 && r < usage.size()
               ? usage[r].residence_ns / elapsed_ns
               : 0.0;
  }
  [[nodiscard]] double arrivals_per_us(std::size_t r) const {
    return elapsed_ns > 0.0 && r < usage.size()
               ? static_cast<double>(usage[r].services) * 1e3 / elapsed_ns
               : 0.0;
  }
};

// Folds finalized recorders in stream-id order (the ResourceStatsHub
// merge).
[[nodiscard]] MergedResourceStats merge_streams(
    std::span<const ResourceStatsRecorder* const> in_stream_order);

using ResourceStatsHub = StreamHub<ResourceStatsRecorder>;

// Renders the `"resources": {...}` report section (two-space base indent,
// no trailing comma/newline): one item per resource in index order, fixed
// field order, %.6f floats — the same byte-determinism discipline as every
// report section.
[[nodiscard]] std::string render_resources_section(
    const MergedResourceStats& m);

}  // namespace hsw::obs
