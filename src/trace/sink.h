// Trace collection and export.
//
// TraceHub is the generic StreamHub (util/stream_hub.h) over Tracers: one
// per sweep point / System, each with its own deterministically assigned
// stream id.  Worker threads may absorb in any order; merge_streams()
// concatenates the tracers' bounded record buffers in stream order, so the
// merged records are sorted by (stream, seq) and the exported bytes are
// identical for any `--jobs` value (asserted by the trace determinism
// CTests).
//
// Exporters:
//   * write_chrome_json — Chrome-trace/Perfetto JSON ("traceEvents").  Open
//     the file at https://ui.perfetto.dev; one process per stream, the main
//     protocol path on track 0 and each racing leg on its own track.  The
//     viewer's microsecond is one simulated nanosecond.
//   * write_csv — one row per span for scripted analysis.
//   * write_trace — dispatches on the file extension (.csv -> CSV, else
//     JSON).
// All return false (with a message on stderr) if the file cannot be
// written.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/tracer.h"
#include "util/stream_hub.h"

namespace hsw::trace {

struct MergedTrace {
  std::vector<TraceRecord> records;  // sorted by (stream, seq)
  std::uint64_t dropped = 0;         // records the per-stream caps evicted
};

[[nodiscard]] MergedTrace merge_streams(
    std::span<const Tracer* const> in_stream_order);

using TraceHub = StreamHub<Tracer>;

bool write_chrome_json(const std::string& path,
                       const std::vector<TraceRecord>& records);
bool write_csv(const std::string& path,
               const std::vector<TraceRecord>& records);
bool write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records);

}  // namespace hsw::trace
