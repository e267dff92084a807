// The unified experiment vocabulary: one versioned document for every way
// this project asks "run a sweep".
//
// An ExperimentSpec names a latency or bandwidth size sweep the same way the
// benches and the metrics manifest already do — snoop mode, protocol family,
// engine, seed, set-sampling, stream placement — as a small versioned JSON
// document.  The benches accept it via --spec.
//
// Library contract: nothing in here exits or prints.  Parse failures return
// nullopt with a message in `*error`; callers own the error policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/bandwidth.h"
#include "core/placement.h"
#include "core/sampling.h"
#include "machine/system.h"

namespace hsw {

// Schema version stamped into every spec document ("hswsim_spec_version").
// A document at any other version must be refused, not misread.
inline constexpr int kSpecVersion = 1;

enum class ExperimentKind : std::uint8_t { kLatency, kBandwidth };

[[nodiscard]] const char* to_string(ExperimentKind kind);
[[nodiscard]] std::optional<ExperimentKind> parse_experiment_kind(
    std::string_view name);

// Short tokens used by the spec JSON (to_string(SnoopMode) is the long
// human-readable form; the spec wants the same tokens parse_snoop_mode
// accepts).
[[nodiscard]] const char* snoop_mode_token(SnoopMode mode);
[[nodiscard]] const char* load_width_token(bw::LoadWidth width);
[[nodiscard]] std::optional<bw::LoadWidth> parse_load_width(
    std::string_view name);

struct ExperimentSpec {
  ExperimentKind kind = ExperimentKind::kLatency;
  SnoopMode mode = SnoopMode::kSourceSnoop;
  Protocol protocol = Protocol::kMesif;
  // Bandwidth only (latency sweeps have no engine choice).
  BandwidthEngine engine = BandwidthEngine::kAnalytic;
  std::uint64_t seed = 1;
  // Set-sampling (core/sampling.h): ratio 1 = exact.
  double sample_ratio = 1.0;
  std::uint64_t sample_seed = 0;
  // The measuring (latency) / streaming (bandwidth) core.
  int core = 0;
  // Bandwidth only: store stream instead of load stream.
  bool write = false;
  bw::LoadWidth width = bw::LoadWidth::kAvx256;
  // Placement of the buffer before measurement.  The cache level is always
  // "natural" (the sweep's size axis decides the level — see sweep.h), so
  // the spec carries no level field.
  int owner_core = 0;
  int memory_node = 0;
  Mesif state = Mesif::kModified;
  std::vector<int> sharers;
  // The size axis, bytes per point.
  std::vector<std::uint64_t> sizes = {64 * 1024};
  std::uint64_t max_measured_lines = 16384;

  bool operator==(const ExperimentSpec&) const = default;

  // Pretty serialization for files humans edit (round-trips through
  // spec_from_json).
  [[nodiscard]] std::string to_json() const;

  // The machine this spec runs on: the snoop-mode preset with the spec's
  // protocol family.
  [[nodiscard]] SystemConfig system_config() const;
  [[nodiscard]] SamplingConfig sampling() const;
  [[nodiscard]] Placement placement() const;
};

// Parses one spec document.  nullopt on malformed JSON, unknown keys, an
// unsupported hswsim_spec_version, or out-of-range values; `*error` (when
// non-null) receives a one-line message.
[[nodiscard]] std::optional<ExperimentSpec> spec_from_json(
    const std::string& text, std::string* error);

// Reads and parses a spec file.
[[nodiscard]] std::optional<ExperimentSpec> spec_from_file(
    const std::string& path, std::string* error);

}  // namespace hsw
