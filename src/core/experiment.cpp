#include "core/experiment.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <utility>

#include "topo/topology.h"
#include "util/json.h"

namespace hsw {
namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string fmt_ratio(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_int(const std::string& text, int* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_f64(const std::string& text, double* out) {
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

// Is `rel` of the form `stem<digits>` (an array element path)?
bool is_index_key(std::string_view rel, std::string_view stem) {
  if (!rel.starts_with(stem)) return false;
  rel.remove_prefix(stem.size());
  if (rel.empty()) return false;
  for (const char c : rel) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

const char* to_string(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kLatency: return "latency";
    case ExperimentKind::kBandwidth: return "bandwidth";
  }
  return "?";
}

std::optional<ExperimentKind> parse_experiment_kind(std::string_view name) {
  if (name == "latency") return ExperimentKind::kLatency;
  if (name == "bandwidth") return ExperimentKind::kBandwidth;
  return std::nullopt;
}

const char* snoop_mode_token(SnoopMode mode) {
  switch (mode) {
    case SnoopMode::kSourceSnoop: return "source";
    case SnoopMode::kHomeSnoop: return "home";
    case SnoopMode::kCod: return "cod";
  }
  return "?";
}

const char* load_width_token(bw::LoadWidth width) {
  return width == bw::LoadWidth::kAvx256 ? "avx256" : "sse128";
}

std::optional<bw::LoadWidth> parse_load_width(std::string_view name) {
  if (name == "avx256") return bw::LoadWidth::kAvx256;
  if (name == "sse128") return bw::LoadWidth::kSse128;
  return std::nullopt;
}

std::string ExperimentSpec::to_json() const {
  std::string out = "{\n";
  out += "  \"hswsim_spec_version\": " + std::to_string(kSpecVersion) + ",\n";
  out += std::string("  \"kind\": \"") + to_string(kind) + "\",\n";
  out += std::string("  \"mode\": \"") + snoop_mode_token(mode) + "\",\n";
  out += "  \"protocol\": \"" + std::string(to_string(protocol)) + "\",\n";
  out += std::string("  \"engine\": \"") + to_string(engine) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"sample_ratio\": " + fmt_ratio(sample_ratio) + ",\n";
  out += "  \"sample_seed\": " + std::to_string(sample_seed) + ",\n";
  out += "  \"core\": " + std::to_string(core) + ",\n";
  out += std::string("  \"write\": ") + (write ? "true" : "false") + ",\n";
  out += std::string("  \"width\": \"") + load_width_token(width) + "\",\n";
  out += "  \"placement\": {\n";
  out += "    \"owner_core\": " + std::to_string(owner_core) + ",\n";
  out += "    \"memory_node\": " + std::to_string(memory_node) + ",\n";
  out += "    \"state\": \"" + std::string(to_string(state)) + "\",\n";
  out += "    \"sharers\": [";
  for (std::size_t i = 0; i < sharers.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(sharers[i]);
  }
  out += "]\n  },\n";
  out += "  \"sizes\": [";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(sizes[i]);
  }
  out += "],\n";
  out += "  \"max_measured_lines\": " + std::to_string(max_measured_lines) +
         "\n}\n";
  return out;
}

SystemConfig ExperimentSpec::system_config() const {
  SystemConfig config = SystemConfig::for_mode(mode);
  config.protocol = protocol;
  return config;
}

SamplingConfig ExperimentSpec::sampling() const {
  SamplingConfig config;
  config.ratio = sample_ratio;
  config.seed = sample_seed;
  return config;
}

Placement ExperimentSpec::placement() const {
  Placement p;
  p.owner_core = owner_core;
  p.memory_node = memory_node;
  p.state = state;
  p.sharers = sharers;
  return p;
}

namespace {

// Builds a spec from a flattened document (util/json.h).
std::optional<ExperimentSpec> spec_from_flat(
    const std::map<std::string, std::string>& flat, std::string* error) {
  auto get = [&](std::string_view key) -> const std::string* {
    const auto it = flat.find(std::string(key));
    return it == flat.end() ? nullptr : &it->second;
  };

  // Reject unknown keys first: a typo must not silently become a default.
  static constexpr std::string_view kScalarKeys[] = {
      "hswsim_spec_version", "kind",        "mode",
      "protocol",            "engine",      "seed",
      "sample_ratio",        "sample_seed", "core",
      "write",               "width",       "placement.owner_core",
      "placement.memory_node", "placement.state", "max_measured_lines"};
  for (const auto& [key, value] : flat) {
    bool known = false;
    for (const std::string_view k : kScalarKeys) {
      if (key == k) { known = true; break; }
    }
    if (!known && !is_index_key(key, "placement.sharers.") &&
        !is_index_key(key, "sizes.")) {
      set_error(error, "experiment spec: unknown key '" + key + "'");
      return std::nullopt;
    }
  }

  const std::string* version = get("hswsim_spec_version");
  if (version == nullptr) {
    set_error(error, "experiment spec: missing hswsim_spec_version");
    return std::nullopt;
  }
  if (*version != std::to_string(kSpecVersion)) {
    set_error(error, "experiment spec: unknown hswsim_spec_version '" +
                         *version + "'");
    return std::nullopt;
  }

  ExperimentSpec spec;
  if (const std::string* v = get("kind")) {
    const auto kind = parse_experiment_kind(*v);
    if (!kind) {
      set_error(error, "experiment spec: unknown kind '" + *v +
                           "' (latency|bandwidth)");
      return std::nullopt;
    }
    spec.kind = *kind;
  }
  if (const std::string* v = get("mode")) {
    const auto mode = parse_snoop_mode(*v);
    if (!mode) {
      set_error(error,
                "experiment spec: unknown mode '" + *v + "' (source|home|cod)");
      return std::nullopt;
    }
    spec.mode = *mode;
  }
  if (const std::string* v = get("protocol")) {
    const auto protocol = parse_protocol(*v);
    if (!protocol) {
      set_error(error, "experiment spec: unknown protocol '" + *v +
                           "' (mesif|mesi|moesi|dragon)");
      return std::nullopt;
    }
    spec.protocol = *protocol;
  }
  if (const std::string* v = get("engine")) {
    const auto engine = parse_bandwidth_engine(*v);
    if (!engine) {
      set_error(error, "experiment spec: unknown engine '" + *v +
                           "' (analytic|simulated)");
      return std::nullopt;
    }
    spec.engine = *engine;
  }
  if (const std::string* v = get("seed")) {
    if (!parse_u64(*v, &spec.seed)) {
      set_error(error, "experiment spec: bad seed '" + *v + "'");
      return std::nullopt;
    }
  }
  if (const std::string* v = get("sample_ratio")) {
    if (!parse_f64(*v, &spec.sample_ratio) || !(spec.sample_ratio > 0.0) ||
        spec.sample_ratio > 1.0) {
      set_error(error, "experiment spec: sample_ratio must be in (0, 1]");
      return std::nullopt;
    }
  }
  if (const std::string* v = get("sample_seed")) {
    if (!parse_u64(*v, &spec.sample_seed)) {
      set_error(error, "experiment spec: bad sample_seed '" + *v + "'");
      return std::nullopt;
    }
  }
  if (const std::string* v = get("write")) {
    if (*v == "true") {
      spec.write = true;
    } else if (*v == "false") {
      spec.write = false;
    } else {
      set_error(error, "experiment spec: bad write '" + *v + "'");
      return std::nullopt;
    }
  }
  if (const std::string* v = get("width")) {
    const auto width = parse_load_width(*v);
    if (!width) {
      set_error(error, "experiment spec: unknown width '" + *v +
                           "' (avx256|sse128)");
      return std::nullopt;
    }
    spec.width = *width;
  }
  if (const std::string* v = get("placement.state")) {
    const auto state = parse_mesif(*v);
    if (!state || (*state != Mesif::kModified && *state != Mesif::kExclusive &&
                   *state != Mesif::kShared)) {
      set_error(error,
                "experiment spec: placement state must be M, E, or S");
      return std::nullopt;
    }
    spec.state = *state;
  }

  // Core/node bounds come from the snoop-mode preset, not hardcoded values.
  const SystemConfig machine = SystemConfig::for_mode(spec.mode);
  const int cores = cores_per_die(machine.sku) * machine.sockets;
  const int nodes =
      machine.sockets * (machine.snoop_mode == SnoopMode::kCod ? 2 : 1);
  auto read_core = [&](std::string_view key, int* out) -> bool {
    const std::string* v = get(key);
    if (v == nullptr) return true;
    if (!parse_int(*v, out) || *out < 0 || *out >= cores) {
      set_error(error, "experiment spec: " + std::string(key) +
                           " must be in [0, " + std::to_string(cores) + ")");
      return false;
    }
    return true;
  };
  if (!read_core("core", &spec.core)) return std::nullopt;
  if (!read_core("placement.owner_core", &spec.owner_core)) return std::nullopt;
  if (const std::string* v = get("placement.memory_node")) {
    if (!parse_int(*v, &spec.memory_node) || spec.memory_node < 0 ||
        spec.memory_node >= nodes) {
      set_error(error, "experiment spec: placement.memory_node must be in [0, " +
                           std::to_string(nodes) + ")");
      return std::nullopt;
    }
  }
  spec.sharers.clear();
  for (std::size_t i = 0;; ++i) {
    const std::string* v = get("placement.sharers." + std::to_string(i));
    if (v == nullptr) break;
    int sharer = 0;
    if (!parse_int(*v, &sharer) || sharer < 0 || sharer >= cores) {
      set_error(error, "experiment spec: sharer '" + *v + "' out of range");
      return std::nullopt;
    }
    spec.sharers.push_back(sharer);
  }
  // An omitted "sizes" array keeps the default single point; a present one
  // replaces it (and an explicitly empty array is an error: json's flat view
  // cannot tell `[]` from an absent key, so the empty case only arises when
  // the first element fails to parse upstream).
  if (get("sizes.0") != nullptr) {
    spec.sizes.clear();
    for (std::size_t i = 0;; ++i) {
      const std::string* v = get("sizes." + std::to_string(i));
      if (v == nullptr) break;
      std::uint64_t bytes = 0;
      if (!parse_u64(*v, &bytes) || bytes < 4096 ||
          bytes > (1ull << 30)) {
        set_error(error, "experiment spec: size '" + *v +
                             "' must be in [4096, 1GiB]");
        return std::nullopt;
      }
      spec.sizes.push_back(bytes);
    }
  }
  if (const std::string* v = get("max_measured_lines")) {
    if (!parse_u64(*v, &spec.max_measured_lines) ||
        spec.max_measured_lines == 0) {
      set_error(error, "experiment spec: bad max_measured_lines '" + *v + "'");
      return std::nullopt;
    }
  }
  return spec;
}

}  // namespace

std::optional<ExperimentSpec> spec_from_json(const std::string& text,
                                             std::string* error) {
  std::map<std::string, std::string> flat;
  if (!json::parse_flat(text, &flat)) {
    set_error(error, "experiment spec: not valid JSON");
    return std::nullopt;
  }
  return spec_from_flat(flat, error);
}

std::optional<ExperimentSpec> spec_from_file(const std::string& path,
                                             std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    set_error(error, "experiment spec: cannot read '" + path + "'");
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return spec_from_json(text, error);
}

}  // namespace hsw
