#include "obs/line_stats.h"

#include <algorithm>
#include <bit>

#include "util/json.h"

namespace hsw::obs {
namespace {

using json::appendf;

void append_residency(std::string& out,
                      const std::array<double, protocol::kStateCount>& ns) {
  appendf(out, "\"residency_ns\": {");
  for (std::size_t s = 0; s < protocol::kStateCount; ++s) {
    appendf(out, "%s\"%s\": %.6f", s == 0 ? "" : ", ",
            std::string(to_string(static_cast<Mesif>(s))).c_str(), ns[s]);
  }
  appendf(out, "}");
}

}  // namespace

const char* to_string(LineOp op) {
  switch (op) {
    case LineOp::kLocalRead: return "LocalRead";
    case LineOp::kLocalStore: return "LocalStore";
    case LineOp::kSnoopRead: return "SnoopRead";
    case LineOp::kSnoopInvalidate: return "SnoopInvalidate";
    case LineOp::kSnoopUpdate: return "SnoopUpdate";
    case LineOp::kWriteback: return "Writeback";
    case LineOp::kEvict: return "Evict";
    case LineOp::kFlush: return "Flush";
  }
  return "?";
}

const char* to_string(Level level) {
  switch (level) {
    case Level::kL1: return "L1";
    case Level::kL2: return "L2";
    case Level::kL3: return "L3";
  }
  return "?";
}

const char* to_string(SharingPattern pattern) {
  switch (pattern) {
    case SharingPattern::kPrivate: return "private";
    case SharingPattern::kReadShared: return "read_shared";
    case SharingPattern::kMigratory: return "migratory";
    case SharingPattern::kPingPong: return "ping_pong";
    case SharingPattern::kFalseShared: return "false_shared";
    case SharingPattern::kMixed: return "mixed";
  }
  return "?";
}

int LineRecord::cores_seen() const { return std::popcount(core_mask); }

SharingPattern classify(const LineRecord& record) {
  if (record.cores_seen() <= 1) return SharingPattern::kPrivate;
  if (record.writes == 0) return SharingPattern::kReadShared;
  if (record.reads == 0) return SharingPattern::kFalseShared;
  // Migratory data (lock words): ownership keeps moving and the typical
  // episode is a read-modify-write.  Checked before ping-pong because a
  // lock's read-then-write episodes also alternate between cores.
  if (record.handoffs >= 2 && record.rmw_handoffs * 2 >= record.handoffs) {
    return SharingPattern::kMigratory;
  }
  // Ping-pong (producer/consumer mailboxes): episodes are pure writes on
  // one side and pure reads on the other, never mixed.
  if (record.mixed_episodes == 0 && record.pure_read_episodes > 0 &&
      record.pure_write_episodes > 0) {
    return SharingPattern::kPingPong;
  }
  return SharingPattern::kMixed;
}

void LineStatsRecorder::close_episode(LineRecord& record, bool handoff) {
  if (record.episode_core < 0) return;
  record.episodes += 1;
  if (record.episode_has_read && record.episode_has_write) {
    record.mixed_episodes += 1;
  } else if (record.episode_has_read) {
    record.pure_read_episodes += 1;
  } else {
    record.pure_write_episodes += 1;
  }
  if (handoff) {
    record.handoffs += 1;
    if (record.episode_read_first && record.episode_has_write) {
      record.rmw_handoffs += 1;
    }
  }
  record.episode_core = -1;
  record.episode_read_first = false;
  record.episode_has_read = false;
  record.episode_has_write = false;
}

void LineStatsRecorder::on_access(int core, LineAddr line, bool is_write,
                                  double ns) {
  LineRecord& record = lines_[line];
  if (is_write) {
    record.writes += 1;
  } else {
    record.reads += 1;
  }
  record.core_mask |= std::uint64_t{1} << (core < 63 ? core : 63);
  if (record.episode_core != core) {
    close_episode(record, /*handoff=*/record.episode_core >= 0);
    record.episode_core = core;
    record.episode_read_first = !is_write;
  }
  record.episode_has_read |= !is_write;
  record.episode_has_write |= is_write;
  accesses_ += 1;
  if (!external_clock_) now_ += ns;
}

void LineStatsRecorder::on_transition(Level level, int unit, LineAddr line,
                                      Mesif from, LineOp op, Mesif to) {
  transitions_[transition_index(level, from, op, to)] += 1;
  if (level != Level::kL3) return;

  LineRecord& record = lines_[line];
  // Contention received: the cross-node traffic the top-N ranking keys on.
  if (op == LineOp::kSnoopInvalidate && from != Mesif::kInvalid) {
    record.invalidations += 1;
  } else if (op == LineOp::kSnoopRead && pol_->snoop_read(from).forwards) {
    record.forwards += 1;
  } else if (op == LineOp::kSnoopUpdate && from != Mesif::kInvalid) {
    record.updates += 1;
  }

  // Residency: close the open interval for this (line, node) L3 entry at
  // the current clock, then open one for the new state.
  const std::uint64_t key = line * kMaxNodes + static_cast<unsigned>(unit);
  const auto it = l3_residency_.find(key);
  if (it != l3_residency_.end()) {
    record.residency_ns[protocol::idx(it->second.state)] += now_ - it->second.mark;
    if (to == Mesif::kInvalid) {
      l3_residency_.erase(it);
    } else {
      it->second = Residency{to, now_};
    }
  } else if (to != Mesif::kInvalid) {
    l3_residency_[key] = Residency{to, now_};
  }
}

void LineStatsRecorder::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (auto& [line, record] : lines_) {
    close_episode(record, /*handoff=*/false);
  }
  for (const auto& [key, open] : l3_residency_) {
    lines_[key / kMaxNodes].residency_ns[protocol::idx(open.state)] +=
        now_ - open.mark;
  }
  l3_residency_.clear();
}

MergedLineStats merge_streams(
    std::span<const LineStatsRecorder* const> in_stream_order) {
  MergedLineStats m;
  m.streams = in_stream_order.size();
  if (in_stream_order.empty()) return m;
  m.protocol = in_stream_order.front()->protocol();
  for (const LineStatsRecorder* recorder : in_stream_order) {
    const LineStatsRecorder& r = *recorder;
    m.accesses += r.accesses();
    for (std::size_t c = 0; c < LineStatsRecorder::kTransitionCells; ++c) {
      m.transitions[c] += r.transitions_[c];
    }
    for (const auto& [line, record] : r.lines()) {
      m.lines_tracked += 1;
      m.patterns[static_cast<std::size_t>(classify(record))] += 1;
      for (std::size_t s = 0; s < protocol::kStateCount; ++s) {
        m.residency_ns[s] += record.residency_ns[s];
      }
      m.top_lines.push_back(TopLine{r.stream(), line, classify(record), record});
    }
  }

  std::stable_sort(m.top_lines.begin(), m.top_lines.end(),
                   [](const TopLine& a, const TopLine& b) {
                     if (a.record.contention() != b.record.contention()) {
                       return a.record.contention() > b.record.contention();
                     }
                     const std::uint64_t at = a.record.reads + a.record.writes;
                     const std::uint64_t bt = b.record.reads + b.record.writes;
                     if (at != bt) return at > bt;
                     if (a.stream != b.stream) return a.stream < b.stream;
                     return a.line < b.line;
                   });
  if (m.top_lines.size() > kTopLines) m.top_lines.resize(kTopLines);
  return m;
}

std::string render_linestats_section(const MergedLineStats& m) {
  std::string out;
  out.reserve(4096);
  appendf(out, "  \"lines\": {\n");
  appendf(out, "    \"protocol\": \"%s\",\n",
          std::string(hsw::to_string(m.protocol)).c_str());
  appendf(out, "    \"streams\": %zu,\n", m.streams);
  appendf(out, "    \"accesses\": %llu,\n",
          static_cast<unsigned long long>(m.accesses));
  appendf(out, "    \"lines_tracked\": %llu,\n",
          static_cast<unsigned long long>(m.lines_tracked));

  appendf(out, "    \"patterns\": {");
  for (std::size_t p = 0; p < kSharingPatternCount; ++p) {
    appendf(out, "%s\"%s\": %llu", p == 0 ? "" : ", ",
            to_string(static_cast<SharingPattern>(p)),
            static_cast<unsigned long long>(m.patterns[p]));
  }
  appendf(out, "},\n");

  appendf(out, "    ");
  append_residency(out, m.residency_ns);
  appendf(out, ",\n");

  // Only nonzero cells: the full matrix is 3 x 6 x 8 x 6 and almost all of
  // it is structurally unreachable for any given protocol.  Cells print in
  // index order (level, from, op, to), so the section is deterministic.
  appendf(out, "    \"transitions\": {\n");
  for (std::size_t l = 0; l < kLevelCount; ++l) {
    appendf(out, "      \"%s\": {", to_string(static_cast<Level>(l)));
    bool first = true;
    for (std::size_t from = 0; from < protocol::kStateCount; ++from) {
      for (std::size_t op = 0; op < kLineOpCount; ++op) {
        for (std::size_t to = 0; to < protocol::kStateCount; ++to) {
          const std::uint64_t n = m.transition(
              static_cast<Level>(l), static_cast<Mesif>(from),
              static_cast<LineOp>(op), static_cast<Mesif>(to));
          if (n == 0) continue;
          appendf(out, "%s\n        \"%s.%s.%s\": %llu", first ? "" : ",",
                  std::string(to_string(static_cast<Mesif>(from))).c_str(),
                  to_string(static_cast<LineOp>(op)),
                  std::string(to_string(static_cast<Mesif>(to))).c_str(),
                  static_cast<unsigned long long>(n));
          first = false;
        }
      }
    }
    appendf(out, "%s}%s\n", first ? "" : "\n      ",
            l + 1 < kLevelCount ? "," : "");
  }
  appendf(out, "    },\n");

  appendf(out, "    \"top_lines\": [");
  for (std::size_t i = 0; i < m.top_lines.size(); ++i) {
    const TopLine& t = m.top_lines[i];
    appendf(out, "%s\n      {\"line\": \"0x%llx\", \"stream\": %u, "
            "\"pattern\": \"%s\", \"cores\": %d, \"reads\": %llu, "
            "\"writes\": %llu, \"invalidations\": %llu, \"forwards\": %llu, "
            "\"updates\": %llu, \"contention\": %llu,\n       ",
            i == 0 ? "" : ",",
            static_cast<unsigned long long>(t.line), t.stream,
            to_string(t.pattern), t.record.cores_seen(),
            static_cast<unsigned long long>(t.record.reads),
            static_cast<unsigned long long>(t.record.writes),
            static_cast<unsigned long long>(t.record.invalidations),
            static_cast<unsigned long long>(t.record.forwards),
            static_cast<unsigned long long>(t.record.updates),
            static_cast<unsigned long long>(t.record.contention()));
    append_residency(out, t.record.residency_ns);
    appendf(out, "}");
  }
  appendf(out, "%s]\n", m.top_lines.empty() ? "" : "\n    ");
  appendf(out, "  }");
  return out;
}

}  // namespace hsw::obs
