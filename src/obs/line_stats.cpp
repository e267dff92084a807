#include "obs/line_stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

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

LineStatsRecorder::Slot& LineStatsRecorder::slot_of(LineAddr line) {
  if ((lines_.size() + 1) * 4 > slots_.size() * 3) grow();
  std::size_t i = home_slot(line);
  for (; slots_[i].record != kNone; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i].line == line) return slots_[i];
  }
  slots_[i] = Slot{line, static_cast<std::uint32_t>(lines_.size()), kNone};
  lines_.push_back(LineEntry{line, LineRecord{}});
  return slots_[i];
}

void LineStatsRecorder::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 64 : old.size() * 2;
  slots_.assign(capacity, Slot{});
  hash_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (const Slot& slot : old) {
    if (slot.record == kNone) continue;
    std::size_t i = home_slot(slot.line);
    while (slots_[i].record != kNone) i = (i + 1) & (capacity - 1);
    slots_[i] = slot;
  }
}

const LineRecord* LineStatsRecorder::find(LineAddr line) const {
  if (slots_.empty()) return nullptr;
  for (std::size_t i = home_slot(line);; i = (i + 1) & (slots_.size() - 1)) {
    const Slot& slot = slots_[i];
    if (slot.record == kNone) return nullptr;
    if (slot.line == line) return &lines_[slot.record].record;
  }
}

void LineStatsRecorder::on_access(int core, LineAddr line, bool is_write,
                                  double ns) {
  LineRecord& record = lines_[slot_of(line).record].record;
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

  Slot& slot = slot_of(line);
  LineRecord& record = lines_[slot.record].record;
  // Contention received: the cross-node traffic the top-N ranking keys on.
  if (op == LineOp::kSnoopInvalidate && from != Mesif::kInvalid) {
    record.invalidations += 1;
  } else if (op == LineOp::kSnoopRead && pol_->snoop_read(from).forwards) {
    record.forwards += 1;
  } else if (op == LineOp::kSnoopUpdate && from != Mesif::kInvalid) {
    record.updates += 1;
  }

  // Residency: close the open interval for this (line, node) L3 entry at
  // the current clock, then open one for the new state.  Links are indices,
  // never pointers: opening an interval may grow the pool.
  assert(static_cast<unsigned>(unit) < kMaxNodes);
  std::uint32_t* link = &slot.open;
  while (*link != kNone && intervals_[*link].node != unit) {
    link = &intervals_[*link].next;
  }
  if (*link != kNone) {
    Interval& open = intervals_[*link];
    record.residency_ns[protocol::idx(open.state)] += now_ - open.mark;
    if (to == Mesif::kInvalid) {
      const std::uint32_t closed = *link;
      *link = open.next;
      open.next = free_interval_;
      free_interval_ = closed;
    } else {
      open.state = to;
      open.mark = now_;
    }
  } else if (to != Mesif::kInvalid) {
    const Interval opened{now_, slot.open, static_cast<std::uint8_t>(unit), to};
    if (free_interval_ != kNone) {
      slot.open = free_interval_;
      free_interval_ = intervals_[free_interval_].next;
      intervals_[slot.open] = opened;
    } else {
      slot.open = static_cast<std::uint32_t>(intervals_.size());
      intervals_.push_back(opened);
    }
  }
}

void LineStatsRecorder::finalize() {
  if (!finalized_) {
    finalized_ = true;
    for (LineEntry& entry : lines_) {
      close_episode(entry.record, /*handoff=*/false);
    }
    for (Slot& slot : slots_) {
      if (slot.open == kNone) continue;
      std::array<std::uint32_t, kMaxNodes> by_node;
      by_node.fill(kNone);
      for (std::uint32_t i = slot.open; i != kNone; i = intervals_[i].next) {
        by_node[intervals_[i].node] = i;
      }
      LineRecord& record = lines_[slot.record].record;
      for (const std::uint32_t i : by_node) {
        if (i == kNone) continue;
        record.residency_ns[protocol::idx(intervals_[i].state)] +=
            now_ - intervals_[i].mark;
      }
      slot.open = kNone;
    }
    intervals_.clear();
    free_interval_ = kNone;
  }
  sort_lines();
}

void LineStatsRecorder::sort_lines() {
  if (sorted_lines_ == lines_.size()) return;
  std::vector<std::pair<LineAddr, std::uint32_t>> order;
  order.reserve(lines_.size());
  for (std::uint32_t i = 0; i < lines_.size(); ++i) {
    order.emplace_back(lines_[i].line, i);
  }
  std::sort(order.begin(), order.end());
  std::vector<LineEntry> sorted;
  sorted.reserve(lines_.size());
  std::vector<std::uint32_t> position(lines_.size());
  for (const auto& [line, i] : order) {
    position[i] = static_cast<std::uint32_t>(sorted.size());
    sorted.push_back(lines_[i]);
  }
  for (Slot& slot : slots_) {
    if (slot.record != kNone) slot.record = position[slot.record];
  }
  lines_ = std::move(sorted);
  sorted_lines_ = lines_.size();
}

MergedLineStats merge_streams(
    std::span<const LineStatsRecorder* const> in_stream_order) {
  MergedLineStats m;
  m.streams = in_stream_order.size();
  if (in_stream_order.empty()) return m;
  m.protocol = in_stream_order.front()->protocol();

  // Top-line candidates, ranked by contention, then accesses, then
  // (stream, line); the input position breaks the last tie, so the order
  // is strict and total.
  struct Candidate {
    std::uint64_t contention;
    std::uint64_t accesses;
    std::uint32_t stream;
    std::uint32_t position;
    LineAddr line;
    const LineRecord* record;
  };
  std::vector<Candidate> candidates;
  for (std::size_t k = 0; k < in_stream_order.size(); ++k) {
    const LineStatsRecorder& r = *in_stream_order[k];
    if (!r.finalized_ || r.sorted_lines_ != r.lines_.size()) {
      throw std::logic_error("merge_streams: the recorder of stream " +
                             std::to_string(r.stream()) +
                             " is not finalized");
    }
    m.accesses += r.accesses();
    for (std::size_t c = 0; c < LineStatsRecorder::kTransitionCells; ++c) {
      m.transitions[c] += r.transitions_[c];
    }
    for (const LineEntry& entry : r.lines()) {
      const LineRecord& record = entry.record;
      m.lines_tracked += 1;
      m.patterns[static_cast<std::size_t>(classify(record))] += 1;
      for (std::size_t s = 0; s < protocol::kStateCount; ++s) {
        m.residency_ns[s] += record.residency_ns[s];
      }
      candidates.push_back(Candidate{record.contention(),
                                     record.reads + record.writes, r.stream(),
                                     static_cast<std::uint32_t>(k), entry.line,
                                     &record});
    }
  }

  const std::size_t keep = std::min(kTopLines, candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(keep),
                    candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.contention != b.contention) {
                        return a.contention > b.contention;
                      }
                      if (a.accesses != b.accesses) {
                        return a.accesses > b.accesses;
                      }
                      if (a.stream != b.stream) return a.stream < b.stream;
                      if (a.line != b.line) return a.line < b.line;
                      return a.position < b.position;
                    });
  m.top_lines.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const Candidate& c = candidates[i];
    m.top_lines.push_back(
        TopLine{c.stream, c.line, classify(*c.record), *c.record});
  }
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
