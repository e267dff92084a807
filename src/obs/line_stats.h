// Per-line coherence flight recorder.
//
// The tracer answers "what did this access pay for" and the metrics
// registry answers "how busy were the boxes"; this module answers the
// question between them: *how do individual cache lines behave under the
// protocol* — which states they live in, which transitions they take, and
// what sharing pattern their accessor history spells out.  It is the data
// layer a future adaptive invalidate-vs-update policy consumes (ROADMAP
// item 1) and the machine-readable form of the paper's state-transition
// methodology.
//
// A LineStatsRecorder attaches to the engine exactly like the tracer and
// the metrics registry: a raw pointer on MachineState, one null-pointer
// test per instrumentation site when detached (InstrumentationScope wires
// it through every measurement path).  While attached it records:
//
//   * a protocol-generic transition count matrix per cache level —
//     (state x bus-op -> state) over the shared I/S/F/E/M/O vocabulary of
//     coh/protocol.h, so one implementation covers MESIF/MESI/MOESI/Dragon;
//   * state-residency time at the L3 in simulated ns, per (line, node) —
//     which states lines actually live in (MOESI's Owned dwell time vs
//     MESIF's eager demotion to Shared is a one-line diff of two reports);
//   * an online per-line accessor history (episodes of consecutive
//     same-core accesses, ownership handoffs, read/write mix) that a
//     sharing-pattern classifier reduces to private / read_shared /
//     migratory / ping_pong / false_shared, plus contention counters
//     (invalidations, forwards, updates received) that rank the top-N
//     contended lines.
//
// Simulated time: by default the recorder advances its clock by each
// access's composed latency (the serial replay/measure paths).  The
// event-driven exec engine instead drives the clock explicitly via
// set_now() with its event-queue timestamps, so residency reflects the
// interleaved schedule.
//
// Storage: a flat open-addressing table of line slots indexes a dense
// vector of line records, and the open L3 residency intervals live in one
// pool, chained per slot.  finalize() closes each line's open intervals in
// node order and sorts the records by line, so every floating-point sum
// runs in line and node order, whatever order the lines were first seen in.
//
// LineStatsHub is the generic StreamHub (util/stream_hub.h) over these
// recorders; merge_streams() below is its stream-order fold over finalized
// recorders, so reports are byte-identical for any --jobs value.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coh/protocol.h"
#include "mem/address.h"
#include "mem/line.h"
#include "util/stream_hub.h"

namespace hsw::obs {

// Lines kept in MergedLineStats::top_lines, ranked by contention.
inline constexpr std::size_t kTopLines = 16;

// Bus/mesh operations as observed by a cache entry holding (or receiving)
// a line.  The first five mirror protocol::Op — they index the same policy
// tables — and the last three are the cache-management flows the policy
// tables do not model (they always end in I or refresh a lower level).
enum class LineOp : std::uint8_t {
  kLocalRead,        // demand load (hit transition or fill)
  kLocalStore,       // demand store (hit upgrade, RFO fill, update-write)
  kSnoopRead,        // peer read snoop demoting a supplier
  kSnoopInvalidate,  // peer RFO / invalidating snoop
  kSnoopUpdate,      // peer update broadcast (Dragon)
  kWriteback,        // victim landing in the next level down
  kEvict,            // capacity eviction (incl. inclusive back-invalidation)
  kFlush,            // clflush removing the line everywhere
};

inline constexpr std::size_t kLineOpCount = 8;

[[nodiscard]] const char* to_string(LineOp op);

// Cache level a transition was observed at.
enum class Level : std::uint8_t { kL1, kL2, kL3 };

inline constexpr std::size_t kLevelCount = 3;

[[nodiscard]] const char* to_string(Level level);

// Sharing-pattern verdict for one line's accessor history.
enum class SharingPattern : std::uint8_t {
  kPrivate,      // one core only
  kReadShared,   // multiple cores, never written
  kMigratory,    // ownership migrates: each episode reads then writes (locks)
  kPingPong,     // pure-write and pure-read episodes alternate (mailboxes)
  kFalseShared,  // multiple writers, no reader overlap on the line
  kMixed,        // multi-core read/write without a dominant structure
};

inline constexpr std::size_t kSharingPatternCount = 6;

[[nodiscard]] const char* to_string(SharingPattern pattern);

// Everything recorded about one line.  An *episode* is a maximal run of
// consecutive accesses by one core; a *handoff* closes an episode because a
// different core touched the line.  The episode counters are what the
// classifier reads; the contention counters come from L3 snoop transitions.
struct LineRecord {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t core_mask = 0;  // bit per accessing core (cores >= 64 share bit 63)

  // Open-episode state (closed by finalize()).
  std::int32_t episode_core = -1;
  bool episode_read_first = false;
  bool episode_has_read = false;
  bool episode_has_write = false;

  std::uint64_t episodes = 0;
  std::uint64_t handoffs = 0;
  // Handoffs whose closing episode read the line before writing it — the
  // read-modify-write signature of migratory data (lock words).
  std::uint64_t rmw_handoffs = 0;
  std::uint64_t pure_read_episodes = 0;
  std::uint64_t pure_write_episodes = 0;
  std::uint64_t mixed_episodes = 0;

  // Contention received at the L3 (cross-node traffic aimed at this line).
  std::uint64_t invalidations = 0;  // invalidating snoops that hit a copy
  std::uint64_t forwards = 0;       // read snoops a holder answered with data
  std::uint64_t updates = 0;        // update broadcasts that refreshed a copy

  // Simulated ns this line's L3 entries spent in each state (summed over
  // nodes; only lines with at least one observed L3 transition accrue time).
  std::array<double, protocol::kStateCount> residency_ns{};

  [[nodiscard]] std::uint64_t contention() const {
    return invalidations + forwards + updates;
  }
  [[nodiscard]] int cores_seen() const;
};

// Classifies a finalized record (finalize() must have closed the open
// episode; classifying a live record undercounts the final episode).
[[nodiscard]] SharingPattern classify(const LineRecord& record);

// One tracked line of a recorder.
struct LineEntry {
  LineAddr line = 0;
  LineRecord record;
};

struct MergedLineStats;

// Per-measured-section recorder.  Single-threaded like the engine that
// feeds it; `stream` orders recorders in the hub merge exactly like tracer
// streams (derived from configuration, never from scheduling).
class LineStatsRecorder {
 public:
  explicit LineStatsRecorder(Protocol protocol, std::uint32_t stream = 0)
      : protocol_(protocol), pol_(&protocol::policy(protocol)),
        stream_(stream) {}

  // Engine access epilogue: classifier history + clock advance (unless an
  // external clock drives set_now).
  void on_access(int core, LineAddr line, bool is_write, double ns);

  // Event-driven execution: adopts `ns` as the recorder's clock and stops
  // advancing it from access latencies.  Monotonic per the event queue.
  void set_now(double ns) {
    external_clock_ = true;
    now_ = ns;
  }

  // One observed state change.  `unit` is the node id for kL3 entries and
  // the global core id for kL1/kL2 (only kL3 feeds residency/contention).
  void on_transition(Level level, int unit, LineAddr line, Mesif from,
                     LineOp op, Mesif to);

  // Closes open episodes and open residency intervals at the current clock
  // and sorts the tracked lines by address.  Only the first call closes
  // anything; a later call re-sorts lines first seen since the previous
  // one.  System::detach_linestats and StreamHub::absorb call it.
  void finalize();

  [[nodiscard]] Protocol protocol() const { return protocol_; }
  [[nodiscard]] std::uint32_t stream() const { return stream_; }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  // Tracked lines, sorted by address once finalize() has run (and until
  // the next line is first seen).
  [[nodiscard]] std::span<const LineEntry> lines() const { return lines_; }
  // The record of `line`, or nullptr if the line was never tracked.
  [[nodiscard]] const LineRecord* find(LineAddr line) const;
  [[nodiscard]] std::uint64_t transitions(Level level, Mesif from, LineOp op,
                                          Mesif to) const {
    return transitions_[transition_index(level, from, op, to)];
  }

  static constexpr std::size_t transition_index(Level level, Mesif from,
                                                LineOp op, Mesif to) {
    return ((static_cast<std::size_t>(level) * protocol::kStateCount +
             protocol::idx(from)) *
                kLineOpCount +
            static_cast<std::size_t>(op)) *
               protocol::kStateCount +
           protocol::idx(to);
  }
  static constexpr std::size_t kTransitionCells =
      kLevelCount * protocol::kStateCount * kLineOpCount *
      protocol::kStateCount;

 private:
  friend MergedLineStats merge_streams(
      std::span<const LineStatsRecorder* const> in_stream_order);

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // A line-table slot: the line, its record's index in lines_ (kNone marks
  // an empty slot) and the first of its open L3 intervals.
  struct Slot {
    LineAddr line = 0;
    std::uint32_t record = kNone;
    std::uint32_t open = kNone;
  };
  // An open L3 residency interval of one (line, node) entry; `next` links
  // the line's chain, or the free list once closed.
  struct Interval {
    double mark = 0.0;
    std::uint32_t next = kNone;
    std::uint8_t node = 0;
    Mesif state = Mesif::kInvalid;
  };

  void close_episode(LineRecord& record, bool handoff);
  [[nodiscard]] std::size_t home_slot(LineAddr line) const {
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >>
                                    hash_shift_);
  }
  // The slot of `line`, tracking the line first if it is new.
  Slot& slot_of(LineAddr line);
  void grow();
  void sort_lines();

  Protocol protocol_;
  const protocol::ProtocolPolicy* pol_;
  std::uint32_t stream_ = 0;
  double now_ = 0.0;
  bool external_clock_ = false;
  bool finalized_ = false;
  std::uint64_t accesses_ = 0;
  std::vector<LineEntry> lines_;
  std::size_t sorted_lines_ = 0;  // lines_ is sorted while this == size()
  std::vector<Slot> slots_;       // power-of-two size, load at most 3/4
  unsigned hash_shift_ = 64;      // 64 - log2(slots_.size())
  std::vector<Interval> intervals_;
  std::uint32_t free_interval_ = kNone;
  std::array<std::uint64_t, kTransitionCells> transitions_{};
};

// One ranked line in a merged report (lines from different streams are
// distinct: each sweep point owns its System and address space).
struct TopLine {
  std::uint32_t stream = 0;
  LineAddr line = 0;
  SharingPattern pattern = SharingPattern::kPrivate;
  LineRecord record;
};

struct MergedLineStats {
  Protocol protocol = Protocol::kMesif;
  std::size_t streams = 0;
  std::uint64_t accesses = 0;
  std::uint64_t lines_tracked = 0;
  std::array<std::uint64_t, kSharingPatternCount> patterns{};
  // Aggregate L3 residency over every tracked line.
  std::array<double, protocol::kStateCount> residency_ns{};
  std::array<std::uint64_t, LineStatsRecorder::kTransitionCells> transitions{};
  std::vector<TopLine> top_lines;  // contention-ranked, capped at kTopLines

  [[nodiscard]] std::uint64_t transition(Level level, Mesif from, LineOp op,
                                         Mesif to) const {
    return transitions[LineStatsRecorder::transition_index(level, from, op,
                                                           to)];
  }
};

// Folds finalized recorders in stream-id order (the LineStatsHub merge);
// throws std::logic_error on a recorder that is not finalized.
[[nodiscard]] MergedLineStats merge_streams(
    std::span<const LineStatsRecorder* const> in_stream_order);

using LineStatsHub = StreamHub<LineStatsRecorder>;

// Renders the `"lines": {...}` report section (two-space base indent, no
// trailing comma/newline): nonzero transition cells keyed
// "<from>.<op>.<to>" per level, the pattern census, aggregate residency,
// and the top-N contended lines.  Fixed field order and %.6f floats — the
// same byte-determinism discipline as every report section.
[[nodiscard]] std::string render_linestats_section(const MergedLineStats& m);

}  // namespace hsw::obs
