#include "coh/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>

#include "coh/protocol.h"
#include "mem/address.h"

namespace hsw {

namespace {
constexpr std::uint32_t bit_of(int socket_local_core) {
  return 1u << static_cast<unsigned>(socket_local_core);
}

constexpr const char* kNodeName[kMaxNodes] = {"node0", "node1", "node2",
                                              "node3", "node4", "node5",
                                              "node6", "node7"};

// The nodes a request snoops: at most kMaxNodes, kept on the stack so an L3
// miss allocates nothing.
class NodeList {
 public:
  void push_back(int node) {
    assert(size_ < kMaxNodes);
    nodes_[size_++] = node;
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const int* begin() const { return nodes_.data(); }
  [[nodiscard]] const int* end() const { return nodes_.data() + size_; }

 private:
  std::array<int, kMaxNodes> nodes_{};
  std::size_t size_ = 0;
};

// Nodes 0..count-1 in order, without `skip_a` and `skip_b`.
NodeList nodes_except(int count, int skip_a, int skip_b) {
  NodeList nodes;
  for (int n = 0; n < count; ++n) {
    if (n != skip_a && n != skip_b) nodes.push_back(n);
  }
  return nodes;
}

using TComp = trace::Component;
using TJoin = trace::Tracer::Join;
using MC = metrics::MCtr;
}  // namespace

const char* to_string(ServiceSource source) {
  switch (source) {
    case ServiceSource::kL1: return "L1";
    case ServiceSource::kL2: return "L2";
    case ServiceSource::kL3: return "L3";
    case ServiceSource::kCoreFwd: return "core-forward";
    case ServiceSource::kRemoteFwd: return "remote-forward";
    case ServiceSource::kLocalDram: return "local DRAM";
    case ServiceSource::kRemoteDram: return "remote DRAM";
  }
  return "?";
}

// --- timing helpers ----------------------------------------------------------

double CoherenceEngine::l3_path(int core) const {
  return m_.timing.l3_base +
         2.0 * m_.core_to_ca_hops(core) * m_.timing.ring_hop;
}

// --- tracing helpers ---------------------------------------------------------
// Every emitted leaf carries the exact double the surrounding arithmetic
// adds, and emissions follow the order of the additions, so folding the span
// tree (trace/span.h) replays the engine's own FP operation sequence and
// recomposes each access's ns bit-for-bit.

void CoherenceEngine::emit_l3_path(int core) {
  // CBo / ring utilization metrics ride the same call sites as the trace
  // (every L3-path transaction passes through here exactly once).
  if (metrics::MetricsRegistry* const mm = m_.metrics) {
    mm->meter(metrics::MMeter::kRingHops, 2.0 * m_.core_to_ca_hops(core));
    mm->bump_family(metrics::MFamily::kRingStopCbo,
                    static_cast<std::size_t>(m_.topo.node_of_core(core)));
  }
  if (tracer_ == nullptr) return;
  tracer_->leaf(TComp::kCbo, "cbo_pipeline", m_.timing.l3_base);
  tracer_->leaf(TComp::kRing, "ring_round_trip",
                2.0 * m_.core_to_ca_hops(core) * m_.timing.ring_hop);
}

void CoherenceEngine::trace_link(const char* name, int from, int to) {
  if (tracer_ == nullptr) return;
  const bool qpi = from != to && m_.topo.crosses_qpi(from, to);
  tracer_->leaf(qpi ? TComp::kQpi : TComp::kRing, name, m_.link_ns(from, to));
}

void CoherenceEngine::trace_ha_entry(int req_node, int home_node) {
  if (tracer_ == nullptr) return;
  tracer_->open_group(TComp::kRing, "request_to_ha");
  if (req_node == home_node) {
    tracer_->leaf(TComp::kRing, "ca_to_ha_ring", m_.ca_to_ha_ns(home_node));
  } else if (!m_.topo.crosses_qpi(req_node, home_node)) {
    trace_link("cluster_link", req_node, home_node);
    tracer_->leaf(TComp::kRing, "ca_to_ha_ring", m_.ca_to_ha_ns(home_node));
  } else {
    trace_link("qpi_link", req_node, home_node);
    tracer_->leaf(TComp::kRing, "qpi_to_imc_ring", m_.qpi_to_ha_ns(home_node));
  }
  tracer_->close_group(m_.request_to_ha(req_node, home_node));
  tracer_->leaf(TComp::kHa, "ca_to_ha_fixed", m_.timing.ca_to_ha_fixed);
  tracer_->leaf(TComp::kHa, "ha_processing", m_.timing.ha_processing);
}

// --- metrics helpers ---------------------------------------------------------
// The uncore-PMU counterpart of the tracing helpers above: each site costs
// one null-pointer test when no registry is attached (System::attach_metrics).

void CoherenceEngine::metrics_access(double ns) {
  metrics::MetricsRegistry& mm = *m_.metrics;
  mm.observe(metrics::MHist::kAccessNs, ns);
  if (mm.access_tick()) {
    m_.update_structural_gauges(mm);
    mm.take_sample();
  }
}

void CoherenceEngine::record_request_to_ha(int req_node, int home_node) {
  metrics::MetricsRegistry* const mm = m_.metrics;
  mm->bump(req_node == home_node ? MC::kSadLocalHome : MC::kSadRemoteHome);
  mm->bump_family(metrics::MFamily::kRingStopHa,
                  static_cast<std::size_t>(home_node));
  if (req_node == home_node || !m_.topo.crosses_qpi(req_node, home_node)) {
    mm->meter(metrics::MMeter::kRingHops, m_.ca_to_imc_hops(home_node));
  } else {
    mm->meter(metrics::MMeter::kRingHops, m_.qpi_to_imc_hops(home_node));
    record_qpi(req_node, home_node, metrics::kQpiHeaderBytes);
  }
}

void CoherenceEngine::record_qpi(int from_node, int to_node,
                                 std::uint64_t bytes) {
  metrics::MetricsRegistry* const mm = m_.metrics;
  int a = m_.topo.node(from_node).socket;
  int b = m_.topo.node(to_node).socket;
  if (a > b) std::swap(a, b);
  // Upper-triangle socket-pair index: one logical link per socket pair.
  const int sockets = m_.topo.socket_count();
  const auto link = static_cast<std::size_t>(a * (2 * sockets - a - 1) / 2 +
                                             (b - a - 1));
  mm->bump_family(metrics::MFamily::kQpiLinkCrossings, link);
  mm->bump_family(metrics::MFamily::kQpiLinkBytes, link, bytes);
}

// --- DRAM --------------------------------------------------------------------

double CoherenceEngine::dram_read(MachineState::HomeRef& home) {
  m_.counters.bump(Ctr::kDramReads);
  auto& channel = home.ha->channels[static_cast<std::size_t>(home.channel)];
  double ns = m_.timing.dram_page_conflict;
  const char* outcome = "dram_page_conflict";
  const RowBufferOutcome rb = channel.access(home.channel_line);
  switch (rb) {
    case RowBufferOutcome::kHit:
      m_.counters.bump(Ctr::kDramPageHit);
      ns = m_.timing.dram_page_hit;
      outcome = "dram_page_hit";
      break;
    case RowBufferOutcome::kEmpty:
      m_.counters.bump(Ctr::kDramPageMiss);
      ns = m_.timing.dram_page_empty;
      outcome = "dram_page_empty";
      break;
    case RowBufferOutcome::kConflict:
      m_.counters.bump(Ctr::kDramPageMiss);
      break;
  }
  if (metrics::MetricsRegistry* const mm = m_.metrics) {
    constexpr MC kPageCtr[] = {MC::kImcPageHit, MC::kImcPageEmpty,
                               MC::kImcPageConflict};
    mm->bump(kPageCtr[static_cast<std::size_t>(rb)]);
    mm->bump_family(metrics::MFamily::kImcChannelReadBytes,
                    m_.channel_index(home), kLineSize);
  }
  if (tracer_ != nullptr) tracer_->leaf(TComp::kDram, outcome, ns);
  return ns;
}

void CoherenceEngine::dram_write(MachineState::HomeRef& home) {
  m_.counters.bump(Ctr::kDramWrites);
  auto& channel = home.ha->channels[static_cast<std::size_t>(home.channel)];
  (void)channel.access(home.channel_line);
  if (m_.metrics != nullptr) {
    m_.metrics->bump_family(metrics::MFamily::kImcChannelWriteBytes,
                            m_.channel_index(home), kLineSize);
  }
}

void CoherenceEngine::writeback(LineAddr line, bool clears_directory) {
  // Off the requester's critical path: a zero-cost marker in the trace.
  if (tracer_ != nullptr) tracer_->leaf(TComp::kDram, "writeback", 0.0);
  auto home = m_.home_of(line);
  dram_write(home);
  m_.counters.bump(Ctr::kL3WritebacksToMem);
  if (directory_on() && clears_directory) {
    set_directory(home, line, DirState::kRemoteInvalid, DirWrite::kSilent);
  }
}

// --- directory writes and messages -------------------------------------------

double CoherenceEngine::set_directory(MachineState::HomeRef& home,
                                      LineAddr line, DirState next,
                                      DirWrite kind) {
  if (!home.ha->directory.set(line, next)) return 0.0;
  m_.counters.bump(Ctr::kDirectoryUpdates);
  if (kind == DirWrite::kSilent) return 0.0;
  const bool ecc = kind == DirWrite::kEcc;
  const double ns = ecc ? m_.timing.dir_update : 0.0;
  if (tracer_ != nullptr) {
    tracer_->leaf(TComp::kDirectory,
                  ecc ? "dir_update_ecc" : "dir_update_background", ns);
  }
  return ns;
}

void CoherenceEngine::send(int from_node, int to_node, Msg msg) {
  const bool snoop = msg == Msg::kSnoop || msg == Msg::kUpdate;
  if (snoop) m_.counters.bump(Ctr::kSnoopBroadcasts);
  if (!m_.topo.crosses_qpi(from_node, to_node)) return;
  if (snoop) {
    m_.counters.bump(Ctr::kQpiSnoopFlits);
  } else if (msg == Msg::kData) {
    m_.counters.bump(Ctr::kQpiDataFlits);
  }
  if (m_.metrics != nullptr) {
    const bool data = msg == Msg::kUpdate || msg == Msg::kData;
    record_qpi(from_node, to_node,
               data ? metrics::kQpiDataBytes : metrics::kQpiHeaderBytes);
  }
}

// --- core snoops ---------------------------------------------------------------

CoherenceEngine::CoreSnoop CoherenceEngine::snoop_core(int global_core,
                                                       LineAddr line,
                                                       Mesif demote_to,
                                                       obs::LineOp op) {
  m_.counters.bump(Ctr::kCoreSnoops);
  CoreCaches& cc = m_.cores[static_cast<std::size_t>(global_core)];
  CoreSnoop result;
  // Both levels must be demoted: a store fill leaves the line in L1 *and*
  // L2, and a snoop that only downgraded one of them would leave a stale
  // Modified copy behind.
  auto handle = [&](obs::Level level, CacheArray& cache, double data_ns) {
    const CacheArray::Ref entry = cache.lookup(line, /*touch=*/false);
    if (!entry) return false;
    if (is_dirty(entry.state()) && !result.dirty) {
      result.dirty = true;
      result.data_ns = data_ns;
    }
    obs_transition(level, global_core, line, entry.state(), op, demote_to);
    if (demote_to == Mesif::kInvalid) {
      cache.erase(line);
    } else {
      entry.state() = demote_to;
    }
    return true;
  };
  handle(obs::Level::kL1, cc.l1, m_.timing.core_data_l1);
  handle(obs::Level::kL2, cc.l2, m_.timing.core_data_l2);
  return result;  // not found anywhere: silently evicted, clean, no data
}

bool CoherenceEngine::invalidate_core(int global_core, LineAddr line,
                                      obs::LineOp op) {
  CoreCaches& cc = m_.cores[static_cast<std::size_t>(global_core)];
  bool dirty = false;
  if (auto prior = cc.l1.erase(line)) {
    dirty |= is_dirty(prior->state);
    obs_transition(obs::Level::kL1, global_core, line, prior->state, op,
                   Mesif::kInvalid);
  }
  if (auto prior = cc.l2.erase(line)) {
    dirty |= is_dirty(prior->state);
    obs_transition(obs::Level::kL2, global_core, line, prior->state, op,
                   Mesif::kInvalid);
  }
  return dirty;
}

// --- peer CA snoops ------------------------------------------------------------
// The caller wraps each call in an open_group/close_group pair; the leaves
// emitted here are the group's children and sum to handling_ns exactly.

CoherenceEngine::PeerSnoop CoherenceEngine::snoop_peer(int peer_node,
                                                       LineAddr line,
                                                       obs::LineOp op) {
  m_.counters.bump(Ctr::kSnoopsSent);
  if (m_.metrics != nullptr) {
    m_.metrics->bump_family(metrics::MFamily::kRingStopCbo,
                            static_cast<std::size_t>(peer_node));
  }
  const NumaNode& node = m_.topo.node(peer_node);
  CacheArray& l3 = m_.l3_slice(node.socket, m_.slice_for(peer_node, line));

  PeerSnoop result;
  // One handling step: its ns joins handling_ns and its leaf the trace.
  auto pay = [&](TComp comp, const char* name, double ns) {
    result.handling_ns += ns;
    if (tracer_ != nullptr) tracer_->leaf(comp, name, ns);
  };
  pay(TComp::kCbo, "snoop_ca_lookup", m_.timing.snoop_ca_lookup);
  const CacheArray::Ref entry = l3.lookup(line, /*touch=*/false);
  if (!entry) return result;
  result.held = true;
  const Mesif found = entry.state();
  std::uint32_t cv = entry.core_valid();

  if (op == obs::LineOp::kSnoopInvalidate) {
    // Removes the peer's copies.  Dirty data migrates to the requester (an
    // M transfer): the extraction is paid, memory stays untouched.
    bool dirty = is_dirty(found);
    while (cv != 0) {
      const int owner_local = std::countr_zero(cv);
      cv &= cv - 1;
      dirty |= invalidate_core(m_.topo.global_core(node.socket, owner_local),
                               line, op);
    }
    if (entry.core_valid() != 0) {
      pay(TComp::kCoreSnoop, "core_valid_snoop", m_.timing.core_snoop_external);
    }
    if (dirty) pay(TComp::kCore, "dirty_transfer", m_.timing.core_data_l2);
    result.dirty = dirty;
    obs_transition(obs::Level::kL3, peer_node, line, found, op,
                   Mesif::kInvalid);
    l3.erase(line);
    return result;
  }

  if (op == obs::LineOp::kSnoopUpdate) {
    // Every core copy is refreshed in place and demoted to Shared: the
    // peers keep reading their (now clean w.r.t. the new owner) copies
    // without a miss — the whole point of the update protocol.
    m_.counters.bump(Ctr::kUpdatesSent);
    if (cv != 0) {
      pay(TComp::kCoreSnoop, "core_valid_snoop", m_.timing.core_snoop_external);
    }
    while (cv != 0) {
      const int owner_local = std::countr_zero(cv);
      cv &= cv - 1;
      snoop_core(m_.topo.global_core(node.socket, owner_local), line,
                 Mesif::kShared, op);
    }
    entry.state() = pol_.next(found, protocol::Op::kSnoopUpdate);
    obs_transition(obs::Level::kL3, peer_node, line, found, op, entry.state());
    return result;
  }

  // A read: the owner demotes to S and may forward.
  const protocol::SnoopReadReaction& rx = pol_.snoop_read(found);
  result.had_shared = rx.responds_shared;
  if (!rx.forwards) return result;  // Shared answers without data; I misses.

  if (rx.may_hold_newer && m_.features.core_valid_bits && cv != 0 &&
      std::popcount(cv) == 1) {
    // Exactly one core may hold a newer copy: chase the core-valid bit.
    const int owner = m_.topo.global_core(node.socket, std::countr_zero(cv));
    pay(TComp::kCoreSnoop, "core_valid_snoop", m_.timing.core_snoop_external);
    const CoreSnoop cs = snoop_core(owner, line, Mesif::kShared, op);
    if (cs.dirty) {
      pay(TComp::kCore, "core_data_extract", cs.data_ns);
      entry.state() = Mesif::kModified;  // refreshed with the dirty data
    }
  }
  // The peer's copy was possibly dirty.  Under a writeback-on-demote policy
  // (MESIF/MESI) forwarding a Modified line writes it back to the home
  // memory before the demotion to Shared; under MOESI/Dragon the supplier
  // keeps the only valid copy in Owned and the memory copy goes stale.
  if (is_dirty(entry.state())) {
    if (pol_.writeback_on_read_snoop) {
      writeback(line, /*clears_directory=*/false);
    } else {
      result.dirty_forward = true;
    }
  }
  entry.state() = pol_.next(entry.state(), protocol::Op::kSnoopRead);
  // One transition for the whole snoop: the state the snoop found (before
  // any core-valid refresh) to the state it left behind.
  obs_transition(obs::Level::kL3, peer_node, line, found, op, entry.state());
  result.forwarded = true;
  return result;
}

// --- the snoop broadcast ---------------------------------------------------------

CoherenceEngine::Race CoherenceEngine::broadcast(std::span<const int> targets,
                                                 LineAddr line, int home,
                                                 const Broadcast& b) {
  struct Names {
    const char* out;
    const char* handling;
    const char* response;
    Msg msg;
  };
  static constexpr Names kRead{"snoop_out", "peer_ca_handling",
                               "response_to_ha", Msg::kSnoop};
  static constexpr Names kInvalidate{"invalidate_out", "peer_invalidate",
                                     "ack_to_ha", Msg::kSnoop};
  static constexpr Names kUpdate{"update_out", "peer_update", "ack_to_ha",
                                 Msg::kUpdate};
  const Names& names = b.op == obs::LineOp::kSnoopRead         ? kRead
                       : b.op == obs::LineOp::kSnoopInvalidate ? kInvalidate
                                                               : kUpdate;
  Race race;
  race.slowest = b.slowest;
  int fanout = 0;
  for (const int p : targets) {
    send(b.from, p, names.msg);
    const double stagger = b.stagger.value_or(0.0) * fanout++;
    if (tracer_ != nullptr) {
      tracer_->open_leg(kNodeName[p]);
      if (b.stagger) tracer_->leaf(TComp::kHa, "broadcast_fanout", stagger);
      trace_link(names.out, b.from, p);
      tracer_->open_group(TComp::kCbo, names.handling);
    }
    const PeerSnoop snoop = snoop_peer(p, line, b.op);
    if (tracer_ != nullptr) tracer_->close_group(snoop.handling_ns);
    const double handled =
        b.launch + stagger + m_.link_ns(b.from, p) + snoop.handling_ns;
    if (snoop.forwarded) {
      race.winner = p;
      race.data_sent_ns = handled;
      race.dirty_forward = snoop.dirty_forward;
      if (b.forward_penalty) {
        // A third node supplies the data: the HA still has to collect the
        // response and complete the transaction before the load retires.
        race.data_sent_ns = handled + *b.forward_penalty;
        if (tracer_ != nullptr) {
          tracer_->leaf(TComp::kHa, "three_node_penalty", *b.forward_penalty);
        }
      }
      if (tracer_ != nullptr) tracer_->close_leg();
      return race;
    }
    race.any_shared |= snoop.had_shared;
    race.any_held |= snoop.held;
    if (snoop.dirty) race.dirty_node = p;
    if (tracer_ != nullptr) {
      trace_link(names.response, p, home);
      tracer_->close_leg();
    }
    race.slowest = std::max(race.slowest, handled + m_.link_ns(p, home));
  }
  return race;
}

// --- victim / fill plumbing -----------------------------------------------------

void CoherenceEngine::handle_l1_victim(int core, const CacheEntry& victim) {
  metric(is_dirty(victim.state) ? MC::kL1VictimDirty : MC::kL1VictimCleanSilent);
  obs_transition(obs::Level::kL1, core, victim.line, victim.state,
                 obs::LineOp::kEvict, Mesif::kInvalid);
  CoreCaches& cc = m_.cores[static_cast<std::size_t>(core)];
  if (const CacheArray::Ref in_l2 = cc.l2.lookup(victim.line, /*touch=*/false)) {
    // The dirty state travels down as-is: a MESIF/MESI victim is Modified,
    // a Dragon Owned victim must stay Owned (sharers still exist).
    if (is_dirty(victim.state)) {
      obs_transition(obs::Level::kL2, core, victim.line, in_l2.state(),
                     obs::LineOp::kWriteback, victim.state);
      in_l2.state() = victim.state;
    }
    return;
  }
  if (is_dirty(victim.state)) {
    obs_transition(obs::Level::kL2, core, victim.line, Mesif::kInvalid,
                   obs::LineOp::kWriteback, victim.state);
    auto ins = cc.l2.insert(victim.line, victim.state);
    ins.entry.payload() = victim.payload;  // the L3 way hint travels along
    if (ins.victim) handle_l2_victim(core, *ins.victim);
  }
  // Clean lines not present in L2 are dropped: the inclusive L3 has a copy.
}

void CoherenceEngine::handle_l2_victim(int core, const CacheEntry& victim) {
  metric(is_dirty(victim.state) ? MC::kL2VictimDirty : MC::kL2VictimCleanSilent);
  obs_transition(obs::Level::kL2, core, victim.line, victim.state,
                 obs::LineOp::kEvict, Mesif::kInvalid);
  // Clean (E/S/F) lines are evicted *silently*: the core-valid bit in the
  // L3 stays set, which later forces a useless core snoop (the paper's
  // E-state latency penalty).  Only a dirty victim reaches the L3.
  if (is_dirty(victim.state)) {
    // Write back to the L3: refreshes the data and clears the core-valid
    // bit (paper §VI-A: "the write back to the L3 also clears the core
    // valid bit") — unless the core's L1 still holds the line (an L2
    // capacity victim of a non-inclusive L2), in which case the CBo must
    // keep tracking the core.
    const int node = m_.topo.node_of_core(core);
    const int socket = m_.topo.socket_of_core(core);
    CacheArray& l3 = m_.l3_slice(socket, m_.slice_for(node, victim.line));
    // The victim's payload is the L3 way fill_caches recorded: one way
    // record to check instead of a set probe (at_way verifies it).
    if (const CacheArray::Ref entry = l3.at_way(victim.line, victim.payload)) {
      // An already-dirty-shared L3 entry (Owned) keeps its sharing state;
      // a clean entry takes the victim's dirty state (Modified, or Owned
      // under MOESI/Dragon where sharers survive).
      if (!is_dirty(entry.state())) {
        obs_transition(obs::Level::kL3, node, victim.line, entry.state(),
                       obs::LineOp::kWriteback, victim.state);
        entry.state() = victim.state;
      }
      if (!m_.cores[static_cast<std::size_t>(core)].l1.contains(victim.line)) {
        entry.core_valid() &= ~bit_of(m_.topo.local_core(core));
      }
    } else {
      obs_transition(obs::Level::kL3, node, victim.line, Mesif::kInvalid,
                     obs::LineOp::kWriteback, victim.state);
      auto ins = l3.insert(victim.line, victim.state);
      if (ins.victim) handle_l3_victim(socket, node, *ins.victim);
    }
  }
}

void CoherenceEngine::handle_l3_victim(int socket, int node,
                                       const CacheEntry& victim) {
  m_.counters.bump(Ctr::kL3Evictions);
  obs_transition(obs::Level::kL3, node, victim.line, victim.state,
                 obs::LineOp::kEvict, Mesif::kInvalid);
  // Inclusive L3: back-invalidate every core copy in this node.  Owned
  // victims (MOESI/Dragon) pay their deferred writeback here.
  bool dirty = is_dirty(victim.state);
  std::uint32_t cv = victim.core_valid;
  while (cv != 0) {
    const int owner_local = std::countr_zero(cv);
    cv &= cv - 1;
    dirty |= invalidate_core(m_.topo.global_core(socket, owner_local),
                             victim.line, obs::LineOp::kEvict);
  }
  metric(dirty ? MC::kL3VictimDirty : MC::kL3VictimCleanSilent);
  if (dirty) {
    // Explicit writeback: the home agent learns the exclusive copy is gone.
    writeback(victim.line, /*clears_directory=*/true);
  }
  // Clean evictions are silent: if the line was homed in another node, the
  // in-memory directory keeps saying snoop-all (Table V's stale-directory
  // broadcast penalty).
}

void CoherenceEngine::fill_caches(int core, LineAddr line, const Fill& fill,
                                  obs::LineOp op) {
  const int node = m_.topo.node_of_core(core);
  const int socket = m_.topo.socket_of_core(core);
  const int local = m_.topo.local_core(core);

  CacheArray& l3 = m_.l3_slice(socket, m_.slice_for(node, line));
  CacheArray::Ref in_l3 = l3.lookup(line);
  if (in_l3) {
    in_l3.core_valid() |= bit_of(local);
  } else {
    obs_transition(obs::Level::kL3, node, line, Mesif::kInvalid, op,
                   fill.node_state);
    auto ins = l3.insert(line, fill.node_state);
    in_l3 = ins.entry;
    if (ins.victim) handle_l3_victim(socket, node, *ins.victim);
    in_l3.core_valid() = bit_of(local);
  }
  // The core copies keep their L3 way in the payload byte, which nothing
  // else uses below the L3, so a dirty L2 victim finds its L3 entry
  // without a set probe (handle_l2_victim).
  const std::uint8_t l3_way = l3.way_index(in_l3);

  CoreCaches& cc = m_.cores[static_cast<std::size_t>(core)];
  if (const CacheArray::Ref in_l2 = cc.l2.lookup(line)) {
    obs_transition(obs::Level::kL2, core, line, in_l2.state(), op,
                   fill.core_state);
    in_l2.state() = fill.core_state;
    in_l2.payload() = l3_way;
  } else {
    obs_transition(obs::Level::kL2, core, line, Mesif::kInvalid, op,
                   fill.core_state);
    auto ins = cc.l2.insert(line, fill.core_state);
    ins.entry.payload() = l3_way;
    if (ins.victim) handle_l2_victim(core, *ins.victim);
  }
  if (!cc.l1.contains(line)) {
    obs_transition(obs::Level::kL1, core, line, Mesif::kInvalid, op,
                   fill.core_state);
    auto ins = cc.l1.insert(line, fill.core_state);
    ins.entry.payload() = l3_way;
    if (ins.victim) handle_l1_victim(core, *ins.victim);
  } else if (is_dirty(fill.core_state)) {
    const CacheArray::Ref e1 = cc.l1.lookup(line);
    obs_transition(obs::Level::kL1, core, line, e1.state(), op,
                   fill.core_state);
    e1.state() = fill.core_state;
  }
}

// --- read ----------------------------------------------------------------------

AccessResult CoherenceEngine::read(int core, PhysAddr addr) {
  AccessResult result;
  if (tracer_ == nullptr) {
    result = read_impl(core, addr);
  } else {
    tracer_->begin_access('R', core, line_of(addr));
    result = read_impl(core, addr);
    result.attribution = tracer_->end_access(result.ns, to_string(result.source));
  }
  if (m_.metrics != nullptr) metrics_access(result.ns);
  if (m_.linestats != nullptr) {
    m_.linestats->on_access(core, line_of(addr), /*is_write=*/false, result.ns);
  }
  return result;
}

AccessResult CoherenceEngine::read_impl(int core, PhysAddr addr) {
  const LineAddr line = line_of(addr);
  const int req_node = m_.topo.node_of_core(core);
  CoreCaches& cc = m_.cores[static_cast<std::size_t>(core)];

  auto shared_hit_needs_l3 = [&](Mesif state) {
    if (!pol_.has_forward || state != Mesif::kShared) return false;
    // Reading a Shared line whose Forward copy lives in another node
    // notifies the responsible CA to reclaim the forward state (paper
    // Table IV / Fig. 9): the access costs a full L3 round trip.  Only
    // MESIF has a forward state to reclaim.
    const int socket = m_.topo.socket_of_core(core);
    const CacheArray& l3 =
        m_.l3[static_cast<std::size_t>(socket)]
            [static_cast<std::size_t>(m_.slice_for(req_node, line))];
    const std::optional<CacheEntry> entry = l3.peek(line);
    return entry && entry->state == Mesif::kShared;
  };

  if (const CacheArray::Ref e1 = cc.l1.lookup(line)) {
    if (shared_hit_needs_l3(e1.state())) {
      m_.counters.bump(Ctr::kLoadsL3Hit);
      trace_l3_path(core);
      return {l3_path(core), ServiceSource::kL3, req_node, nullptr};
    }
    m_.counters.bump(Ctr::kLoadsL1Hit);
    if (tracer_ != nullptr) {
      tracer_->leaf(TComp::kCore, "l1_hit", m_.timing.l1_hit);
    }
    return {m_.timing.l1_hit, ServiceSource::kL1, req_node, nullptr};
  }
  if (const CacheArray::Ref e2 = cc.l2.lookup(line)) {
    if (shared_hit_needs_l3(e2.state())) {
      m_.counters.bump(Ctr::kLoadsL3Hit);
      trace_l3_path(core);
      return {l3_path(core), ServiceSource::kL3, req_node, nullptr};
    }
    obs_transition(obs::Level::kL1, core, line, Mesif::kInvalid,
                   obs::LineOp::kLocalRead, e2.state());
    auto ins = cc.l1.insert(line, e2.state());
    ins.entry.payload() = e2.payload();  // the L3 way hint
    if (ins.victim) handle_l1_victim(core, *ins.victim);
    m_.counters.bump(Ctr::kLoadsL2Hit);
    if (tracer_ != nullptr) {
      tracer_->leaf(TComp::kCore, "l2_hit", m_.timing.l2_hit);
    }
    return {m_.timing.l2_hit, ServiceSource::kL2, req_node, nullptr};
  }

  Fill fill = ca_read(core, line);
  fill_caches(core, line, fill, obs::LineOp::kLocalRead);
  switch (fill.source) {
    case ServiceSource::kL3:
    case ServiceSource::kCoreFwd:
      m_.counters.bump(Ctr::kLoadsL3Hit);
      break;
    case ServiceSource::kRemoteFwd:
      m_.counters.bump(Ctr::kLoadsRemoteFwd);
      break;
    case ServiceSource::kLocalDram:
      m_.counters.bump(Ctr::kLoadsLocalDram);
      break;
    case ServiceSource::kRemoteDram:
      m_.counters.bump(Ctr::kLoadsRemoteDram);
      break;
    default:
      break;
  }
  return {fill.ns, fill.source, fill.source_node, nullptr};
}

CoherenceEngine::Fill CoherenceEngine::ca_read(int core, LineAddr line) {
  const int req_node = m_.topo.node_of_core(core);
  const int socket = m_.topo.socket_of_core(core);
  const int local = m_.topo.local_core(core);
  CacheArray& l3 = m_.l3_slice(socket, m_.slice_for(req_node, line));

  Fill fill;
  fill.ns = l3_path(core);
  fill.source = ServiceSource::kL3;
  fill.source_node = req_node;
  fill.core_state = Mesif::kShared;

  if (const CacheArray::Ref entry = l3.lookup(line)) {
    trace_l3_path(core);
    const std::uint32_t owners = entry.core_valid() & ~bit_of(local);
    const bool multi = std::popcount(entry.core_valid()) > 1;
    if (pol_.snoop_read(entry.state()).may_hold_newer &&
        m_.features.core_valid_bits && owners != 0 && !multi) {
      // A single other core may hold the line Modified (stores upgrade E->M
      // silently) — and exclusive lines are evicted silently, so the bit may
      // be stale.  Either way the CA must snoop (44.4 ns case).
      const int owner_local = std::countr_zero(owners);
      const int owner = m_.topo.global_core(socket, owner_local);
      fill.ns += m_.timing.core_snoop_local;
      if (tracer_ != nullptr) {
        tracer_->leaf(TComp::kCoreSnoop, "core_snoop_local",
                      m_.timing.core_snoop_local);
      }
      CoreSnoop cs = snoop_core(owner, line, Mesif::kShared,
                                obs::LineOp::kSnoopRead);
      if (cs.dirty) {
        fill.ns += cs.data_ns;
        if (tracer_ != nullptr) {
          tracer_->leaf(TComp::kCore, "core_data_extract", cs.data_ns);
        }
        obs_transition(obs::Level::kL3, req_node, line, entry.state(),
                       obs::LineOp::kLocalRead, Mesif::kModified);
        entry.state() = Mesif::kModified;  // L3 refreshed with dirty data
        fill.source = ServiceSource::kCoreFwd;
      }
    }
    entry.core_valid() |= bit_of(local);
    fill.node_state = entry.state();
    return fill;
  }
  return home_read(core, req_node, line);
}

CoherenceEngine::Fill CoherenceEngine::home_read(int core, int req_node,
                                                 LineAddr line) {
  const TimingParams& t = m_.timing;
  auto home = m_.home_of(line);
  const int h = home.node;
  const double lat0 = l3_path(core);
  trace_l3_path(core);

  Fill fill;
  fill.core_state = Mesif::kShared;
  fill.node_state = pol_.clean_shared_grant;

  // Peer nodes other than requester and home.
  const NodeList peers = nodes_except(m_.topo.node_count(), req_node, h);

  const double t_req_at_ha =
      lat0 + m_.request_to_ha(req_node, h) + t.ca_to_ha_fixed;
  metric_request_to_ha(req_node, h);

  // Completion helpers.
  auto served_by_memory = [&](double ready_ns) {
    if (tracer_ != nullptr) {
      trace_link("data_return", h, req_node);
      tracer_->leaf(TComp::kCbo, "response_return", t.response_return);
    }
    send(h, req_node, Msg::kData);
    fill.ns = ready_ns + m_.link_ns(h, req_node) + t.response_return;
    fill.source = h == req_node ? ServiceSource::kLocalDram
                                : ServiceSource::kRemoteDram;
    fill.source_node = h;
  };
  auto served_by_forward = [&](double data_sent_ns, int from_node) {
    if (tracer_ != nullptr) {
      trace_link("cache_fwd", from_node, req_node);
      tracer_->leaf(TComp::kCbo, "cache_fwd_return", t.cache_fwd_return);
    }
    send(from_node, req_node, Msg::kData);
    fill.ns = data_sent_ns + m_.link_ns(from_node, req_node) + t.cache_fwd_return;
    fill.source = from_node == req_node ? ServiceSource::kL3
                                        : ServiceSource::kRemoteFwd;
    fill.source_node = from_node;
  };
  // `memory_valid` says whether the home memory copy is authoritative after
  // the forward: true when the supplier was clean or wrote back while
  // demoting (always, under MESIF/MESI), false for an Owned dirty forward
  // (MOESI/Dragon) — then neither the HitME cache (whose hit path serves
  // from memory) nor the directory's `shared` state may claim validity.
  auto record_forward_state = [&](int forwarder_node, bool memory_valid) {
    fill.node_state = pol_.clean_shared_grant;
    if (directory_on() && req_node != h) {
      // AllocateShared: a line handed to a remote node in forward/shared
      // state enters the HitME cache; the in-memory directory goes snoop-all.
      if (hitme_on() && memory_valid) {
        const auto presence = static_cast<std::uint8_t>(
            (1u << static_cast<unsigned>(req_node)) |
            (1u << static_cast<unsigned>(forwarder_node)));
        if (auto prior = home.ha->hitme.lookup(line)) {
          home.ha->hitme.put(line, prior->presence | presence);
        } else {
          if (home.ha->hitme.put(line, presence)) {
            m_.counters.bump(Ctr::kHitmeEvict);
          }
          m_.counters.bump(Ctr::kHitmeAlloc);
        }
        if (tracer_ != nullptr) tracer_->leaf(TComp::kHitme, "hitme_track", 0.0);
      }
      // Classic DAS without a directory cache: clean forwards record the
      // `shared` state, which keeps the memory copy authoritative.  With
      // HitME, or after a dirty Owned forward (stale memory), the directory
      // goes snoop-all.  The directory ECC write happens in the background
      // here: the data comes cache-to-cache from the forwarder, so the HA's
      // state update is not on the requester's critical path (unlike
      // memory grants).
      const DirState next = (!hitme_on() && memory_valid)
                                ? DirState::kShared
                                : DirState::kSnoopAll;
      set_directory(home, line, next, DirWrite::kBackground);
    }
  };
  auto record_memory_grant = [&](bool exclusive) {
    fill.node_state = exclusive ? Mesif::kExclusive : Mesif::kShared;
    fill.core_state = exclusive ? Mesif::kExclusive : Mesif::kShared;
    if (directory_on() && req_node != h) {
      fill.ns += set_directory(home, line, DirState::kSnoopAll, DirWrite::kEcc);
    }
  };
  // A peer's forward ended the broadcast race.
  auto served_by_winner = [&](const Race& race) {
    if (tracer_ != nullptr) tracer_->close_parallel(TJoin::kWinner);
    served_by_forward(race.data_sent_ns, race.winner);
    record_forward_state(race.winner, !race.dirty_forward);
    return fill;
  };

  if (!directory_on()) {
    // ---- snoopy modes (source snoop / home snoop without directory) -------
    // The home node's CA is a snoop target like any other peer, first.
    // Source snoop broadcasts from the requester CA at lat0, racing the
    // request to the HA; home snoop broadcasts from the HA after it
    // received and processed the request (the paper's "delayed snoop
    // broadcast").  Either way the responses race the DRAM read.
    NodeList snooped;
    if (h != req_node) snooped.push_back(h);
    for (int p : peers) snooped.push_back(p);

    const bool from_requester = source_snoop();
    const double snoop_base = t_req_at_ha + t.ha_processing;
    if (!from_requester) trace_ha_entry(req_node, h);
    if (tracer_ != nullptr) {
      tracer_->open_parallel(from_requester ? "source_snoop_race"
                                            : "home_snoop_race");
    }
    // Two calls, so each inlined copy folds its constant parameters (one
    // call with the parameters picked at run time measured ~4% slower on
    // perfbench latency_sweep).
    const Race race =
        from_requester
            ? broadcast(snooped, line, h,
                        {obs::LineOp::kSnoopRead, req_node, lat0, t_req_at_ha,
                         std::nullopt, std::nullopt})
            : broadcast(snooped, line, h,
                        {obs::LineOp::kSnoopRead, h, snoop_base, snoop_base,
                         t.broadcast_fanout, std::nullopt});
    if (race.winner >= 0) return served_by_winner(race);
    if (tracer_ != nullptr) tracer_->open_leg("memory");
    if (from_requester) trace_ha_entry(req_node, h);
    const double dram_ready = t_req_at_ha + t.ha_processing + dram_read(home);
    if (tracer_ != nullptr) {
      tracer_->close_leg();
      tracer_->close_parallel(TJoin::kAll);
    }
    served_by_memory(std::max(dram_ready, race.slowest));
    record_memory_grant(/*exclusive=*/!race.any_shared);
    if (race.any_shared) fill.node_state = pol_.clean_shared_grant;
    return fill;
  }

  // ---- directory-assisted home snoop (COD) ---------------------------------
  trace_ha_entry(req_node, h);
  // 1. The home node's CA is snooped locally, independent of the directory
  //    state (Moga et al.; paper §VI-C).  The in-memory directory only
  //    tracks copies *outside* the home node, so a Shared copy found here
  //    must veto any exclusive grant below.
  bool home_had_shared = false;
  if (h != req_node) {
    if (tracer_ != nullptr) {
      tracer_->open_parallel("home_node_ca_snoop");
      tracer_->open_leg(kNodeName[h]);
      tracer_->open_group(TComp::kCbo, "peer_ca_handling");
    }
    const PeerSnoop local_snoop = snoop_peer(h, line, obs::LineOp::kSnoopRead);
    if (tracer_ != nullptr) {
      tracer_->close_group(local_snoop.handling_ns);
      tracer_->close_leg();
    }
    if (local_snoop.forwarded) {
      if (tracer_ != nullptr) tracer_->close_parallel(TJoin::kWinner);
      const double data_at =
          t_req_at_ha + t.ha_processing + local_snoop.handling_ns;
      served_by_forward(data_at, h);
      record_forward_state(h, !local_snoop.dirty_forward);
      return fill;
    }
    // The local CA had nothing to forward: its lookup ran in the HA's
    // shadow, off the critical path.
    if (tracer_ != nullptr) tracer_->close_parallel(TJoin::kNone);
    home_had_shared = local_snoop.had_shared;
  }

  // 2. HitME probe.
  if (tracer_ != nullptr) {
    tracer_->leaf(TComp::kHitme, "hitme_lookup", t.hitme_lookup);
  }
  const double probe_done = t_req_at_ha + t.ha_processing + t.hitme_lookup;
  if (hitme_on()) {
    if (auto entry = home.ha->hitme.lookup(line)) {
      // Clean-shared migratory line: the memory copy is valid; forward it
      // without waiting for snoop responses.
      m_.counters.bump(Ctr::kHitmeHit);
      metric(MC::kHaBypass);
      if (tracer_ != nullptr) {
        tracer_->leaf(TComp::kHitme, "hitme_hit", 0.0);
        tracer_->open_parallel("hitme_shortcut");
        tracer_->open_leg("memory");
      }
      const double dram_ready = probe_done + dram_read(home) - t.ha_bypass_savings;
      if (tracer_ != nullptr) {
        tracer_->leaf(TComp::kHa, "ha_bypass_savings", -t.ha_bypass_savings);
        tracer_->close_leg();
        tracer_->close_parallel(TJoin::kAll);
      }
      served_by_memory(std::max(dram_ready, probe_done));
      home.ha->hitme.put(
          line, static_cast<std::uint8_t>(
                    entry->presence | (1u << static_cast<unsigned>(req_node))));
      record_memory_grant(/*exclusive=*/false);
      return fill;
    }
    m_.counters.bump(Ctr::kHitmeMiss);
  }

  // 3. In-memory directory: available only once the DRAM read returns
  //    (the 2-bit state lives in the ECC bits of the data).
  m_.counters.bump(Ctr::kDirectoryLookups);
  const double dram_ready = probe_done + dram_read(home);
  const DirState dir = home.ha->directory.get(line);
  if (dir == DirState::kRemoteInvalid) {
    metric(MC::kHaBypass);
    if (tracer_ != nullptr) {
      tracer_->leaf(TComp::kDirectory, "dir_remote_invalid", 0.0);
      tracer_->leaf(TComp::kHa, "ha_bypass_savings", -t.ha_bypass_savings);
    }
    served_by_memory(dram_ready - t.ha_bypass_savings);
    record_memory_grant(/*exclusive=*/!home_had_shared);
    if (home_had_shared) fill.node_state = pol_.clean_shared_grant;
    return fill;
  }
  if (dir == DirState::kShared) {
    // Classic DAS shared state (no-HitME ablation): memory copy valid.
    metric(MC::kHaBypass);
    if (tracer_ != nullptr) {
      tracer_->leaf(TComp::kDirectory, "dir_shared", 0.0);
      tracer_->leaf(TComp::kHa, "ha_bypass_savings", -t.ha_bypass_savings);
    }
    served_by_memory(dram_ready - t.ha_bypass_savings);
    record_memory_grant(/*exclusive=*/false);
    return fill;
  }

  // snoop-all: broadcast to the remaining peers, *after* the directory
  // lookup completed (this is the Table V stale-directory penalty).
  metric(MC::kHaSnoopAllBroadcast);
  if (tracer_ != nullptr) {
    tracer_->leaf(TComp::kDirectory, "dir_snoop_all", 0.0);
    tracer_->open_parallel("stale_directory_broadcast");
  }
  const Race race =
      broadcast(peers, line, h,
                {obs::LineOp::kSnoopRead, h, dram_ready, dram_ready,
                 t.broadcast_fanout, t.three_node_penalty});
  if (race.winner >= 0) return served_by_winner(race);
  // Nobody answered: the directory was stale (silent L3 evictions).  Serve
  // from memory after the HA has collected and processed all responses.
  metric(MC::kHaStaleBroadcast);
  if (tracer_ != nullptr) {
    tracer_->close_parallel(TJoin::kAll);
    tracer_->leaf(TComp::kHa, "broadcast_collect",
                  t.broadcast_collect * static_cast<double>(peers.size()));
  }
  const bool any_shared = home_had_shared || race.any_shared;
  served_by_memory(race.slowest +
                   t.broadcast_collect * static_cast<double>(peers.size()));
  record_memory_grant(/*exclusive=*/!any_shared);
  if (any_shared) fill.node_state = pol_.clean_shared_grant;
  return fill;
}

// --- write ---------------------------------------------------------------------

AccessResult CoherenceEngine::write(int core, PhysAddr addr) {
  AccessResult result;
  if (tracer_ == nullptr) {
    result = write_impl(core, addr);
  } else {
    tracer_->begin_access('W', core, line_of(addr));
    result = write_impl(core, addr);
    result.attribution = tracer_->end_access(result.ns, to_string(result.source));
  }
  if (m_.metrics != nullptr) metrics_access(result.ns);
  if (m_.linestats != nullptr) {
    m_.linestats->on_access(core, line_of(addr), /*is_write=*/true, result.ns);
  }
  return result;
}

AccessResult CoherenceEngine::write_impl(int core, PhysAddr addr) {
  const LineAddr line = line_of(addr);
  const int req_node = m_.topo.node_of_core(core);
  CoreCaches& cc = m_.cores[static_cast<std::size_t>(core)];

  if (const CacheArray::Ref e1 = cc.l1.lookup(line)) {
    if (pol_.store_silent(e1.state())) {
      // Silent E->M upgrade: the L3 still believes the line is Exclusive.
      obs_transition(obs::Level::kL1, core, line, e1.state(),
                     obs::LineOp::kLocalStore,
                     pol_.next(e1.state(), protocol::Op::kLocalStore));
      e1.state() = pol_.next(e1.state(), protocol::Op::kLocalStore);
      m_.counters.bump(Ctr::kLoadsL1Hit);
      if (tracer_ != nullptr) {
        tracer_->leaf(TComp::kCore, "l1_store_upgrade", m_.timing.l1_hit);
      }
      return {m_.timing.l1_hit, ServiceSource::kL1, req_node, nullptr};
    }
  } else if (const CacheArray::Ref e2 = cc.l2.lookup(line)) {
    if (pol_.store_silent(e2.state())) {
      // Net L2 effect of the upgrade: the newest copy moves to L1 and the
      // L2 keeps a Shared shadow.
      obs_transition(obs::Level::kL2, core, line, e2.state(),
                     obs::LineOp::kLocalStore, Mesif::kShared);
      e2.state() = pol_.next(e2.state(), protocol::Op::kLocalStore);
      obs_transition(obs::Level::kL1, core, line, Mesif::kInvalid,
                     obs::LineOp::kLocalStore, Mesif::kModified);
      auto ins = cc.l1.insert(line, Mesif::kModified);
      ins.entry.payload() = e2.payload();  // the L3 way hint
      if (ins.victim) handle_l1_victim(core, *ins.victim);
      cc.l2.lookup(line).state() = Mesif::kShared;  // newest copy now in L1
      m_.counters.bump(Ctr::kLoadsL2Hit);
      if (tracer_ != nullptr) {
        tracer_->leaf(TComp::kCore, "l2_store_upgrade", m_.timing.l2_hit);
      }
      return {m_.timing.l2_hit, ServiceSource::kL2, req_node, nullptr};
    }
  }

  // Shared or missing: read-for-ownership through the CA — or, under an
  // update-based protocol (Dragon), an update broadcast that leaves every
  // sharer's copy in place.
  if (pol_.update_based) {
    Fill fill = ca_update(core, line);
    fill_caches(core, line, fill, obs::LineOp::kLocalStore);
    return {fill.ns, fill.source, fill.source_node, nullptr};
  }
  Fill fill = ca_write(core, line);
  fill.core_state = Mesif::kModified;
  fill_caches(core, line, fill, obs::LineOp::kLocalStore);
  return {fill.ns, fill.source, fill.source_node, nullptr};
}

CoherenceEngine::Fill CoherenceEngine::ca_write(int core, LineAddr line) {
  const int req_node = m_.topo.node_of_core(core);
  const int socket = m_.topo.socket_of_core(core);
  const int local = m_.topo.local_core(core);
  CacheArray& l3 = m_.l3_slice(socket, m_.slice_for(req_node, line));

  Fill fill;
  fill.ns = l3_path(core);
  fill.source = ServiceSource::kL3;
  fill.source_node = req_node;
  fill.node_state = Mesif::kExclusive;

  if (const CacheArray::Ref entry = l3.lookup(line)) {
    if (pol_.owns(entry.state())) {
      // Node already owns the line: invalidate other in-node core copies.
      trace_l3_path(core);
      std::uint32_t others = entry.core_valid() & ~bit_of(local);
      if (others != 0) {
        fill.ns += m_.timing.core_snoop_local;
        if (tracer_ != nullptr) {
          tracer_->leaf(TComp::kCoreSnoop, "core_snoop_local",
                        m_.timing.core_snoop_local);
        }
        bool dirty = false;
        while (others != 0) {
          const int owner_local = std::countr_zero(others);
          others &= others - 1;
          dirty |= invalidate_core(m_.topo.global_core(socket, owner_local),
                                   line, obs::LineOp::kSnoopInvalidate);
        }
        if (dirty) {
          obs_transition(obs::Level::kL3, req_node, line, entry.state(),
                         obs::LineOp::kLocalStore, Mesif::kModified);
          entry.state() = Mesif::kModified;
        }
      }
      entry.core_valid() = bit_of(local);
      fill.node_state = entry.state();
      return fill;
    }
    // Shared/Forward at node level: other nodes may hold copies — obtain
    // global ownership through the home agent, then upgrade in place.
    std::uint32_t local_sharers = entry.core_valid() & ~bit_of(local);
    while (local_sharers != 0) {
      const int owner_local = std::countr_zero(local_sharers);
      local_sharers &= local_sharers - 1;
      invalidate_core(m_.topo.global_core(socket, owner_local), line,
                      obs::LineOp::kSnoopInvalidate);
    }
    Fill upgrade = home_write(core, req_node, line);
    if (const CacheArray::Ref still = l3.lookup(line)) {
      obs_transition(obs::Level::kL3, req_node, line, still.state(),
                     obs::LineOp::kLocalStore, Mesif::kExclusive);
      still.state() = Mesif::kExclusive;
      still.core_valid() = bit_of(local);
    }
    upgrade.node_state = Mesif::kExclusive;
    return upgrade;
  }
  return home_write(core, req_node, line);
}

CoherenceEngine::Fill CoherenceEngine::home_write(int core, int req_node,
                                                  LineAddr line) {
  const TimingParams& t = m_.timing;
  auto home = m_.home_of(line);
  const int h = home.node;
  const double lat0 = l3_path(core);
  trace_l3_path(core);

  Fill fill;
  fill.core_state = Mesif::kModified;
  fill.node_state = Mesif::kExclusive;

  const NodeList snooped = nodes_except(m_.topo.node_count(), req_node, req_node);

  const double t_req_at_ha =
      lat0 + m_.request_to_ha(req_node, h) + t.ca_to_ha_fixed;
  metric_request_to_ha(req_node, h);

  // Invalidate every other node's copies; the slowest acknowledgement and
  // the DRAM read (for the data) gate completion.  In source snoop the
  // invalidations launch from the requester CA; otherwise from the HA.
  const bool from_requester = source_snoop() && !directory_on();
  if (!from_requester) trace_ha_entry(req_node, h);
  if (tracer_ != nullptr) tracer_->open_parallel("ownership_race");
  const Race race = broadcast(
      snooped, line, h,
      {obs::LineOp::kSnoopInvalidate, from_requester ? req_node : h,
       from_requester ? lat0 : t_req_at_ha + t.ha_processing, t_req_at_ha,
       t.broadcast_fanout, std::nullopt});

  if (tracer_ != nullptr) tracer_->open_leg("memory");
  if (from_requester) trace_ha_entry(req_node, h);
  const double dram_ready = t_req_at_ha + t.ha_processing + dram_read(home);
  if (tracer_ != nullptr) {
    tracer_->close_leg();
    tracer_->close_parallel(TJoin::kAll);
    trace_link("data_return", h, req_node);
    tracer_->leaf(TComp::kCbo, "response_return", t.response_return);
  }
  send(h, req_node, Msg::kData);
  fill.ns = std::max(dram_ready, race.slowest) + m_.link_ns(h, req_node) +
            t.response_return;
  fill.source = h == req_node ? ServiceSource::kLocalDram
                              : ServiceSource::kRemoteDram;
  fill.source_node = h;
  if (race.dirty_node >= 0) {
    // A peer handed over its dirty data: that peer supplied the line.
    fill.source = ServiceSource::kRemoteFwd;
    fill.source_node = race.dirty_node;
  }

  if (directory_on()) {
    const DirState next =
        req_node == h ? DirState::kRemoteInvalid : DirState::kSnoopAll;
    // The in-memory directory lives in the line's ECC bits: the HA must
    // schedule the state write before completing the ownership grant.
    fill.ns += set_directory(home, line, next, DirWrite::kEcc);
    if (hitme_on()) home.ha->hitme.erase(line);
  }
  return fill;
}

// --- update-based store (Dragon) -------------------------------------------------

CoherenceEngine::Fill CoherenceEngine::ca_update(int core, LineAddr line) {
  const int req_node = m_.topo.node_of_core(core);
  const int socket = m_.topo.socket_of_core(core);
  const int local = m_.topo.local_core(core);
  CacheArray& l3 = m_.l3_slice(socket, m_.slice_for(req_node, line));

  // Dragon write-allocates: a store miss first fills the line like a read,
  // then runs the update against the now-present copy.
  double miss_ns = 0.0;
  ServiceSource miss_source = ServiceSource::kL3;
  int miss_source_node = req_node;
  bool missed = false;
  if (!l3.lookup(line, /*touch=*/false)) {
    Fill read_fill = ca_read(core, line);
    fill_caches(core, line, read_fill, obs::LineOp::kLocalRead);
    miss_ns = read_fill.ns;
    miss_source = read_fill.source;
    miss_source_node = read_fill.source_node;
    missed = true;
  }

  const CacheArray::Ref entry = l3.lookup(line);
  assert(entry && "write-allocate must leave an L3 entry behind");
  std::uint32_t others = entry.core_valid() & ~bit_of(local);

  if (pol_.owns(entry.state())) {
    // Node-exclusive: no other node holds a copy, so the update never
    // leaves the node.  Mirrors the owned path of ca_write, except in-node
    // sharers keep their (refreshed, Shared) copies instead of dying.
    // After a fill the L3 path is one term of the sum, so one group span.
    if (missed && tracer_ != nullptr) {
      tracer_->open_group(TComp::kCbo, "l3_after_fill");
    }
    trace_l3_path(core);
    if (missed && tracer_ != nullptr) tracer_->close_group(l3_path(core));
    Fill fill;
    fill.ns = miss_ns + l3_path(core);
    fill.source = missed ? miss_source : ServiceSource::kL3;
    fill.source_node = missed ? miss_source_node : req_node;
    if (others != 0) {
      fill.ns += m_.timing.core_snoop_local;
      if (tracer_ != nullptr) {
        tracer_->leaf(TComp::kCoreSnoop, "core_snoop_local",
                      m_.timing.core_snoop_local);
      }
      std::uint32_t sharers = others;
      while (sharers != 0) {
        const int owner_local = std::countr_zero(sharers);
        sharers &= sharers - 1;
        snoop_core(m_.topo.global_core(socket, owner_local), line,
                   Mesif::kShared, obs::LineOp::kSnoopUpdate);
        m_.counters.bump(Ctr::kUpdatesSent);
      }
    }
    obs_transition(obs::Level::kL3, req_node, line, entry.state(),
                   obs::LineOp::kLocalStore, Mesif::kModified);
    entry.state() = Mesif::kModified;
    entry.core_valid() |= bit_of(local);
    fill.node_state = entry.state();
    fill.core_state = others != 0 ? Mesif::kOwned : Mesif::kModified;
    return fill;
  }

  // Copies may exist in other nodes: broadcast the update through the HA.
  // After a fill the update's ns is one term of the sum, so its spans form
  // one group (IEEE addition commutes: fill + update == update + fill).
  if (missed && tracer_ != nullptr) {
    tracer_->open_group(TComp::kHa, "update_after_fill");
  }
  Fill fill = home_update(core, req_node, line);
  if (missed && tracer_ != nullptr) tracer_->close_group(fill.ns);
  fill.ns += miss_ns;
  if (missed) {
    fill.source = miss_source;
    fill.source_node = miss_source_node;
  }
  return fill;
}

CoherenceEngine::Fill CoherenceEngine::home_update(int core, int req_node,
                                                   LineAddr line) {
  const TimingParams& t = m_.timing;
  auto home = m_.home_of(line);
  const int h = home.node;
  const double lat0 = l3_path(core);
  trace_l3_path(core);

  const int socket = m_.topo.socket_of_core(core);
  const int local = m_.topo.local_core(core);
  CacheArray& l3 = m_.l3_slice(socket, m_.slice_for(req_node, line));

  Fill fill;
  fill.source = ServiceSource::kL3;
  fill.source_node = req_node;

  const NodeList snooped = nodes_except(m_.topo.node_count(), req_node, req_node);

  const double t_req_at_ha =
      lat0 + m_.request_to_ha(req_node, h) + t.ca_to_ha_fixed;
  metric_request_to_ha(req_node, h);

  // The update rides the same transport as an invalidation broadcast — but
  // it carries the line's data, peers keep their copies, and no DRAM data
  // read gates completion (the writer supplies the data).
  const bool from_requester = source_snoop() && !directory_on();
  if (!from_requester) trace_ha_entry(req_node, h);
  if (tracer_ != nullptr) tracer_->open_parallel("update_race");
  const Race race = broadcast(
      snooped, line, h,
      {obs::LineOp::kSnoopUpdate, from_requester ? req_node : h,
       from_requester ? lat0 : t_req_at_ha + t.ha_processing, t_req_at_ha,
       t.broadcast_fanout, std::nullopt});
  const bool remote_copy = race.any_held;

  if (tracer_ != nullptr) tracer_->open_leg("memory");
  if (from_requester) trace_ha_entry(req_node, h);
  const double ha_ready = t_req_at_ha + t.ha_processing;
  if (tracer_ != nullptr) {
    tracer_->close_leg();
    tracer_->close_parallel(TJoin::kAll);
    trace_link("ack_return", h, req_node);
    tracer_->leaf(TComp::kCbo, "response_return", t.response_return);
  }
  send(h, req_node, Msg::kAck);
  fill.ns = std::max(ha_ready, race.slowest) + m_.link_ns(h, req_node) +
            t.response_return;

  // In-node sharers are refreshed in place like ca_write's local pass
  // (which invalidates them at no extra accounted cost).
  const CacheArray::Ref entry = l3.lookup(line);
  assert(entry && "home_update requires a present L3 entry");
  std::uint32_t others = entry.core_valid() & ~bit_of(local);
  const bool local_sharers = others != 0;
  while (others != 0) {
    const int owner_local = std::countr_zero(others);
    others &= others - 1;
    snoop_core(m_.topo.global_core(socket, owner_local), line, Mesif::kShared,
               obs::LineOp::kSnoopUpdate);
    m_.counters.bump(Ctr::kUpdatesSent);
  }
  // The writer owns the newest data.  Remote copies survive the update, so
  // the node state is Owned (dirty-shared) rather than Modified.
  obs_transition(obs::Level::kL3, req_node, line, entry.state(),
                 obs::LineOp::kLocalStore,
                 remote_copy ? Mesif::kOwned : Mesif::kModified);
  entry.state() = remote_copy ? Mesif::kOwned : Mesif::kModified;
  entry.core_valid() |= bit_of(local);
  fill.node_state = entry.state();
  fill.core_state =
      (remote_copy || local_sharers) ? Mesif::kOwned : Mesif::kModified;

  if (directory_on()) {
    // Memory is stale after an update, so `shared` is never recorded: the
    // only safe states are remote-invalid (everything lives at home) and
    // snoop-all.
    const DirState next = (req_node == h && !remote_copy)
                              ? DirState::kRemoteInvalid
                              : DirState::kSnoopAll;
    fill.ns += set_directory(home, line, next, DirWrite::kEcc);
    if (hitme_on()) home.ha->hitme.erase(line);
  }
  return fill;
}

// --- flush / placement helpers ---------------------------------------------------

double CoherenceEngine::flush_line(PhysAddr addr) {
  if (tracer_ == nullptr) return flush_impl(addr);
  tracer_->begin_access('F', /*core=*/-1, line_of(addr));
  const double ns = flush_impl(addr);
  tracer_->end_access(ns, "flush");
  return ns;
}

double CoherenceEngine::flush_impl(PhysAddr addr) {
  const LineAddr line = line_of(addr);
  bool dirty = false;
  for (const NumaNode& node : m_.topo.nodes()) {
    CacheArray& l3 = m_.l3_slice(node.socket, m_.slice_for(node.id, line));
    if (auto entry = l3.erase(line)) {
      dirty |= is_dirty(entry->state);
      obs_transition(obs::Level::kL3, node.id, line, entry->state,
                     obs::LineOp::kFlush, Mesif::kInvalid);
      std::uint32_t cv = entry->core_valid;
      while (cv != 0) {
        const int owner_local = std::countr_zero(cv);
        cv &= cv - 1;
        dirty |= invalidate_core(m_.topo.global_core(node.socket, owner_local),
                                 line, obs::LineOp::kFlush);
      }
    }
  }
  if (dirty) writeback(line, /*clears_directory=*/true);
  if (directory_on()) {
    auto home = m_.home_of(line);
    set_directory(home, line, DirState::kRemoteInvalid, DirWrite::kSilent);
    if (hitme_on()) home.ha->hitme.erase(line);
  }
  if (tracer_ != nullptr) {
    tracer_->leaf(TComp::kCbo, "flush_l3", m_.timing.l3_base);
    if (dirty) {
      tracer_->leaf(TComp::kDram, "flush_dram_write", m_.timing.dram_page_empty);
    }
  }
  return m_.timing.l3_base + (dirty ? m_.timing.dram_page_empty : 0.0);
}

void CoherenceEngine::evict_core_caches(int core) {
  CoreCaches& cc = m_.cores[static_cast<std::size_t>(core)];
  // L1 first so dirty L1 lines land in the L3 via the same path as L2 lines.
  cc.l1.flush([&](const CacheEntry& entry) { handle_l2_victim(core, entry); });
  cc.l2.flush([&](const CacheEntry& entry) { handle_l2_victim(core, entry); });
}

void CoherenceEngine::flush_node_l3(int node) {
  const NumaNode& n = m_.topo.node(node);
  for (int slice : n.local_slices) {
    m_.l3_slice(n.socket, slice).flush([&](const CacheEntry& entry) {
      handle_l3_victim(n.socket, node, entry);
    });
  }
}

}  // namespace hsw
