// Coherence transaction engine.
//
// Implements the protocol flows of paper §IV on top of MachineState:
//   * requester-side CA handling (L3 hit paths, core-valid-bit snoops),
//   * source snoop: the requester CA broadcasts snoops on an L3 miss,
//   * home snoop: the home agent snoops after receiving the request,
//   * directory-assisted mode (COD): the 2-bit in-memory directory gates
//     broadcasts — but only after the DRAM read returns it — and the HitME
//     cache short-circuits snoops for clean-shared migratory lines
//     (AllocateShared policy).
//
// Each access returns the composed latency: component costs are summed along
// the serial path and max()-ed across parallel legs (e.g. a DRAM read racing
// the snoop responses the home agent must collect).
//
// The engine is protocol-polymorphic: state transitions and response classes
// come from the ProtocolPolicy bound at construction (coh/protocol.h, chosen
// by ProtocolFeatures::protocol).  MESIF is the default and reproduces the
// original hard-coded flows bit for bit; MESI drops the Forward state, MOESI
// suppresses clean-sharer writebacks via Owned, and Dragon replaces the
// invalidation broadcast with an update broadcast.
#pragma once

#include <cstdint>

#include "coh/protocol.h"
#include "coh/state.h"
#include "obs/line_stats.h"
#include "trace/tracer.h"

namespace hsw {

enum class ServiceSource : std::uint8_t {
  kL1,          // own L1D
  kL2,          // own L2
  kL3,          // a CA in the requester's node (incl. in-node core forwards)
  kCoreFwd,     // dirty data from another core in the requester's node
  kRemoteFwd,   // cache-to-cache forward from another node
  kLocalDram,   // memory of the requester's own node
  kRemoteDram,  // memory of another node
};

[[nodiscard]] const char* to_string(ServiceSource source);

struct AccessResult {
  double ns = 0.0;
  ServiceSource source = ServiceSource::kL1;
  int source_node = 0;  // node that supplied the data
  // Per-component latency breakdown of this access.  nullptr unless a tracer
  // is attached to the engine; points into the tracer and stays valid until
  // its next access.  Serial span costs sum, parallel legs max: the breakdown
  // recomposes to `ns` exactly (see trace/span.h).
  const trace::AccessAttribution* attribution = nullptr;
};

class CoherenceEngine {
 public:
  explicit CoherenceEngine(MachineState& machine)
      : m_(machine), pol_(protocol::policy(machine.features.protocol)) {}

  // A demand load of one cache line by `core`.
  AccessResult read(int core, PhysAddr addr);
  // A store (read-for-ownership if needed); line ends Modified in the core.
  AccessResult write(int core, PhysAddr addr);
  // clflush semantics: the line leaves every cache in the system, dirty data
  // is written back to the home memory, directory returns to remote-invalid.
  double flush_line(PhysAddr addr);

  // Placement helpers used by the benchmark kit -----------------------------
  // Drains `core`'s L1+L2 into its node's L3: dirty lines write back (which
  // clears the core-valid bit), clean lines are dropped *silently* (the
  // core-valid bit stays set — the source of the paper's E-state penalty).
  void evict_core_caches(int core);
  // Evicts every line from a node's L3 slices: dirty lines write back to
  // their home memory; clean lines are dropped silently, which leaves stale
  // snoop-all directory state behind (the paper's Table V effect).
  void flush_node_l3(int node);

  // Attaches a tracer (nullptr detaches).  With a tracer the engine emits a
  // span tree per access naming the protocol components on the critical path;
  // without one the only added cost per flow is a null-pointer check.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] trace::Tracer* tracer() const { return tracer_; }

 private:
  AccessResult read_impl(int core, PhysAddr addr);
  AccessResult write_impl(int core, PhysAddr addr);
  double flush_impl(PhysAddr addr);
  struct Fill {
    double ns = 0.0;             // from the start of the CA transaction
    Mesif core_state = Mesif::kShared;
    Mesif node_state = Mesif::kShared;  // state for the requester node's L3
    ServiceSource source = ServiceSource::kL3;
    int source_node = 0;
  };

  // Requester-node CA transaction (after L1/L2 missed).
  Fill ca_read(int core, LineAddr line);
  Fill ca_write(int core, LineAddr line);
  // Update-based store (Dragon): write-allocates via a read fill if needed,
  // then updates every sharer in place instead of invalidating it.
  Fill ca_update(int core, LineAddr line);
  // Miss at the requester CA: go to the home agent / broadcast.
  Fill home_read(int core, int req_node, LineAddr line);
  // Read-for-ownership through the home agent: fetches data (if needed) and
  // invalidates every other node's copies.
  Fill home_write(int core, int req_node, LineAddr line);
  // Update broadcast through the home agent (Dragon): peers keep their
  // copies demoted to Shared; no DRAM data read is needed.
  Fill home_update(int core, int req_node, LineAddr line);

  // Snoop of one peer node's CA for a read.  Applies state transitions
  // (owner demotes to S, dirty data scheduled for writeback).  Returns
  // whether the peer had a forwardable copy and the peer-side handling time
  // (slice lookup plus any core snoop / dirty-data extraction).
  struct PeerSnoop {
    bool forwarded = false;  // peer supplies the data
    bool had_shared = false; // peer holds a non-forwardable S copy
    bool dirty_forward = false;  // data forwarded without a memory writeback
                                 // (MOESI/Dragon Owned): memory copy stale
    double handling_ns = 0.0;
  };
  PeerSnoop snoop_peer_read(int peer_node, LineAddr line);
  // Invalidating snoop (RFO): removes the peer's copies; dirty data is
  // written back to memory.  Returns handling time.
  double snoop_peer_invalidate(int peer_node, LineAddr line);
  // Update snoop (Dragon): refreshes the peer's copies in place, demoting
  // them to Shared.  Returns handling time; sets `had_copy` when the peer
  // held the line.
  double snoop_peer_update(int peer_node, LineAddr line, bool* had_copy);

  // Snoops a single core's L1/L2 (core-valid bit chase).  If the core holds
  // the line Modified, the copy is demoted to `demote_to` and the L3 entry
  // is refreshed with the dirty data (state -> M).  Returns the extra
  // latency beyond the CBo round trip (data extraction), plus whether dirty
  // data was found and where.
  struct CoreSnoop {
    bool dirty = false;
    double data_ns = 0.0;
  };
  // `op` names the bus-level cause for the flight recorder's transition
  // matrix (kSnoopRead for read snoops, kSnoopUpdate for updates, ...).
  CoreSnoop snoop_core(int global_core, LineAddr line, Mesif demote_to,
                       obs::LineOp op);
  // Removes the line from a core's L1/L2.  Returns true if it was dirty.
  bool invalidate_core(int global_core, LineAddr line, obs::LineOp op);

  // DRAM access for `line` at its home; returns latency and counts the
  // row-buffer outcome.
  double dram_read(MachineState::HomeRef& home);
  void dram_write(MachineState::HomeRef& home);
  // Dirty data leaves a cache for memory (back-invalidation, M-forward
  // writeback, clflush).  Updates the home directory to remote-invalid when
  // `clears_directory` (an explicit writeback tells the HA the remote copy
  // is gone; a silent clean eviction does not).
  void writeback(LineAddr line, bool clears_directory);

  // How a directory write reaches the requester's latency.
  enum class DirWrite : std::uint8_t {
    kSilent,      // writeback, flush: no trace leaf, no cost
    kBackground,  // cache-to-cache forward: a 0 ns dir_update_background leaf
    kEcc,         // grant from the HA: a dir_update_ecc leaf of t.dir_update
  };
  // The one place the in-memory directory is written.  A set that pays a
  // write (DirectoryStore::set) counts one directory update and emits the
  // kind's trace leaf.  Returns the ns the caller adds to its latency:
  // t.dir_update for a paid kEcc write, 0.0 otherwise.
  double set_directory(MachineState::HomeRef& home, LineAddr line,
                       DirState next, DirWrite kind);

  // Coherence message classes between two nodes' agents.
  enum class Msg : std::uint8_t {
    kSnoop,   // snoop or invalidation broadcast: header only
    kUpdate,  // Dragon update broadcast: carries the line, counts as a snoop
    kData,    // data response to the requester (memory or cache forward)
    kAck,     // completion without data
  };
  // The one place a message between agents is counted.  kSnoop and kUpdate
  // count one snoop broadcast.  A message that crosses a socket link counts
  // one QPI flit of its class (no engine counter for kAck) and feeds the
  // per-link metric families with the class's bytes.
  void send(int from_node, int to_node, Msg msg);

  // Fill plumbing -------------------------------------------------------------
  // `op` is the demand operation behind the fill (kLocalRead / kLocalStore).
  void fill_caches(int core, LineAddr line, const Fill& fill, obs::LineOp op);
  void handle_l1_victim(int core, const CacheEntry& victim);
  void handle_l2_victim(int core, const CacheEntry& victim);
  void handle_l3_victim(int socket, int node, const CacheEntry& victim);

  // Timing helpers ------------------------------------------------------------
  // Core -> responsible CA -> back, plus the CBo pipeline (an L3 access).
  // Transport between agents comes from MachineState's tables (link_ns(),
  // request_to_ha()).
  [[nodiscard]] double l3_path(int core) const;

  // Tracing helpers (no-ops when no tracer is attached) ----------------------
  // Also carries the CBo/ring metrics; a detached engine makes no call.
  void trace_l3_path(int core) {
    if (tracer_ != nullptr || m_.metrics != nullptr) emit_l3_path(core);
  }
  void emit_l3_path(int core);
  // One leaf for the transport between two nodes' agents (kQpi across
  // sockets, kRing inside one).
  void trace_link(const char* name, int from, int to);
  // The MachineState::request_to_ha() sum as a group span with per-segment children.
  void trace_request_to_ha(int req_node, int home_node);

  // Metrics helpers (no-ops when no registry is attached) --------------------
  // One counter bump behind the null check; keeps call sites one-liners.
  void metric(metrics::MCtr c) {
    if (m_.metrics != nullptr) m_.metrics->bump(c);
  }
  // Flight-recorder helper (no-op when no recorder is attached): one
  // observed state change of a cache entry.  `unit` is the node for kL3
  // and the global core for kL1/kL2.
  void obs_transition(obs::Level level, int unit, LineAddr line, Mesif from,
                      obs::LineOp op, Mesif to) {
    if (m_.linestats != nullptr) {
      m_.linestats->on_transition(level, unit, line, from, op, to);
    }
  }
  // Access epilogue: latency histogram + periodic structural census.
  void metrics_access(double ns);
  // SAD decode + HA ring-stop accounting at the home agent, mirroring the
  // MachineState::request_to_ha() transport composition.
  void metric_request_to_ha(int req_node, int home_node) {
    if (m_.metrics != nullptr) record_request_to_ha(req_node, home_node);
  }
  void record_request_to_ha(int req_node, int home_node);
  // One message crossing the socket link between two nodes on different
  // sockets (the caller checked crosses_qpi).
  void record_qpi(int from_node, int to_node, std::uint64_t bytes);

  [[nodiscard]] bool directory_on() const { return m_.features.directory; }
  [[nodiscard]] bool hitme_on() const {
    return m_.features.directory && m_.features.hitme;
  }
  [[nodiscard]] bool source_snoop() const {
    return m_.topo.config().snoop_mode == SnoopMode::kSourceSnoop;
  }

  MachineState& m_;
  const protocol::ProtocolPolicy& pol_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace hsw
