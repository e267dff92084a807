#include "check/reference_model.h"

#include <algorithm>
#include <bit>

#include "mem/address.h"

namespace hsw::check {

ReferenceModel::ReferenceModel(const SystemTopology& topo,
                               const ProtocolFeatures& features,
                               ReferenceFault fault)
    : topo_(topo),
      features_(features),
      pol_(protocol::policy(features.protocol)),
      fault_(fault) {}

ReferenceLine& ReferenceModel::at(LineAddr line) {
  auto [it, inserted] = lines_.try_emplace(line);
  if (inserted) {
    ReferenceLine& ls = it->second;
    ls.l1.assign(static_cast<std::size_t>(topo_.core_count()), Mesif::kInvalid);
    ls.l2.assign(static_cast<std::size_t>(topo_.core_count()), Mesif::kInvalid);
    ls.l3.assign(static_cast<std::size_t>(topo_.node_count()), Mesif::kInvalid);
    ls.cv.assign(static_cast<std::size_t>(topo_.node_count()), 0);
  }
  return it->second;
}

const ReferenceLine& ReferenceModel::line_state(LineAddr line) {
  return at(line);
}

bool ReferenceModel::sees_dirty(Mesif s) const {
  if (fault_ == ReferenceFault::kMoesiLostOwnedWriteback && s == Mesif::kOwned) {
    return false;  // the injected bug: Owned pretends to be clean
  }
  return is_dirty(s);
}

bool ReferenceModel::dir_set(ReferenceLine& ls, DirState next) {
  if (next == DirState::kRemoteInvalid) {
    const bool changed = ls.dir != DirState::kRemoteInvalid;
    ls.dir = next;
    return changed;
  }
  // The sparse store reports a write for every non-RI set, even when the
  // stored state is unchanged (DirectoryStore::set's contract).
  ls.dir = next;
  return true;
}

void ReferenceModel::writeback(LineAddr line, bool clears_directory) {
  ++ctr_.dram_writes;
  ++ctr_.l3_writebacks;
  ReferenceLine& ls = at(line);
  // The dirty copy carries the line's newest version home.
  ls.mem_value = ls.newest_value;
  if (directory_on() && clears_directory) {
    if (dir_set(ls, DirState::kRemoteInvalid)) ++ctr_.directory_updates;
  }
}

bool ReferenceModel::snoop_core(int global_core, LineAddr line,
                                Mesif demote_to) {
  ++ctr_.core_snoops;
  ReferenceLine& ls = at(line);
  const auto c = static_cast<std::size_t>(global_core);
  bool dirty = false;
  for (Mesif* level : {&ls.l1[c], &ls.l2[c]}) {
    if (*level == Mesif::kInvalid) continue;
    dirty |= is_dirty(*level);
    *level = demote_to;
  }
  return dirty;
}

bool ReferenceModel::invalidate_core(int global_core, LineAddr line) {
  ReferenceLine& ls = at(line);
  const auto c = static_cast<std::size_t>(global_core);
  const bool dirty = is_dirty(ls.l1[c]) || is_dirty(ls.l2[c]);
  ls.l1[c] = Mesif::kInvalid;
  ls.l2[c] = Mesif::kInvalid;
  return dirty;
}

ReferenceModel::PeerSnoop ReferenceModel::snoop_peer_read(int peer_node,
                                                          LineAddr line) {
  ++ctr_.snoops_sent;
  ReferenceLine& ls = at(line);
  const auto n = static_cast<std::size_t>(peer_node);
  PeerSnoop result;
  if (ls.l3[n] == Mesif::kInvalid) return result;

  const protocol::SnoopReadReaction& rx = pol_.snoop_read(ls.l3[n]);
  result.had_shared = rx.responds_shared;
  if (!rx.forwards) return result;  // Shared answers without data

  if (rx.may_hold_newer) {
    const std::uint32_t cv = ls.cv[n];
    const bool multi = std::popcount(cv) > 1;
    if (features_.core_valid_bits && cv != 0 && !multi) {
      const int owner_local = std::countr_zero(cv);
      const int owner =
          topo_.global_core(topo_.node(peer_node).socket, owner_local);
      if (snoop_core(owner, line, Mesif::kShared)) {
        ls.l3[n] = Mesif::kModified;  // refreshed with the dirty data
      }
    }
  }
  if (is_dirty(ls.l3[n])) {
    if (pol_.writeback_on_read_snoop) {
      writeback(line, /*clears_directory=*/false);
    } else {
      result.dirty_forward = true;  // MOESI/Dragon: memory copy goes stale
    }
  }
  ls.l3[n] = pol_.next(ls.l3[n], protocol::Op::kSnoopRead);
  result.forwarded = true;
  return result;
}

void ReferenceModel::snoop_peer_invalidate(int peer_node, LineAddr line) {
  ++ctr_.snoops_sent;
  ReferenceLine& ls = at(line);
  const auto n = static_cast<std::size_t>(peer_node);
  if (ls.l3[n] == Mesif::kInvalid) return;
  std::uint32_t cv = ls.cv[n];
  while (cv != 0) {
    const int owner_local = std::countr_zero(cv);
    cv &= cv - 1;
    invalidate_core(topo_.global_core(topo_.node(peer_node).socket, owner_local),
                    line);
  }
  ls.l3[n] = Mesif::kInvalid;
  ls.cv[n] = 0;
}

bool ReferenceModel::snoop_peer_update(int peer_node, LineAddr line) {
  ++ctr_.snoops_sent;
  ReferenceLine& ls = at(line);
  const auto n = static_cast<std::size_t>(peer_node);
  if (ls.l3[n] == Mesif::kInvalid) return false;

  ++ctr_.updates_sent;
  std::uint32_t cv = ls.cv[n];
  while (cv != 0) {
    const int owner_local = std::countr_zero(cv);
    cv &= cv - 1;
    const int owner =
        topo_.global_core(topo_.node(peer_node).socket, owner_local);
    if (fault_ == ReferenceFault::kDragonDroppedUpdate) {
      ++ctr_.core_snoops;  // the injected bug: snooped but never demoted
    } else {
      snoop_core(owner, line, Mesif::kShared);
    }
  }
  if (fault_ != ReferenceFault::kDragonDroppedUpdate) {
    ls.l3[n] = pol_.next(ls.l3[n], protocol::Op::kSnoopUpdate);
  }
  return true;
}

void ReferenceModel::handle_l2_victim(int core, LineAddr line,
                                      Mesif victim_state, bool l1_still_holds) {
  if (!is_dirty(victim_state)) return;  // clean evictions are silent
  ReferenceLine& ls = at(line);
  const auto node = static_cast<std::size_t>(topo_.node_of_core(core));
  if (ls.l3[node] != Mesif::kInvalid) {
    // An already-dirty-shared (Owned) L3 entry keeps its sharing state.
    if (!is_dirty(ls.l3[node])) ls.l3[node] = victim_state;
    if (!l1_still_holds) ls.cv[node] &= ~bit_of_core(core);
  } else {
    ls.l3[node] = victim_state;
    ls.cv[node] = 0;  // fresh L3 entry: no core-valid bits
  }
}

void ReferenceModel::handle_l3_victim(int node, LineAddr line) {
  ++ctr_.l3_evictions;
  ReferenceLine& ls = at(line);
  const auto n = static_cast<std::size_t>(node);
  bool dirty = sees_dirty(ls.l3[n]);
  std::uint32_t cv = ls.cv[n];
  while (cv != 0) {
    const int owner_local = std::countr_zero(cv);
    cv &= cv - 1;
    dirty |= invalidate_core(
        topo_.global_core(topo_.node(node).socket, owner_local), line);
  }
  ls.l3[n] = Mesif::kInvalid;
  ls.cv[n] = 0;
  if (dirty) writeback(line, /*clears_directory=*/true);
}

void ReferenceModel::fill_caches(int core, LineAddr line, const Fill& fill) {
  ReferenceLine& ls = at(line);
  const auto node = static_cast<std::size_t>(topo_.node_of_core(core));
  const auto c = static_cast<std::size_t>(core);
  if (ls.l3[node] != Mesif::kInvalid) {
    ls.cv[node] |= bit_of_core(core);
  } else {
    ls.l3[node] = fill.node_state;
    ls.cv[node] = bit_of_core(core);
  }
  ls.l2[c] = fill.core_state;
  if (ls.l1[c] == Mesif::kInvalid || is_dirty(fill.core_state)) {
    ls.l1[c] = fill.core_state;
  }
}

// --- read --------------------------------------------------------------------

void ReferenceModel::read(int core, LineAddr line) {
  ReferenceLine& ls = at(line);
  const auto c = static_cast<std::size_t>(core);
  const auto node = static_cast<std::size_t>(topo_.node_of_core(core));
  // Reading a Shared line whose node L3 copy is also Shared costs an L3
  // round trip but changes no state (the MESIF forward-reclaim path).
  auto shared_hit = [&](Mesif state) {
    return pol_.has_forward && state == Mesif::kShared &&
           ls.l3[node] == Mesif::kShared;
  };
  if (ls.l1[c] != Mesif::kInvalid) {
    (void)shared_hit(ls.l1[c]);
    return;  // L1 hit (possibly via the L3 forward-reclaim path): no change
  }
  if (ls.l2[c] != Mesif::kInvalid) {
    if (shared_hit(ls.l2[c])) return;  // served by the L3, no L1 fill
    ls.l1[c] = ls.l2[c];
    return;
  }
  const Fill fill = ca_read(core, line);
  fill_caches(core, line, fill);
}

ReferenceModel::Fill ReferenceModel::ca_read(int core, LineAddr line) {
  ReferenceLine& ls = at(line);
  const int req_node = topo_.node_of_core(core);
  const auto n = static_cast<std::size_t>(req_node);

  Fill fill;
  fill.core_state = Mesif::kShared;
  if (ls.l3[n] != Mesif::kInvalid) {
    const std::uint32_t owners = ls.cv[n] & ~bit_of_core(core);
    const bool multi = std::popcount(ls.cv[n]) > 1;
    if (pol_.snoop_read(ls.l3[n]).may_hold_newer &&
        features_.core_valid_bits && owners != 0 && !multi) {
      const int owner_local = std::countr_zero(owners);
      const int owner =
          topo_.global_core(topo_.node(req_node).socket, owner_local);
      if (snoop_core(owner, line, Mesif::kShared)) {
        ls.l3[n] = Mesif::kModified;
      }
    }
    ls.cv[n] |= bit_of_core(core);
    fill.node_state = ls.l3[n];
    return fill;
  }
  return home_read(core, req_node, line);
}

ReferenceModel::Fill ReferenceModel::home_read(int core, int req_node,
                                               LineAddr line) {
  (void)core;
  ReferenceLine& ls = at(line);
  const int h = home_node_of_line(line);

  Fill fill;
  fill.core_state = Mesif::kShared;
  fill.node_state = pol_.clean_shared_grant;

  std::vector<int> peers;
  for (int n = 0; n < topo_.node_count(); ++n) {
    if (n != req_node && n != h) peers.push_back(n);
  }

  // `memory_valid` mirrors the engine: false for an Owned dirty forward
  // (MOESI/Dragon), which bars the HitME allocation and the directory's
  // `shared` state — both claim the memory copy is authoritative.
  auto record_forward_state = [&](int forwarder_node, bool memory_valid) {
    fill.node_state = pol_.clean_shared_grant;
    if (directory_on() && req_node != h) {
      if (hitme_on() && memory_valid) {
        const auto presence = static_cast<std::uint8_t>(
            (1u << static_cast<unsigned>(req_node)) |
            (1u << static_cast<unsigned>(forwarder_node)));
        if (ls.hitme) {
          ls.presence |= presence;
        } else {
          ls.hitme = true;
          ls.presence = presence;
          ++ctr_.hitme_allocs;
        }
        if (dir_set(ls, DirState::kSnoopAll)) ++ctr_.directory_updates;
      } else {
        const DirState next = (!hitme_on() && memory_valid)
                                  ? DirState::kShared
                                  : DirState::kSnoopAll;
        if (dir_set(ls, next)) ++ctr_.directory_updates;
      }
    }
  };
  auto record_memory_grant = [&](bool exclusive) {
    if (fault_ == ReferenceFault::kReadAlwaysExclusive) exclusive = true;
    fill.node_state = exclusive ? Mesif::kExclusive : Mesif::kShared;
    fill.core_state = exclusive ? Mesif::kExclusive : Mesif::kShared;
    if (directory_on() && req_node != h) {
      if (dir_set(ls, DirState::kSnoopAll)) ++ctr_.directory_updates;
    }
  };

  if (!directory_on()) {
    // Snoopy modes.  Source and home snoop differ only in timing and in
    // which agent's QPI link carries the snoop flits.
    std::vector<int> snooped = peers;
    if (h != req_node) snooped.insert(snooped.begin(), h);
    const int snoop_origin = source_snoop() ? req_node : h;
    bool any_shared = false;
    for (int p : snooped) {
      ++ctr_.snoop_broadcasts;
      if (topo_.crosses_qpi(snoop_origin, p)) ++ctr_.qpi_snoop_flits;
      const PeerSnoop snoop = snoop_peer_read(p, line);
      if (snoop.forwarded) {
        record_forward_state(p, !snoop.dirty_forward);
        return fill;
      }
      any_shared |= snoop.had_shared;
    }
    ++ctr_.dram_reads;
    record_memory_grant(!any_shared);
    if (any_shared) fill.node_state = pol_.clean_shared_grant;
    return fill;
  }

  // Directory-assisted home snoop (COD).
  bool home_had_shared = false;
  if (h != req_node) {
    const PeerSnoop local_snoop = snoop_peer_read(h, line);
    if (local_snoop.forwarded) {
      record_forward_state(h, !local_snoop.dirty_forward);
      return fill;
    }
    home_had_shared = local_snoop.had_shared;
  }

  if (hitme_on()) {
    if (ls.hitme) {
      ++ctr_.hitme_hits;
      ++ctr_.dram_reads;
      ls.presence |= static_cast<std::uint8_t>(
          1u << static_cast<unsigned>(req_node));
      record_memory_grant(/*exclusive=*/false);
      return fill;
    }
    ++ctr_.hitme_misses;
  }

  ++ctr_.directory_lookups;
  ++ctr_.dram_reads;
  if (ls.dir == DirState::kRemoteInvalid) {
    record_memory_grant(!home_had_shared);
    if (home_had_shared) fill.node_state = pol_.clean_shared_grant;
    return fill;
  }
  if (ls.dir == DirState::kShared) {
    record_memory_grant(/*exclusive=*/false);
    return fill;
  }

  // Snoop-all broadcast.
  bool any_shared = home_had_shared;
  for (int p : peers) {
    ++ctr_.snoop_broadcasts;
    if (topo_.crosses_qpi(h, p)) ++ctr_.qpi_snoop_flits;
    const PeerSnoop snoop = snoop_peer_read(p, line);
    if (snoop.forwarded) {
      record_forward_state(p, !snoop.dirty_forward);
      return fill;
    }
    any_shared |= snoop.had_shared;
  }
  record_memory_grant(!any_shared);
  if (any_shared) fill.node_state = pol_.clean_shared_grant;
  return fill;
}

// --- write -------------------------------------------------------------------

void ReferenceModel::write(int core, LineAddr line) {
  ReferenceLine& ls = at(line);
  // Value oracle: every store produces a fresh version, regardless of which
  // protocol path carries it.
  ls.newest_value = ++op_serial_;
  ls.last_writer = core;
  const auto c = static_cast<std::size_t>(core);
  if (ls.l1[c] != Mesif::kInvalid) {
    if (pol_.store_silent(ls.l1[c])) {
      ls.l1[c] = pol_.next(ls.l1[c], protocol::Op::kLocalStore);
      return;  // silent E->M upgrade
    }
  } else if (ls.l2[c] != Mesif::kInvalid) {
    if (pol_.store_silent(ls.l2[c])) {
      ls.l1[c] = Mesif::kModified;
      ls.l2[c] = Mesif::kShared;  // newest copy now in L1
      return;
    }
  }
  if (pol_.update_based) {
    const Fill fill = ca_update(core, line);
    fill_caches(core, line, fill);
    return;
  }
  Fill fill = ca_write(core, line);
  fill.core_state = Mesif::kModified;
  fill_caches(core, line, fill);
}

ReferenceModel::Fill ReferenceModel::ca_write(int core, LineAddr line) {
  ReferenceLine& ls = at(line);
  const int req_node = topo_.node_of_core(core);
  const auto n = static_cast<std::size_t>(req_node);

  Fill fill;
  fill.node_state = Mesif::kExclusive;
  if (ls.l3[n] != Mesif::kInvalid) {
    if (pol_.owns(ls.l3[n])) {
      std::uint32_t others = ls.cv[n] & ~bit_of_core(core);
      if (others != 0) {
        bool dirty = false;
        while (others != 0) {
          const int owner_local = std::countr_zero(others);
          others &= others - 1;
          dirty |= invalidate_core(
              topo_.global_core(topo_.node(req_node).socket, owner_local),
              line);
        }
        if (dirty) ls.l3[n] = Mesif::kModified;
      }
      ls.cv[n] = bit_of_core(core);
      fill.node_state = ls.l3[n];
      return fill;
    }
    // Shared/Forward/Owned at node level: upgrade through the home agent.
    std::uint32_t local_sharers = ls.cv[n] & ~bit_of_core(core);
    while (local_sharers != 0) {
      const int owner_local = std::countr_zero(local_sharers);
      local_sharers &= local_sharers - 1;
      invalidate_core(
          topo_.global_core(topo_.node(req_node).socket, owner_local), line);
    }
    Fill upgrade = home_write(core, req_node, line);
    if (ls.l3[n] != Mesif::kInvalid) {
      ls.l3[n] = Mesif::kExclusive;
      ls.cv[n] = bit_of_core(core);
    }
    upgrade.node_state = Mesif::kExclusive;
    return upgrade;
  }
  return home_write(core, req_node, line);
}

ReferenceModel::Fill ReferenceModel::home_write(int core, int req_node,
                                                LineAddr line) {
  (void)core;
  ReferenceLine& ls = at(line);
  const int h = home_node_of_line(line);

  Fill fill;
  fill.core_state = Mesif::kModified;
  fill.node_state = Mesif::kExclusive;

  const bool from_requester = source_snoop() && !directory_on();
  for (int p = 0; p < topo_.node_count(); ++p) {
    if (p == req_node) continue;
    ++ctr_.snoop_broadcasts;
    const int from = from_requester ? req_node : h;
    if (topo_.crosses_qpi(from, p)) ++ctr_.qpi_snoop_flits;
    snoop_peer_invalidate(p, line);
  }
  ++ctr_.dram_reads;

  if (directory_on() && fault_ != ReferenceFault::kWriteSkipsDirectoryUpdate) {
    const DirState next =
        req_node == h ? DirState::kRemoteInvalid : DirState::kSnoopAll;
    if (dir_set(ls, next)) ++ctr_.directory_updates;
    if (hitme_on()) {
      ls.hitme = false;
      ls.presence = 0;
    }
  }
  return fill;
}

// --- update-based store (Dragon) ---------------------------------------------

ReferenceModel::Fill ReferenceModel::ca_update(int core, LineAddr line) {
  ReferenceLine& ls = at(line);
  const int req_node = topo_.node_of_core(core);
  const auto n = static_cast<std::size_t>(req_node);

  // Write-allocate: a store miss first fills the line like a read.
  if (ls.l3[n] == Mesif::kInvalid) {
    const Fill read_fill = ca_read(core, line);
    fill_caches(core, line, read_fill);
  }

  const std::uint32_t others = ls.cv[n] & ~bit_of_core(core);
  if (pol_.owns(ls.l3[n])) {
    // Node-exclusive: the update never leaves the node; in-node sharers
    // keep their (refreshed, Shared) copies.
    std::uint32_t sharers = others;
    while (sharers != 0) {
      const int owner_local = std::countr_zero(sharers);
      sharers &= sharers - 1;
      snoop_core(topo_.global_core(topo_.node(req_node).socket, owner_local),
                 line, Mesif::kShared);
      ++ctr_.updates_sent;
    }
    ls.l3[n] = Mesif::kModified;
    ls.cv[n] |= bit_of_core(core);
    Fill fill;
    fill.node_state = ls.l3[n];
    fill.core_state = others != 0 ? Mesif::kOwned : Mesif::kModified;
    return fill;
  }
  return home_update(core, req_node, line);
}

ReferenceModel::Fill ReferenceModel::home_update(int core, int req_node,
                                                 LineAddr line) {
  ReferenceLine& ls = at(line);
  const int h = home_node_of_line(line);
  const auto n = static_cast<std::size_t>(req_node);

  const bool from_requester = source_snoop() && !directory_on();
  bool remote_copy = false;
  for (int p = 0; p < topo_.node_count(); ++p) {
    if (p == req_node) continue;
    ++ctr_.snoop_broadcasts;
    const int from = from_requester ? req_node : h;
    if (topo_.crosses_qpi(from, p)) ++ctr_.qpi_snoop_flits;
    remote_copy |= snoop_peer_update(p, line);
  }

  // In-node sharers are refreshed in place.
  std::uint32_t others = ls.cv[n] & ~bit_of_core(core);
  const bool local_sharers = others != 0;
  while (others != 0) {
    const int owner_local = std::countr_zero(others);
    others &= others - 1;
    snoop_core(topo_.global_core(topo_.node(req_node).socket, owner_local),
               line, Mesif::kShared);
    ++ctr_.updates_sent;
  }
  // The writer owns the newest data; surviving remote copies make the node
  // state Owned (dirty-shared) rather than Modified.
  ls.l3[n] = remote_copy ? Mesif::kOwned : Mesif::kModified;
  ls.cv[n] |= bit_of_core(core);

  Fill fill;
  fill.node_state = ls.l3[n];
  fill.core_state =
      (remote_copy || local_sharers) ? Mesif::kOwned : Mesif::kModified;

  if (directory_on()) {
    // Memory is stale after an update: `shared` is never recorded.
    const DirState next = (req_node == h && !remote_copy)
                              ? DirState::kRemoteInvalid
                              : DirState::kSnoopAll;
    if (dir_set(ls, next)) ++ctr_.directory_updates;
    if (hitme_on()) {
      ls.hitme = false;
      ls.presence = 0;
    }
  }
  return fill;
}

// --- flush / placement helpers ----------------------------------------------

void ReferenceModel::flush_line(LineAddr line) {
  ReferenceLine& ls = at(line);
  bool dirty = false;
  for (int node = 0; node < topo_.node_count(); ++node) {
    const auto n = static_cast<std::size_t>(node);
    if (ls.l3[n] == Mesif::kInvalid) continue;
    dirty |= sees_dirty(ls.l3[n]);
    std::uint32_t cv = ls.cv[n];
    while (cv != 0) {
      const int owner_local = std::countr_zero(cv);
      cv &= cv - 1;
      dirty |= invalidate_core(
          topo_.global_core(topo_.node(node).socket, owner_local), line);
    }
    ls.l3[n] = Mesif::kInvalid;
    ls.cv[n] = 0;
  }
  if (dirty && fault_ != ReferenceFault::kFlushDropsWriteback) {
    writeback(line, /*clears_directory=*/true);
  }
  if (directory_on()) {
    if (dir_set(ls, DirState::kRemoteInvalid)) ++ctr_.directory_updates;
    if (hitme_on()) {
      ls.hitme = false;
      ls.presence = 0;
    }
  }
}

void ReferenceModel::evict_core_caches(int core) {
  const auto c = static_cast<std::size_t>(core);
  // L1 drains first (all lines), then the L2 — and the engine's flush
  // callback sees the line still present in the level being flushed, which
  // matters for the core-valid clearing decision in handle_l2_victim.
  for (auto& [line, ls] : lines_) {
    if (ls.l1[c] == Mesif::kInvalid) continue;
    handle_l2_victim(core, line, ls.l1[c], /*l1_still_holds=*/true);
    ls.l1[c] = Mesif::kInvalid;
  }
  for (auto& [line, ls] : lines_) {
    if (ls.l2[c] == Mesif::kInvalid) continue;
    handle_l2_victim(core, line, ls.l2[c], /*l1_still_holds=*/false);
    ls.l2[c] = Mesif::kInvalid;
  }
}

void ReferenceModel::flush_node_l3(int node) {
  const auto n = static_cast<std::size_t>(node);
  for (auto& [line, ls] : lines_) {
    if (ls.l3[n] == Mesif::kInvalid) continue;
    handle_l3_victim(node, line);
  }
}

void ReferenceModel::flush_all() {
  std::vector<LineAddr> touched;
  touched.reserve(lines_.size());
  for (const auto& [line, ls] : lines_) touched.push_back(line);
  std::sort(touched.begin(), touched.end());
  for (const LineAddr line : touched) flush_line(line);
}

std::map<LineAddr, ReferenceModel::MemoryCell> ReferenceModel::memory_image()
    const {
  std::map<LineAddr, MemoryCell> image;
  for (const auto& [line, ls] : lines_) {
    image[line] = MemoryCell{ls.mem_value, ls.last_writer};
  }
  return image;
}

}  // namespace hsw::check
