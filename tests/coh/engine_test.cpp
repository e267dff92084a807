// White-box tests of the MESIF transaction engine: state transitions,
// core-valid-bit behaviour, silent evictions, and service-source
// classification — the mechanisms behind every number in the paper.
#include "coh/engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "coh/slice_hash.h"
#include "machine/system.h"

namespace hsw {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  System sys_{SystemConfig::source_snoop()};

  PhysAddr alloc(int node = 0) { return sys_.alloc_on_node(node, 64).base; }

  std::optional<CacheEntry> l3_entry(int node, PhysAddr addr) {
    const LineAddr line = line_of(addr);
    MachineState& m = sys_.state();
    const NumaNode& n = m.topo.node(node);
    return m.l3[static_cast<std::size_t>(n.socket)]
               [static_cast<std::size_t>(m.slice_for(node, line))]
        .peek(line);
  }
  std::optional<CacheEntry> l1_entry(int core, PhysAddr addr) {
    return sys_.state().cores[static_cast<std::size_t>(core)].l1.peek(
        line_of(addr));
  }
  std::optional<CacheEntry> l2_entry(int core, PhysAddr addr) {
    return sys_.state().cores[static_cast<std::size_t>(core)].l2.peek(
        line_of(addr));
  }
};

TEST_F(EngineTest, WriteInstallsModifiedInL1AndExclusiveInL3) {
  const PhysAddr a = alloc();
  const AccessResult r = sys_.write(0, a);
  EXPECT_GT(r.ns, 0.0);
  ASSERT_TRUE(l1_entry(0, a).has_value());
  EXPECT_EQ(l1_entry(0, a)->state, Mesif::kModified);
  const std::optional<CacheEntry> l3 = l3_entry(0, a);
  ASSERT_TRUE(l3.has_value());
  // The L3 believes the line is Exclusive; the M upgrade happened silently
  // in the core — this is why the CA must snoop on E hits.
  EXPECT_EQ(l3->state, Mesif::kExclusive);
  EXPECT_EQ(l3->core_valid, 1u);
}

TEST_F(EngineTest, ReadAfterFlushGrantsExclusive) {
  const PhysAddr a = alloc();
  sys_.write(0, a);
  sys_.flush_line(a);
  EXPECT_FALSE(l1_entry(0, a).has_value());
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kLocalDram);
  EXPECT_EQ(l1_entry(0, a)->state, Mesif::kExclusive);
  EXPECT_EQ(l3_entry(0, a)->state, Mesif::kExclusive);
}

TEST_F(EngineTest, L1HitIsFast) {
  const PhysAddr a = alloc();
  sys_.write(0, a);
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kL1);
  EXPECT_DOUBLE_EQ(r.ns, sys_.timing().l1_hit);
}

TEST_F(EngineTest, ReadOfAnotherCoresModifiedLineForwardsFromCore) {
  const PhysAddr a = alloc();
  sys_.write(1, a);
  const std::uint64_t snoops_before = sys_.counters().value(Ctr::kCoreSnoops);
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kCoreFwd);
  EXPECT_EQ(sys_.counters().value(Ctr::kCoreSnoops), snoops_before + 1);
  // Owner demoted to Shared, L3 refreshed with the dirty data.
  EXPECT_EQ(l1_entry(1, a)->state, Mesif::kShared);
  EXPECT_EQ(l3_entry(0, a)->state, Mesif::kModified);
  // Both cores now have the line.
  EXPECT_EQ(l3_entry(0, a)->core_valid, 0b11u);
}

TEST_F(EngineTest, SecondReadServedByL3WithoutSnoop) {
  const PhysAddr a = alloc();
  sys_.write(1, a);
  sys_.read(0, a);  // forwards from core 1, demotes to shared
  sys_.state().cores[0].l1.erase(line_of(a));
  sys_.state().cores[0].l2.erase(line_of(a));
  const std::uint64_t snoops_before = sys_.counters().value(Ctr::kCoreSnoops);
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kL3);
  // Multiple core-valid bits => shared-clean => no core snoop (paper §VI-A).
  EXPECT_EQ(sys_.counters().value(Ctr::kCoreSnoops), snoops_before);
}

TEST_F(EngineTest, DirtyL2EvictionClearsCoreValidBit) {
  const PhysAddr a = alloc();
  sys_.write(0, a);
  sys_.evict_core_caches(0);
  EXPECT_FALSE(l1_entry(0, a).has_value());
  EXPECT_FALSE(l2_entry(0, a).has_value());
  const std::optional<CacheEntry> l3 = l3_entry(0, a);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->state, Mesif::kModified);
  EXPECT_EQ(l3->core_valid, 0u);  // write-back clears the bit (paper §VI-A)
}

TEST_F(EngineTest, CleanEvictionIsSilentAndLeavesStaleCoreValidBit) {
  const PhysAddr a = alloc();
  sys_.write(0, a);
  sys_.flush_line(a);
  sys_.read(0, a);  // Exclusive in core 0
  sys_.evict_core_caches(0);
  const std::optional<CacheEntry> l3 = l3_entry(0, a);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->state, Mesif::kExclusive);
  EXPECT_EQ(l3->core_valid, 1u);  // silent eviction: bit still set

  // The stale bit forces a useless core snoop on the next access from
  // another core — the paper's 44.4 ns E-state penalty.
  const std::uint64_t snoops_before = sys_.counters().value(Ctr::kCoreSnoops);
  const AccessResult r = sys_.read(1, a);
  EXPECT_EQ(r.source, ServiceSource::kL3);
  EXPECT_EQ(sys_.counters().value(Ctr::kCoreSnoops), snoops_before + 1);
}

TEST_F(EngineTest, EStateSnoopPenaltyMatchesPaperDelta) {
  // E line placed by core 2, still resident: reading from core 0 costs a
  // core snoop over the plain L3 hit.
  const PhysAddr a = alloc();
  sys_.write(2, a);
  sys_.flush_line(a);
  sys_.read(2, a);
  const AccessResult with_snoop = sys_.read(0, a);

  // M line evicted to L3 (core-valid clear): plain hit.
  const PhysAddr b = alloc();
  sys_.write(2, b);
  sys_.evict_core_caches(2);
  const AccessResult plain = sys_.read(0, b);

  EXPECT_NEAR(with_snoop.ns - plain.ns, sys_.timing().core_snoop_local, 1e-9);
}

TEST_F(EngineTest, CrossSocketModifiedForwarding) {
  const PhysAddr a = alloc(1);  // homed on socket 1
  sys_.write(12, a);            // core on socket 1
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kRemoteFwd);
  EXPECT_EQ(r.source_node, 1);
  EXPECT_EQ(sys_.counters().value(Ctr::kLoadsRemoteFwd), 1u);
  // Dirty cross-node forward writes back to the home memory.
  EXPECT_GE(sys_.counters().value(Ctr::kDramWrites), 1u);
  // Requester's node now holds the line in Forward state.
  EXPECT_EQ(l3_entry(0, a)->state, Mesif::kForward);
  EXPECT_EQ(l3_entry(1, a)->state, Mesif::kShared);
}

TEST_F(EngineTest, ForwardMigratesToMostRecentReader) {
  const PhysAddr a = alloc(0);
  sys_.write(0, a);
  sys_.flush_line(a);
  sys_.read(0, a);   // node 0: E
  sys_.read(12, a);  // node 1 reads: F moves to node 1
  EXPECT_EQ(l3_entry(1, a)->state, Mesif::kForward);
  EXPECT_EQ(l3_entry(0, a)->state, Mesif::kShared);
}

TEST_F(EngineTest, SharedL1HitWithRemoteForwardCostsL3Trip) {
  const PhysAddr a = alloc(0);
  sys_.write(0, a);
  sys_.flush_line(a);
  sys_.read(0, a);   // node 0: E in core 0
  sys_.read(12, a);  // node 1 takes F; node 0 demoted to S
  ASSERT_EQ(l1_entry(0, a)->state, Mesif::kShared);
  // Core 0 still has the line in L1, but its node lost the Forward copy:
  // the read is serviced at L3 latency (paper Table IV / Fig. 9).
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kL3);
  EXPECT_GT(r.ns, sys_.timing().l2_hit);
}

TEST_F(EngineTest, SharedL1HitWithLocalForwardIsFullSpeed) {
  const PhysAddr a = alloc(0);
  sys_.write(1, a);
  sys_.flush_line(a);
  sys_.read(1, a);  // E in core 1
  sys_.read(0, a);  // shared within node 0; node keeps exclusivity
  const AccessResult r = sys_.read(0, a);
  EXPECT_EQ(r.source, ServiceSource::kL1);
  EXPECT_DOUBLE_EQ(r.ns, sys_.timing().l1_hit);
}

TEST_F(EngineTest, RfoInvalidatesAllOtherCopies) {
  const PhysAddr a = alloc(0);
  sys_.write(0, a);
  sys_.read(1, a);
  sys_.read(12, a);  // copies in both sockets
  sys_.write(5, a);  // core 5 takes ownership
  EXPECT_FALSE(l1_entry(0, a).has_value());
  EXPECT_FALSE(l1_entry(1, a).has_value());
  EXPECT_FALSE(l1_entry(12, a).has_value());
  EXPECT_FALSE(l3_entry(1, a).has_value());  // peer node fully invalidated
  EXPECT_EQ(l1_entry(5, a)->state, Mesif::kModified);
  const std::optional<CacheEntry> l3 = l3_entry(0, a);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->core_valid, 1u << 5);
}

TEST_F(EngineTest, WriteToExclusiveIsSilentUpgrade) {
  const PhysAddr a = alloc(0);
  sys_.write(0, a);
  sys_.flush_line(a);
  sys_.read(0, a);  // E
  const AccessResult r = sys_.write(0, a);
  EXPECT_DOUBLE_EQ(r.ns, sys_.timing().l1_hit);
  EXPECT_EQ(l1_entry(0, a)->state, Mesif::kModified);
  // The L3 still says Exclusive — it was not told.
  EXPECT_EQ(l3_entry(0, a)->state, Mesif::kExclusive);
}

TEST_F(EngineTest, FlushLineWritesBackDirtyData) {
  const PhysAddr a = alloc(0);
  sys_.write(0, a);
  const std::uint64_t writes_before = sys_.counters().value(Ctr::kDramWrites);
  sys_.flush_line(a);
  EXPECT_EQ(sys_.counters().value(Ctr::kDramWrites), writes_before + 1);
  EXPECT_FALSE(l3_entry(0, a).has_value());
  EXPECT_FALSE(l1_entry(0, a).has_value());
}

TEST_F(EngineTest, InclusiveL3BackInvalidatesCores) {
  // Fill one L3 set past capacity and verify the victim's core copies die.
  MachineState& m = sys_.state();
  const int slices = 12;
  const unsigned assoc = m.geometry.l3_assoc;
  const std::uint64_t sets =
      m.geometry.l3_slice_bytes / (assoc * kLineSize);
  // Find many lines mapping to slice 0, set 0 of node 0.
  std::vector<PhysAddr> lines;
  const MemRegion region = sys_.alloc_on_node(0, (assoc + 2) * sets * slices * 64 * 4);
  for (LineAddr line = region.first_line();
       line < region.first_line() + region.line_count() && lines.size() < assoc + 1;
       ++line) {
    if (m.slice_for(0, line) == 0 && (line & (sets - 1)) == 0) {
      lines.push_back(addr_of(line));
    }
  }
  ASSERT_EQ(lines.size(), assoc + 1);
  for (PhysAddr addr : lines) sys_.write(0, addr);
  // Exactly one line fell out of the 20-way L3 set; the inclusive design
  // requires that its core copies died with it and that the dirty data was
  // written back to memory.
  std::size_t l3_resident = 0;
  for (PhysAddr addr : lines) {
    if (l3_entry(0, addr).has_value()) {
      ++l3_resident;
    } else {
      EXPECT_FALSE(l1_entry(0, addr).has_value());
      EXPECT_FALSE(l2_entry(0, addr).has_value());
    }
  }
  EXPECT_EQ(l3_resident, assoc);
  EXPECT_GE(sys_.counters().value(Ctr::kL3Evictions), 1u);
  EXPECT_GE(sys_.counters().value(Ctr::kDramWrites), 1u);
}

TEST_F(EngineTest, SourceCountersClassifyLoads) {
  const PhysAddr local = alloc(0);
  const PhysAddr remote = alloc(1);
  sys_.read(0, local);
  sys_.read(0, remote);
  EXPECT_EQ(sys_.counters().value(Ctr::kLoadsLocalDram), 1u);
  EXPECT_EQ(sys_.counters().value(Ctr::kLoadsRemoteDram), 1u);
  sys_.read(0, local);
  EXPECT_EQ(sys_.counters().value(Ctr::kLoadsL1Hit), 1u);
}

// An RFO of a line another node holds dirty takes the data from that
// node's cache: the store reports a remote forward from the supplier, not
// DRAM at the home.  Whether the dirty copy still sits in a core or only in
// the supplier's L3 (the core drained it, clearing its core-valid bit)
// must not matter.
class RfoDirtyPeerTest : public ::testing::TestWithParam<SnoopMode> {};

TEST_P(RfoDirtyPeerTest, DirtyCopyIsForwardedByTheSupplier) {
  for (const bool drained : {false, true}) {
    SCOPED_TRACE(drained ? "dirty in the L3 alone" : "dirty in a core");
    System sys(SystemConfig::for_mode(GetParam()));
    const PhysAddr a = sys.alloc_on_node(0, 64).base;
    const int last = sys.core_count() - 1;
    sys.write(last, a);
    if (drained) sys.evict_core_caches(last);
    const AccessResult r = sys.write(0, a);
    EXPECT_EQ(r.source, ServiceSource::kRemoteFwd);
    EXPECT_EQ(r.source_node, sys.topology().node_of_core(last));
  }
}

std::string mode_name(const ::testing::TestParamInfo<SnoopMode>& info) {
  constexpr const char* kName[] = {"source", "home", "cod"};
  return kName[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllModes, RfoDirtyPeerTest,
                         ::testing::Values(SnoopMode::kSourceSnoop,
                                           SnoopMode::kHomeSnoop,
                                           SnoopMode::kCod),
                         mode_name);

}  // namespace
}  // namespace hsw
