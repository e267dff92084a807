// Directory and HitME-cache semantics in Cluster-on-Die mode: the paper's
// §IV-D / §VI-C mechanisms (AllocateShared policy, stale snoop-all state,
// memory forwarding of clean-shared lines).
#include <gtest/gtest.h>

#include "coh/engine.h"
#include "machine/system.h"

namespace hsw {
namespace {

class CodTest : public ::testing::Test {
 protected:
  System sys_{SystemConfig::cluster_on_die()};

  PhysAddr alloc(int node) { return sys_.alloc_on_node(node, 64).base; }

  HomeAgentState& home_agent(PhysAddr addr) {
    return *sys_.state().home_of(line_of(addr)).ha;
  }
  DirState dir(PhysAddr addr) {
    return home_agent(addr).directory.get(line_of(addr));
  }
  int core_in(int node, int idx = 0) {
    return sys_.topology().node(node).cores[static_cast<std::size_t>(idx)];
  }
};

TEST_F(CodTest, FourNodes) {
  EXPECT_EQ(sys_.node_count(), 4);
  EXPECT_TRUE(sys_.state().features.directory);
  EXPECT_TRUE(sys_.state().features.hitme);
}

TEST_F(CodTest, LocalAccessKeepsRemoteInvalid) {
  const PhysAddr a = alloc(0);
  sys_.read(core_in(0), a);
  EXPECT_EQ(dir(a), DirState::kRemoteInvalid);
  // No broadcast was needed.
  EXPECT_EQ(sys_.counters().value(Ctr::kSnoopBroadcasts), 0u);
}

TEST_F(CodTest, RemoteExclusiveGrantSetsSnoopAll) {
  const PhysAddr a = alloc(0);
  sys_.read(core_in(2), a);  // remote node reads cold line
  EXPECT_EQ(dir(a), DirState::kSnoopAll);
  // First access to a remote-invalid line must not allocate a HitME entry
  // (paper §IV-D).
  EXPECT_FALSE(home_agent(a).hitme.contains(line_of(a)));
  EXPECT_EQ(sys_.counters().value(Ctr::kHitmeAlloc), 0u);
}

TEST_F(CodTest, CrossNodeForwardAllocatesHitmeEntry) {
  const PhysAddr a = alloc(0);
  const int owner = core_in(0, 1);
  sys_.write(owner, a);
  sys_.flush_line(a);
  sys_.read(owner, a);        // E in node 0 (home)
  sys_.read(core_in(1), a);   // node 1 pulls the line: F forwarded cross-node
  EXPECT_TRUE(home_agent(a).hitme.contains(line_of(a)));
  EXPECT_EQ(dir(a), DirState::kSnoopAll);
  EXPECT_GE(sys_.counters().value(Ctr::kHitmeAlloc), 1u);
  const auto entry = home_agent(a).hitme.lookup(line_of(a));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->presence & 0b11u, 0b11u);  // nodes 0 and 1 present
}

TEST_F(CodTest, HitmeHitForwardsFromMemoryWithoutSnoops) {
  const PhysAddr a = alloc(1);
  const int owner = core_in(1);
  sys_.write(owner, a);
  sys_.flush_line(a);
  sys_.read(owner, a);
  sys_.read(core_in(2), a);  // allocates HitME entry at node 1's HA

  // A third node reads: HitME hit, data forwarded from home memory even
  // though caches hold copies (the Fig. 7 small-set behaviour).
  const std::uint64_t broadcasts = sys_.counters().value(Ctr::kSnoopBroadcasts);
  const AccessResult r = sys_.read(core_in(3), a);
  EXPECT_EQ(r.source, ServiceSource::kRemoteDram);
  EXPECT_GE(sys_.counters().value(Ctr::kHitmeHit), 1u);
  EXPECT_EQ(sys_.counters().value(Ctr::kSnoopBroadcasts), broadcasts);
  EXPECT_EQ(sys_.counters().value(Ctr::kLoadsRemoteDram), 1u);
}

TEST_F(CodTest, RegrantingSnoopAllStillPaysADirectoryWrite) {
  // Pinned behaviour (EXPERIMENTS.md "Known deviations"): a memory grant to
  // a remote node writes the directory even when the line already reads
  // snoop-all, so the access pays dir_update and counts an update.
  const PhysAddr a = alloc(0);
  const int reader = core_in(2);
  sys_.read(reader, a);  // remote exclusive grant: remote-invalid -> snoop-all
  ASSERT_EQ(dir(a), DirState::kSnoopAll);
  sys_.flush_node_l3(2);  // silent clean eviction: still snoop-all
  ASSERT_EQ(dir(a), DirState::kSnoopAll);

  const std::uint64_t updates = sys_.counters().value(Ctr::kDirectoryUpdates);
  const AccessResult again = sys_.read(reader, a);
  EXPECT_EQ(again.source, ServiceSource::kRemoteDram);
  EXPECT_EQ(dir(a), DirState::kSnoopAll);
  EXPECT_EQ(sys_.counters().value(Ctr::kDirectoryUpdates), updates + 1);
}

TEST_F(CodTest, StaleDirectoryForcesUselessBroadcast) {
  const PhysAddr a = alloc(1);
  const int owner = core_in(1);
  sys_.write(owner, a);
  sys_.flush_line(a);
  sys_.read(owner, a);
  sys_.read(core_in(2), a);  // F in node 2, dir snoop-all, HitME entry

  // Everything silently evicted; the directory still says snoop-all.
  sys_.flush_node_l3(1);
  sys_.flush_node_l3(2);
  home_agent(a).hitme.clear();  // entry also evicted (tiny cache)
  EXPECT_EQ(dir(a), DirState::kSnoopAll);

  // The next read pays a full (useless) broadcast before memory answers.
  const PhysAddr clean = alloc(1);
  const AccessResult stale = sys_.read(core_in(0), a);
  const AccessResult fresh = sys_.read(core_in(0), clean);
  EXPECT_GT(stale.ns, fresh.ns + 50.0);  // paper: +78..89 ns
  EXPECT_GE(sys_.counters().value(Ctr::kSnoopBroadcasts), 2u);
}

TEST_F(CodTest, DirtyWritebackCleansDirectory) {
  const PhysAddr a = alloc(0);
  const int remote = core_in(2);
  sys_.write(remote, a);  // modified in node 2, dir snoop-all
  EXPECT_EQ(dir(a), DirState::kSnoopAll);
  sys_.evict_core_caches(remote);
  sys_.flush_node_l3(2);  // dirty line written back explicitly
  EXPECT_EQ(dir(a), DirState::kRemoteInvalid);
}

TEST_F(CodTest, RfoErasesHitmeEntry) {
  const PhysAddr a = alloc(0);
  sys_.write(core_in(0), a);
  sys_.flush_line(a);
  sys_.read(core_in(0), a);
  sys_.read(core_in(1), a);  // HitME entry allocated
  ASSERT_TRUE(home_agent(a).hitme.contains(line_of(a)));
  sys_.write(core_in(1), a);
  EXPECT_FALSE(home_agent(a).hitme.contains(line_of(a)));
  EXPECT_EQ(dir(a), DirState::kSnoopAll);
}

TEST_F(CodTest, LocalRfoResetsDirectoryToRemoteInvalid) {
  const PhysAddr a = alloc(0);
  sys_.read(core_in(2), a);  // remote copy, snoop-all
  sys_.write(core_in(0), a);  // home-node core takes ownership
  EXPECT_EQ(dir(a), DirState::kRemoteInvalid);
}

TEST_F(CodTest, ThreeNodeTransactionSlowerThanTwoNode) {
  // F copy in the home node vs F copy in a third node (Table IV).
  const PhysAddr two = alloc(1);
  sys_.write(core_in(1), two);
  sys_.flush_line(two);
  sys_.read(core_in(1), two);
  sys_.evict_core_caches(core_in(1));
  const AccessResult two_node = sys_.read(core_in(0), two);

  const PhysAddr three = alloc(1);
  sys_.write(core_in(1), three);
  sys_.flush_line(three);
  sys_.read(core_in(1), three);
  sys_.read(core_in(2), three);  // F now in node 2
  sys_.evict_core_caches(core_in(1));
  sys_.evict_core_caches(core_in(2));
  home_agent(three).hitme.clear();  // large-set regime
  const AccessResult three_node = sys_.read(core_in(0), three);

  EXPECT_EQ(two_node.source, ServiceSource::kRemoteFwd);
  EXPECT_EQ(three_node.source, ServiceSource::kRemoteFwd);
  EXPECT_GT(three_node.ns, two_node.ns + 50.0);  // paper: 57.2 vs 170
}

// Ablation plumbing: directory without HitME uses the classic DAS `shared`
// state for clean forwards.
TEST(CodAblation, DirectoryWithoutHitmeUsesSharedState) {
  SystemConfig config = SystemConfig::cluster_on_die();
  ProtocolFeatures features;
  features.directory = true;
  features.hitme = false;
  config.feature_override = features;
  System sys(config);

  const PhysAddr a = sys.alloc_on_node(0, 64).base;
  const int owner = sys.topology().node(0).cores[0];
  sys.write(owner, a);
  sys.flush_line(a);
  sys.read(owner, a);
  sys.read(sys.topology().node(1).cores[0], a);
  EXPECT_EQ(sys.state().home_of(line_of(a)).ha->directory.get(line_of(a)),
            DirState::kShared);

  // After silent eviction, a read is served from memory without broadcast.
  sys.flush_node_l3(0);
  sys.flush_node_l3(1);
  const std::uint64_t broadcasts = sys.counters().value(Ctr::kSnoopBroadcasts);
  sys.read(sys.topology().node(2).cores[0], a);
  EXPECT_EQ(sys.counters().value(Ctr::kSnoopBroadcasts), broadcasts);
}

}  // namespace
}  // namespace hsw
