#include "workload/apps.h"

#include <gtest/gtest.h>

#include <set>

namespace hsw {
namespace {

// The costs of one SystemConfig factory, probed at most once per test
// process.
template <SystemConfig (*Make)()>
const MachineCosts& probed() {
  static const MachineCosts costs = probe_machine(Make());
  return costs;
}

constexpr auto kSource = &SystemConfig::source_snoop;
constexpr auto kHome = &SystemConfig::home_snoop;
constexpr auto kCod = &SystemConfig::cluster_on_die;

TEST(Suites, SizesMatchThePaper) {
  EXPECT_EQ(spec_omp2012().size(), 14u);   // SPEC OMP2012: 14 applications
  EXPECT_EQ(spec_mpi2007().size(), 13u);   // SPEC MPI2007: 13 applications
}

TEST(Suites, NamesAreUniqueAndSuiteTagged) {
  std::set<std::string> names;
  for (const AppProfile& app : spec_omp2012()) {
    EXPECT_EQ(app.suite, "OMP2012");
    names.insert(app.name);
  }
  for (const AppProfile& app : spec_mpi2007()) {
    EXPECT_EQ(app.suite, "MPI2007");
    names.insert(app.name);
  }
  EXPECT_EQ(names.size(), 27u);
}

TEST(Suites, ProfilesAreWellFormed) {
  for (const auto* suite : {&spec_omp2012(), &spec_mpi2007()}) {
    for (const AppProfile& app : *suite) {
      EXPECT_GT(app.compute_fraction, 0.0) << app.name;
      EXPECT_LT(app.compute_fraction, 1.0) << app.name;
      EXPECT_LE(app.f_l2 + app.f_l3 + app.f_dram + app.sharing, 1.0) << app.name;
      EXPECT_GE(app.numa_locality, 0.0) << app.name;
      EXPECT_LE(app.numa_locality, 1.0) << app.name;
      EXPECT_GE(app.mlp, 1.0) << app.name;
    }
  }
}

TEST(Runtime, PositiveAndDecomposed) {
  const AppRunResult r =
      estimate_runtime(spec_omp2012().front(), probed<kSource>());
  EXPECT_GT(r.runtime, 0.0);
  EXPECT_GT(r.memory_time, 0.0);
  EXPECT_LE(r.sharing_time, r.memory_time);
}

TEST(Runtime, ColdAppInsensitiveToMode) {
  // 350.md is compute-bound: configuration changes must barely move it.
  const AppProfile& md = spec_omp2012().front();
  ASSERT_EQ(md.name, "350.md");
  const double base = estimate_runtime(md, probed<kSource>()).runtime;
  const double cod = estimate_runtime(md, probed<kCod>()).runtime;
  EXPECT_NEAR(cod / base, 1.0, 0.02);
}

TEST(Runtime, AppluDegradesUnderCod) {
  // The paper's headline Fig. 10 result: 371.applu331 slows by up to 23%
  // in COD mode.
  const AppProfile* applu = nullptr;
  for (const AppProfile& app : spec_omp2012()) {
    if (app.name == "371.applu331") applu = &app;
  }
  ASSERT_NE(applu, nullptr);
  const double base = estimate_runtime(*applu, probed<kSource>()).runtime;
  const double cod = estimate_runtime(*applu, probed<kCod>()).runtime;
  EXPECT_GT(cod / base, 1.10);
  EXPECT_LT(cod / base, 1.30);
}

TEST(Runtime, MpiSuiteLikesCod) {
  // MPI ranks use local memory; COD's lower local latency should help (or
  // at least not hurt) most MPI codes.
  int improved = 0;
  for (const AppProfile& app : spec_mpi2007()) {
    const double base =
        estimate_runtime(app, probed<kSource>()).runtime;
    const double cod =
        estimate_runtime(app, probed<kCod>()).runtime;
    if (cod <= base * 1.001) ++improved;
  }
  EXPECT_GE(improved, 10);
}

TEST(Runtime, HomeSnoopRoughlyNeutralForOmp) {
  // Paper: 12 of 14 OMP apps within +/-2% under home snoop; our model keeps
  // at least 10 of 14 within +/-3.5% (EXPERIMENTS.md discusses the rest —
  // the model charges sharing-heavy apps the higher remote-cache latency
  // without crediting the doubled cross-socket bandwidth in full).
  int within = 0;
  for (const AppProfile& app : spec_omp2012()) {
    const double base =
        estimate_runtime(app, probed<kSource>()).runtime;
    const double home =
        estimate_runtime(app, probed<kHome>()).runtime;
    if (std::abs(home / base - 1.0) < 0.035) ++within;
  }
  EXPECT_GE(within, 10);
}

// The pure model on hand-built costs: no System is built below.
constexpr MachineCosts kCosts{.l1 = 1.5, .l2 = 5.0, .l3 = 20.0,
                              .dram_local = 100.0, .dram_remote = 150.0,
                              .shared_line = 90.0, .dram_bw_share = 4.0,
                              .remote_bw_share = 2.0};

AppProfile profile(double f_l2, double f_l3, double f_dram, double sharing) {
  AppProfile app;
  app.compute_fraction = 0.5;  // one 30 ns reference memory op of compute
  app.f_l2 = f_l2;
  app.f_l3 = f_l3;
  app.f_dram = f_dram;
  app.sharing = sharing;
  return app;
}

TEST(RuntimeModel, AllL1ProfileCostsOneL1Hit) {
  const AppRunResult r = estimate_runtime(profile(0, 0, 0, 0), kCosts);
  EXPECT_DOUBLE_EQ(r.memory_time, kCosts.l1);
  EXPECT_DOUBLE_EQ(r.sharing_time, 0.0);
  EXPECT_DOUBLE_EQ(r.runtime, 30.0 + kCosts.l1);
}

TEST(RuntimeModel, SharingTimeIsSharingTimesSharedLine) {
  const AppRunResult r =
      estimate_runtime(profile(0.1, 0.1, 0.1, 0.05), kCosts);
  EXPECT_DOUBLE_EQ(r.sharing_time, 0.05 * kCosts.shared_line);
  EXPECT_LT(r.sharing_time, r.memory_time);
}

TEST(RuntimeModel, BandwidthFloorScalesWithTheBandwidthShare) {
  // Every access goes to local DRAM; at mlp 8 the latency term is 12.5 ns
  // and a 4 GB/s share floors a line at 16 ns.
  AppProfile app = profile(0, 0, 1.0, 0);
  app.numa_locality = 1.0;
  app.mlp = 8.0;
  MachineCosts halved = kCosts;
  halved.dram_bw_share = kCosts.dram_bw_share / 2;

  app.bandwidth_bound = 1.0;
  const double full_bw = estimate_runtime(app, kCosts).memory_time;
  EXPECT_DOUBLE_EQ(full_bw, 64.0 / kCosts.dram_bw_share);
  EXPECT_DOUBLE_EQ(estimate_runtime(app, halved).memory_time, 2 * full_bw);

  app.bandwidth_bound = 0.0;
  EXPECT_DOUBLE_EQ(estimate_runtime(app, kCosts).memory_time,
                   kCosts.dram_local / app.mlp);
  EXPECT_DOUBLE_EQ(estimate_runtime(app, halved).memory_time,
                   kCosts.dram_local / app.mlp);
}

TEST(RuntimeModel, L1RemainderClampsAtZero) {
  // f_l2 + f_l3 + f_dram + sharing = 1.1: no access is left for the L1, so
  // the L1 latency must not enter (a negative remainder would subtract it).
  const AppProfile app = profile(0.4, 0.4, 0.2, 0.1);
  MachineCosts slow_l1 = kCosts;
  slow_l1.l1 = 100.0;
  EXPECT_DOUBLE_EQ(estimate_runtime(app, slow_l1).memory_time,
                   estimate_runtime(app, kCosts).memory_time);
}

}  // namespace
}  // namespace hsw
