// Fig. 10: coherence-protocol configuration vs application performance.
//
// The SPEC OMP2012 / SPEC MPI2007 suites are modelled by per-application
// memory profiles (workload/apps.h); each of the three configurations is
// probed once, each profile evaluated against the three sets of costs, and
// the runtime relative to the default (source snoop) reported.
#include <cstdio>

#include "common.h"
#include "workload/apps.h"

int main(int argc, char** argv) {
  hswbench::BenchArgs args = hswbench::parse_args(
      argc, argv, "Fig. 10: application performance vs coherence mode");
  hswbench::warn_untraced(args);

  // One probe per configuration into its own slot: no output moves with --jobs.
  const hsw::SystemConfig configs[] = {hsw::SystemConfig::source_snoop(),
                                       hsw::SystemConfig::home_snoop(),
                                       hsw::SystemConfig::cluster_on_die()};
  hsw::MachineCosts costs[3]{};
  hsw::ThreadPool pool(args.jobs);
  hsw::parallel_for_indexed(pool, 3, [&](std::size_t i) {
    costs[i] = hsw::probe_machine(configs[i]);
  });

  std::unique_ptr<hsw::CsvWriter> csv;
  if (!args.csv.empty()) {
    csv = std::make_unique<hsw::CsvWriter>(
        args.csv,
        std::vector<std::string>{"suite", "app", "home_rel", "cod_rel"});
  }

  for (const auto* suite : {&hsw::spec_omp2012(), &hsw::spec_mpi2007()}) {
    const std::string suite_name = suite->front().suite;
    hsw::Table table({"application", "default", "Early Snoop off", "COD",
                      "home vs default", "COD vs default"});
    double worst_cod = 0.0;
    std::string worst_app;
    for (const hsw::AppProfile& app : *suite) {
      const double base = hsw::estimate_runtime(app, costs[0]).runtime;
      const double home_rt = hsw::estimate_runtime(app, costs[1]).runtime;
      const double cod_rt = hsw::estimate_runtime(app, costs[2]).runtime;
      const double home_rel = home_rt / base;
      const double cod_rel = cod_rt / base;
      if (cod_rel > worst_cod) {
        worst_cod = cod_rel;
        worst_app = app.name;
      }
      char home_pct[32];
      char cod_pct[32];
      std::snprintf(home_pct, sizeof home_pct, "%+.1f%%", (home_rel - 1) * 100);
      std::snprintf(cod_pct, sizeof cod_pct, "%+.1f%%", (cod_rel - 1) * 100);
      table.add_row({app.name, hsw::cell(base, 1), hsw::cell(home_rt, 1),
                     hsw::cell(cod_rt, 1), home_pct, cod_pct});
      if (csv) {
        csv->add_row({suite_name, app.name, hsw::cell(home_rel, 4),
                      hsw::cell(cod_rel, 4)});
      }
    }
    std::printf("Fig. 10 (%s): estimated runtime per work unit, lower is "
                "better\n%s",
                suite_name.c_str(), table.to_string().c_str());
    std::printf("largest COD degradation: %s (%+.1f%%)\n\n", worst_app.c_str(),
                (worst_cod - 1) * 100);
  }

  hswbench::print_paper_note(
      "OMP2012: 12 of 14 apps within +/-2% under home snoop; 362.fma3d and "
      "371.applu331 ~5% faster with Early Snoop disabled; COD slows "
      "371.applu331 by up to 23% and helps no OMP app; MPI2007: home snoop "
      "slightly slower, COD mostly slightly faster (local-memory bound)");
  return 0;
}
