// Umbrella header: the public API of the hswsim benchmark kit.
//
// One include gives you the whole experiment surface:
//
//   machine      System, SystemConfig (source_snoop / home_snoop /
//                cluster_on_die presets, for_mode), parse_snoop_mode,
//                parse_mesif, topology and timing introspection
//   experiments  measure_latency (LatencyConfig), measure_bandwidth
//                (BandwidthConfig; engine = kAnalytic | kSimulated,
//                parse_bandwidth_engine), latency_sweep / bandwidth_sweep
//   model        bw::BandwidthModel (MLP demand + max-min contention),
//                bw::max_min_rates
//   exec         exec::run_closed_loop / exec::run_programs — the
//                event-driven concurrent engine behind kSimulated and
//                replay_concurrent
//   workloads    Trace generators + replay / replay_concurrent
//                (link hswsim_workload for these)
//   observability InstrumentationScope {tracer, metrics, linestats,
//                resstats} — one struct wired through every config above;
//                PointObservers builds it per point and absorbs the
//                recorders into ObserverHubs (one StreamHub per observer),
//                and write_observer_report writes the one versioned report
//                document (core/observers.h)
//   output       Table, format_ns / format_gbps / format_bytes, kib/mib/gib
//
// Quickstart (examples/quickstart.cpp is the runnable version):
//
//   #include "core/hswbench.h"
//   hsw::System system(hsw::SystemConfig::source_snoop());
//   hsw::LatencyConfig cfg;
//   cfg.reader_core = 0;
//   cfg.placement = {.owner_core = 1, .memory_node = 0,
//                    .state = hsw::Mesif::kModified};
//   cfg.buffer_bytes = hsw::kib(64);
//   auto r = hsw::measure_latency(system, cfg);   // ~53 ns: core-to-core
//
// To observe an experiment, attach an InstrumentationScope:
//
//   trace::Tracer tracer(trace::Tracer::Mode::kFull, /*stream=*/0);
//   metrics::MetricsRegistry registry(/*stream=*/0);
//   cfg.instrumentation = {&tracer, &registry};
//   // after the run: tracer holds span trees, registry the PMU-style
//   // samples plus the engine-counter delta of the measured section.
//
// To cross-check the analytic bandwidth model against the event-driven
// engine on the same streams:
//
//   hsw::BandwidthConfig bc;            // ... add streams ...
//   bc.engine = hsw::BandwidthEngine::kSimulated;
//   auto sim = hsw::measure_bandwidth(system, bc);
//
// See examples/ for complete programs, EXPERIMENTS.md for the experiment
// catalogue, and DESIGN.md for the architecture.
//
// --- The facade rule: the library never exits, never prints -----------------
//
// Everything under src/ is a library: no function behind this header calls
// exit(), prints to stdout, or writes usage text to stderr.  Errors surface
// as values — std::optional from the name parsers
// (parse_snoop_mode, parse_protocol, parse_mesif, parse_bandwidth_engine),
// error enums from the report loaders (ReportLoadError),
// std::invalid_argument from configuration validation — and the *binaries*
// own the policy: the benches route every flag error (bad values, invalid
// combinations, output-path probes) through CommandLine checks so
// ParseStatus::kError is the single argument-error exit path.  Code that wants to embed the kit (a notebook
// binding, a fuzzer) must never lose its process to a typo'd config.
#pragma once

#include "bw/model.h"
#include "bw/solver.h"
#include "core/bandwidth.h"
#include "core/instrumentation.h"
#include "core/latency.h"
#include "core/observers.h"
#include "core/placement.h"
#include "core/sweep.h"
#include "exec/engine.h"
#include "machine/specs.h"
#include "machine/system.h"
#include "util/table.h"
#include "util/units.h"
