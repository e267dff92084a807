// Writes the span trees of a fixed coherence-op script as one trace CSV.
//
// The script runs under every snoop mode (source, home, COD) and the
// MESIF, MOESI and Dragon families; each of the nine configurations is one
// trace stream (stream = 3 * mode + family, in the orders above).  Setup
// accesses run untraced; only the access each step is about is recorded.
// The steps cover an L3 miss to local and to remote memory, a forward from
// a dirty peer, a read that finds only a Shared peer, RFOs of a line shared
// in other nodes, dirty in a peer's core and dirty in a peer's L3 alone, a
// store to a line the writer's node shares (a Dragon update), a store miss
// (a Dragon write-allocate), and under COD a HitME hit and a
// stale-directory broadcast.
//
// The golden_engine_spans test byte-compares the output with
// tests/golden/engine_spans.csv, so any change to a span's name, order,
// nesting or value shows up in review; scripts/update_goldens.sh
// regenerates the file.
//
// Usage: engine_spans OUT.csv
#include <cstdio>
#include <vector>

#include "machine/system.h"
#include "trace/sink.h"
#include "trace/tracer.h"

namespace {

using hsw::PhysAddr;

class Script {
 public:
  Script(hsw::System& sys, hsw::trace::Tracer& tracer)
      : sys_(sys), tracer_(tracer), far_(sys.node_count() - 1) {}

  void run() {
    // L3 misses to local and to remote memory.
    read(core(0), line(0));
    read(core(0), line(far_));

    // A forward from a dirty peer (under COD: a third node's forward).
    PhysAddr a = line(0);
    untraced_write(core(far_), a);
    read(core(0), a);

    // The only other copy is Shared: no forward, a shared memory grant.
    a = line(0);
    untraced_read(core(far_), a);
    untraced_read(core(0), a);
    sys_.flush_node_l3(0);
    read(core(0), a);

    // RFO of a line shared in other nodes.
    a = line(0);
    untraced_read(core(far_), a);
    untraced_read(core(1), a);
    write(core(0), a);

    // RFO of a line dirty in a peer's core.
    a = line(0);
    untraced_write(core(far_), a);
    write(core(0), a);

    // RFO of a line dirty in a peer's L3 alone (no core-valid bit left).
    a = line(0);
    untraced_write(core(far_), a);
    sys_.evict_core_caches(core(far_));
    write(core(0), a);

    // A store to a line the writer's node already shares with another
    // node: an upgrade RFO, or a Dragon update broadcast.
    a = line(0);
    untraced_read(core(0), a);
    untraced_read(core(far_), a);
    write(core(0), a);

    // A store miss to remote memory: a Dragon write-allocate.
    write(core(0), line(far_));

    if (sys_.node_count() < 4) return;
    // COD: a forward from the home node allocates a HitME entry; the next
    // remote reader hits it.
    a = line(0);
    untraced_read(core(0), a);
    untraced_read(core(2), a);
    read(core(far_), a);

    // COD: a remote memory grant leaves the directory at snoop-all; the
    // clean copy is then dropped silently, and the next reader pays the
    // stale-directory broadcast.
    a = line(0);
    untraced_read(core(2), a);
    sys_.flush_node_l3(2);
    read(core(1), a);
  }

 private:
  int core(int node) const { return sys_.topology().node(node).cores.front(); }
  PhysAddr line(int node) { return sys_.alloc_on_node(node, 64).base; }

  void read(int c, PhysAddr a) { traced([&] { sys_.read(c, a); }); }
  void write(int c, PhysAddr a) { traced([&] { sys_.write(c, a); }); }
  void untraced_read(int c, PhysAddr a) { sys_.read(c, a); }
  void untraced_write(int c, PhysAddr a) { sys_.write(c, a); }

  template <typename Op>
  void traced(Op op) {
    sys_.set_tracer(&tracer_);
    op();
    sys_.set_tracer(nullptr);
  }

  hsw::System& sys_;
  hsw::trace::Tracer& tracer_;
  int far_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT.csv\n", argv[0]);
    return 1;
  }
  constexpr hsw::SnoopMode kModes[] = {hsw::SnoopMode::kSourceSnoop,
                                       hsw::SnoopMode::kHomeSnoop,
                                       hsw::SnoopMode::kCod};
  constexpr hsw::Protocol kFamilies[] = {
      hsw::Protocol::kMesif, hsw::Protocol::kMoesi, hsw::Protocol::kDragon};

  std::vector<hsw::trace::TraceRecord> records;
  std::uint32_t stream = 0;
  for (const hsw::SnoopMode mode : kModes) {
    for (const hsw::Protocol family : kFamilies) {
      hsw::SystemConfig config = hsw::SystemConfig::for_mode(mode);
      config.protocol = family;
      hsw::System sys(config);
      hsw::trace::Tracer tracer(hsw::trace::Tracer::Mode::kFull, stream++);
      Script(sys, tracer).run();
      records.insert(records.end(), tracer.records().begin(),
                     tracer.records().end());
    }
  }
  return hsw::trace::write_csv(argv[1], records) ? 0 : 1;
}
