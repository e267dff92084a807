#include "trace/sink.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace hsw::trace {

namespace {

// Deterministic double formatting: the same double always prints the same
// bytes, so traces diff cleanly across job counts.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

struct JsonWriter {
  std::FILE* f;
  bool first = true;

  void event_prefix() {
    std::fprintf(f, "%s  ", first ? "\n" : ",\n");
    first = false;
  }

  void complete(const char* name, std::uint32_t pid, unsigned tid, double ts,
                double dur, const char* cat, const std::string& args) {
    event_prefix();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%s,\"dur\":%s,\"cat\":\"%s\"%s}",
                 name, pid, tid, fmt(ts).c_str(), fmt(std::max(dur, 0.0)).c_str(),
                 cat, args.c_str());
  }

  void instant(const char* name, std::uint32_t pid, unsigned tid, double ts,
               const char* cat, const std::string& args) {
    event_prefix();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,"
                 "\"tid\":%u,\"ts\":%s,\"cat\":\"%s\"%s}",
                 name, pid, tid, fmt(ts).c_str(), cat, args.c_str());
  }

  void meta(const char* kind, std::uint32_t pid, unsigned tid,
            const std::string& name) {
    event_prefix();
    if (tid == 0 && std::string(kind) == "process_name") {
      std::fprintf(f,
                   "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                   "\"args\":{\"name\":\"%s\"}}",
                   pid, name.c_str());
    } else {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                   "\"args\":{\"name\":\"%s\"}}",
                   kind, pid, tid, name.c_str());
    }
  }
};

std::string cost_args(double cost, bool gating) {
  std::string args = ",\"args\":{\"cost_ns\":" + fmt(cost);
  if (!gating) args += ",\"critical_path\":false";
  args += "}";
  return args;
}

// Emits the span tree of one record.  Mirrors fold(): serial spans advance
// the cursor, parallel legs fork at it (each leg on its own track).
double emit_spans(JsonWriter& w, const std::vector<Span>& spans, double t,
                  double base, std::uint32_t pid, unsigned tid,
                  unsigned& next_leg_tid) {
  for (const Span& span : spans) {
    switch (span.kind) {
      case Span::Kind::kLeaf:
        if (span.cost > 0.0) {
          w.complete(span.name, pid, tid, base + t, span.cost,
                     to_string(span.comp), cost_args(span.cost, true));
        } else {
          w.instant(span.name, pid, tid, base + t, to_string(span.comp),
                    cost_args(span.cost, true));
        }
        t += span.cost;
        break;
      case Span::Kind::kGroup: {
        w.complete(span.name, pid, tid, base + t, span.cost,
                   to_string(span.comp), cost_args(span.cost, true));
        unsigned sub = next_leg_tid;
        emit_spans(w, span.children, 0.0, base + t, pid, tid, sub);
        t += span.cost;
        break;
      }
      case Span::Kind::kParallel: {
        const double join = fold(t, span);
        w.complete(span.name, pid, tid, base + t, join - t, "parallel",
                   cost_args(join - t, true));
        for (const Span& leg : span.children) {
          const unsigned leg_tid = next_leg_tid++;
          const double leg_end = fold(t, leg.children);
          w.complete(leg.name, pid, leg_tid, base + t, leg_end - t, "leg",
                     cost_args(leg_end - t, leg.gating));
          unsigned sub = next_leg_tid;
          emit_spans(w, leg.children, t, base, pid, leg_tid, sub);
          next_leg_tid = std::max(next_leg_tid, sub);
        }
        t = join;
        break;
      }
      case Span::Kind::kLeg:
        t = emit_spans(w, span.children, t, base, pid, tid, next_leg_tid);
        break;
    }
  }
  return t;
}

}  // namespace

MergedTrace merge_streams(std::span<const Tracer* const> in_stream_order) {
  MergedTrace out;
  for (const Tracer* tracer : in_stream_order) {
    // Each buffer is already seq-ordered (the cap drops the oldest).
    out.records.insert(out.records.end(), tracer->records().begin(),
                       tracer->records().end());
    out.dropped += tracer->dropped();
  }
  return out;
}

bool write_chrome_json(const std::string& path,
                       const std::vector<TraceRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  JsonWriter w{f};

  // One viewer "process" per stream; transactions laid end to end with a
  // small gap so consecutive accesses are visually distinct.
  std::map<std::uint32_t, double> stream_cursor;
  std::map<std::uint32_t, bool> stream_named;
  constexpr double kGap = 20.0;

  for (const TraceRecord& r : records) {
    if (!stream_named[r.stream]) {
      stream_named[r.stream] = true;
      w.meta("process_name", r.stream, 0,
             "stream " + std::to_string(r.stream));
    }
    double& cursor = stream_cursor[r.stream];
    char title[128];
    std::snprintf(title, sizeof(title),
                  "%c core%d line 0x%" PRIx64 " \\u2192 %s", r.op, r.core,
                  r.line, r.source);
    std::string args = ",\"args\":{\"ns\":" + fmt(r.ns) +
                       ",\"seq\":" + std::to_string(r.seq) + "}";
    w.complete(title, r.stream, 0, cursor, r.ns, "transaction", args);
    unsigned next_leg_tid = 1;
    emit_spans(w, r.spans, 0.0, cursor, r.stream, 0, next_leg_tid);
    cursor += r.ns + kGap;
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

bool write_csv(const std::string& path,
               const std::vector<TraceRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "stream,seq,op,core,line,source,total_ns,depth,kind,component,"
               "name,cost_ns,begin_ns,gating\n");

  struct Row {
    std::FILE* f;
    const TraceRecord* r;

    void emit(const std::vector<Span>& spans, double t, int depth,
              bool gating) {
      for (const Span& span : spans) {
        const char* kind = "leaf";
        double end = t;
        switch (span.kind) {
          case Span::Kind::kLeaf: end = t + span.cost; break;
          case Span::Kind::kGroup: kind = "group"; end = t + span.cost; break;
          case Span::Kind::kParallel:
            kind = "parallel";
            end = fold(t, span);
            break;
          case Span::Kind::kLeg:
            kind = "leg";
            end = fold(t, span.children);
            break;
        }
        std::fprintf(f, "%u,%" PRIu64 ",%c,%d,0x%" PRIx64 ",%s,%s,%d,%s,%s,"
                        "\"%s\",%s,%s,%d\n",
                     r->stream, r->seq, r->op, r->core, r->line, r->source,
                     fmt(r->ns).c_str(), depth, kind,
                     span.kind == Span::Kind::kParallel ||
                             span.kind == Span::Kind::kLeg
                         ? ""
                         : to_string(span.comp),
                     span.name, fmt(end - t).c_str(), fmt(t).c_str(),
                     gating ? 1 : 0);
        switch (span.kind) {
          case Span::Kind::kLeaf:
            break;
          case Span::Kind::kGroup:
            emit(span.children, t, depth + 1, gating);
            break;
          case Span::Kind::kParallel:
            for (const Span& leg : span.children) {
              std::vector<Span> one{leg};
              emit(one, t, depth + 1, gating && leg.gating);
            }
            break;
          case Span::Kind::kLeg:
            emit(span.children, t, depth + 1, gating);
            break;
        }
        if (span.kind != Span::Kind::kLeg) t = end;
      }
    }
  };

  for (const TraceRecord& r : records) {
    Row row{f, &r};
    row.emit(r.spans, 0.0, 0, true);
  }
  std::fclose(f);
  return true;
}

bool write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    return write_csv(path, records);
  }
  return write_chrome_json(path, records);
}

}  // namespace hsw::trace
