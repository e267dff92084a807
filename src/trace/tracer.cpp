#include "trace/tracer.h"

#include <cassert>
#include <utility>

namespace hsw::trace {

void Tracer::begin_access(char op, int core, std::uint64_t line) {
  // A dangling open access (an engine path that returned without closing)
  // would silently corrupt the next record; drop it loudly in debug builds.
  assert(!recording_ && "begin_access with an access still open");
  current_ = TraceRecord{};
  current_.stream = stream_;
  current_.seq = seq_++;
  current_.op = op;
  current_.core = core;
  current_.line = line;
  open_.clear();
  recording_ = true;
}

std::vector<Span>& Tracer::sink_spans() {
  return open_.empty() ? current_.spans : open_.back().children;
}

void Tracer::leaf(Component comp, const char* name, double cost) {
  if (!recording_) return;
  Span span;
  span.kind = Span::Kind::kLeaf;
  span.comp = comp;
  span.name = name;
  span.cost = cost;
  sink_spans().push_back(std::move(span));
}

void Tracer::open_group(Component comp, const char* name) {
  if (!recording_) return;
  Span span;
  span.kind = Span::Kind::kGroup;
  span.comp = comp;
  span.name = name;
  open_.push_back(std::move(span));
}

void Tracer::close_group(double total) {
  if (!recording_) return;
  assert(!open_.empty() && open_.back().kind == Span::Kind::kGroup);
  Span span = std::move(open_.back());
  open_.pop_back();
  span.cost = total;
  sink_spans().push_back(std::move(span));
}

void Tracer::open_parallel(const char* name) {
  if (!recording_) return;
  Span span;
  span.kind = Span::Kind::kParallel;
  span.name = name;
  open_.push_back(std::move(span));
}

void Tracer::open_leg(const char* name) {
  if (!recording_) return;
  assert(!open_.empty() && open_.back().kind == Span::Kind::kParallel);
  Span span;
  span.kind = Span::Kind::kLeg;
  span.name = name;
  open_.push_back(std::move(span));
}

void Tracer::close_leg() {
  if (!recording_) return;
  assert(!open_.empty() && open_.back().kind == Span::Kind::kLeg);
  Span span = std::move(open_.back());
  open_.pop_back();
  assert(!open_.empty() && open_.back().kind == Span::Kind::kParallel);
  open_.back().children.push_back(std::move(span));
}

void Tracer::close_parallel(Join join) {
  if (!recording_) return;
  assert(!open_.empty() && open_.back().kind == Span::Kind::kParallel);
  Span span = std::move(open_.back());
  open_.pop_back();
  switch (join) {
    case Join::kAll:
      break;
    case Join::kWinner:
      // The engine returned through the most recently closed leg (a
      // cache-to-cache forward): earlier legs happened — their state
      // transitions are real — but never gated the requester.
      for (std::size_t i = 0; i + 1 < span.children.size(); ++i) {
        span.children[i].gating = false;
      }
      break;
    case Join::kNone:
      for (Span& leg : span.children) leg.gating = false;
      break;
  }
  sink_spans().push_back(std::move(span));
}

const AccessAttribution* Tracer::end_access(double ns, const char* source) {
  if (!recording_) return nullptr;
  assert(open_.empty() && "end_access with containers still open");
  recording_ = false;
  current_.ns = ns;
  current_.source = source;
  attribution_ = attribute(current_.spans);
  if (mode_ == Mode::kFull) {
    if (records_.size() >= capacity_) {
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back(std::move(current_));
  }
  return &attribution_;
}

}  // namespace hsw::trace
