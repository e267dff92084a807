#include "spans.h"

#include <cstdio>

namespace perfbench {

Spans::Scope::Scope(Spans& spans, const char* name)
    : spans_(spans), index_(spans.records_.size()) {
  const std::int64_t parent =
      spans.open_.empty() ? -1 : static_cast<std::int64_t>(spans.open_.back());
  spans.records_.push_back(
      {name, seconds_between(spans.origin_, Clock::now()), 0.0, parent});
  spans.open_.push_back(index_);
}

Spans::Scope::~Scope() {
  spans_.records_[index_].end_s = seconds_between(spans_.origin_, Clock::now());
  spans_.open_.pop_back();
}

std::uint64_t Spans::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

double Spans::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (name == r.name) total += r.end_s - r.start_s;
  }
  return total;
}

bool Spans::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index,name,start_s,end_s,parent\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out, "%zu,%s,%.9f,%.9f,%lld\n", i, r.name, r.start_s,
                 r.end_s, static_cast<long long>(r.parent));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
