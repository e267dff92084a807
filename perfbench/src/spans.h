// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent).  Spans nest through an RAII scope;
// counts are recorded at the same boundaries so per-layer ratios are taken
// where the work happens.  Nothing is written until the run ends; a layer's
// self time is its span minus its children, computable from the CSV.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Spans {
 public:
  struct Record {
    const char* name;
    double start_s;
    double end_s;
    std::int64_t parent;  // index into records(), -1 for a root
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  Spans() : origin_(Clock::now()) {}

  [[nodiscard]] Scope span(const char* name) { return Scope(*this, name); }
  void count(const std::string& name, std::uint64_t n) { counts_[name] += n; }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::uint64_t counted(const std::string& name) const;
  // Summed duration of every span with this name.
  [[nodiscard]] double total_s(const std::string& name) const;

  // Writes one CSV row per span; false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
  std::map<std::string, std::uint64_t> counts_;
};

}  // namespace perfbench
