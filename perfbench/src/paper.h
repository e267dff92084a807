// The paper cells table (paper_cells.csv) and paper_err_pct.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct PaperCell {
  double lo = 0.0;  // a point value has lo == hi; a band has lo < hi
  double hi = 0.0;
  std::string unit;
};

// Reads `id,paper_lo,paper_hi,unit,known_deviation,source` rows; nullopt
// when the file is missing or a row is malformed.
std::optional<std::map<std::string, PaperCell>> load_paper_cells(
    const std::string& path);

// Relative distance of `value` from the cell's point or band (0 inside it).
double relative_error(const PaperCell& cell, double value);

// Mean relative error in percent over the measured (id, value) pairs; ids
// missing from the table are returned in `unknown`.
using Measured = std::pair<std::string, double>;  // cell id, value
double paper_err_pct(const std::map<std::string, PaperCell>& table,
                     const std::vector<Measured>& measured,
                     std::vector<std::string>* unknown);

}  // namespace perfbench
