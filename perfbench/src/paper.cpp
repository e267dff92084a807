#include "paper.h"

#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {

std::optional<std::map<std::string, PaperCell>> load_paper_cells(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::map<std::string, PaperCell> cells;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header) {
      header = false;
      continue;
    }
    std::stringstream row(line);
    std::string id, lo, hi, unit;
    if (!std::getline(row, id, ',') || !std::getline(row, lo, ',') ||
        !std::getline(row, hi, ',') || !std::getline(row, unit, ',')) {
      return std::nullopt;
    }
    PaperCell cell;
    try {
      cell.lo = std::stod(lo);
      cell.hi = std::stod(hi);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    if (!(cell.lo > 0.0) || cell.hi < cell.lo) return std::nullopt;
    cell.unit = unit;
    cells[id] = cell;
  }
  if (cells.empty()) return std::nullopt;
  return cells;
}

double relative_error(const PaperCell& cell, double value) {
  if (value < cell.lo) return (cell.lo - value) / cell.lo;
  if (value > cell.hi) return (value - cell.hi) / cell.hi;
  return 0.0;
}

double paper_err_pct(const std::map<std::string, PaperCell>& table,
                     const std::vector<Measured>& measured,
                     std::vector<std::string>* unknown) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& [id, value] : measured) {
    const auto it = table.find(id);
    if (it == table.end()) {
      unknown->push_back(id);
      continue;
    }
    sum += relative_error(it->second, value);
    ++n;
  }
  return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

}  // namespace perfbench
