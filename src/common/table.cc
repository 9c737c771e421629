#include "common/table.h"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace cryptopim {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(Row{std::move(cells), pending_separator_});
  pending_separator_ = false;
}

void Table::add_separator() { pending_separator_ = true; }

namespace {

void print_rule(std::ostream& os, const std::vector<std::size_t>& widths) {
  for (std::size_t c = 0; c < widths.size(); ++c) {
    os << '+' << std::string(widths[c] + 2, '-');
  }
  os << "+\n";
}

void print_cells(std::ostream& os, const std::vector<std::string>& cells,
                 const std::vector<std::size_t>& widths) {
  for (std::size_t c = 0; c < widths.size(); ++c) {
    const std::string& cell = c < cells.size() ? cells[c] : std::string{};
    os << "| " << cell << std::string(widths[c] - cell.size() + 1, ' ');
  }
  os << "|\n";
}

}  // namespace

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const Row& r : rows_) {
    for (std::size_t c = 0; c < r.cells.size(); ++c) {
      widths[c] = std::max(widths[c], r.cells[c].size());
    }
  }
  print_rule(os, widths);
  print_cells(os, header_, widths);
  print_rule(os, widths);
  for (const Row& r : rows_) {
    if (r.separator_before) print_rule(os, widths);
    print_cells(os, r.cells, widths);
  }
  print_rule(os, widths);
}

std::string fmt_f(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string fmt_i(std::uint64_t v) {
  std::string raw = std::to_string(v);
  std::string out;
  const std::size_t n = raw.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(raw[i]);
  }
  return out;
}

std::string fmt_x(double v, int digits) {
  if (!std::isfinite(v)) return "-";
  return fmt_f(v, digits) + "x";
}

std::string fmt_pct(double fraction, int digits) {
  const double pct = fraction * 100.0;
  std::string s = fmt_f(pct, digits) + "%";
  if (pct >= 0) s.insert(s.begin(), '+');
  return s;
}

}  // namespace cryptopim
