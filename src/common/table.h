// Plain-text aligned table printing used by the benchmark harness to
// regenerate the paper's tables and figure series.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cryptopim {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with sensible defaults. Usage:
///   Table t({"n", "latency (us)", "paper", "ratio"});
///   t.add_row({"256", fmt_f(68.67), fmt_f(68.67), fmt_f(1.0)});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Insert a horizontal separator before the next row.
  void add_separator();

  void print(std::ostream& os) const;

  std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

/// Fixed-point formatting with `digits` decimals (default 2).
std::string fmt_f(double v, int digits = 2);
/// Integer with thousands separators: 553311 -> "553,311".
std::string fmt_i(std::uint64_t v);
/// Ratio formatted as "12.7x"; "-" for non-finite input.
std::string fmt_x(double v, int digits = 1);
/// Percentage formatted as "+29.0%" / "-5.2%".
std::string fmt_pct(double fraction, int digits = 1);

}  // namespace cryptopim
