// Shared helpers of the experiments in bench/sweeps.h: the aligned text
// table each one prints (and FinishSweep writes to its BENCH_<name>.json)
// and the verdict cell of a run's history.

#ifndef HERMES_BENCH_BENCH_UTIL_H_
#define HERMES_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/str.h"
#include "workload/driver.h"

namespace hermes::bench {

// Fixed-width text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Args>
  void AddRow(const Args&... args) {
    std::vector<std::string> row;
    (row.push_back(ToCell(args)), ...);
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    PrintRow(headers_, widths);
    std::string sep;
    for (size_t i = 0; i < widths.size(); ++i) {
      if (i > 0) sep += "-+-";
      sep += std::string(widths[i], '-');
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
  }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  static std::string ToCell(const std::string& s) { return s; }
  static std::string ToCell(const char* s) { return s; }
  static std::string ToCell(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
  }
  template <typename T>
  static std::string ToCell(const T& v) {
    return StrCat(v);
  }

  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& widths) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += row[i];
      if (i < widths.size() && row[i].size() < widths[i]) {
        line += std::string(widths[i] - row[i].size(), ' ');
      }
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline const char* VerdictCell(const workload::RunResult& r) {
  if (!r.history_checked) return "-";
  if (!r.replay_consistent) return "VIOLATED";
  switch (r.verdict) {
    case history::Verdict::kSerializable:
      return "VSR";
    case history::Verdict::kNotSerializable:
      return "NOT-VSR";
    case history::Verdict::kUnknown:
      return r.commit_graph_acyclic ? "CG-acyclic" : "CG-CYCLIC";
  }
  return "?";
}

}  // namespace hermes::bench

#endif  // HERMES_BENCH_BENCH_UTIL_H_
