// Shared helpers for the experiment benches: aligned table printing,
// source-line accounting for the subjective comparison, and the
// machine-readable result line every bench emits.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"

namespace mrs {
namespace bench {

/// Print a header followed by aligned rows; columns sized to content.
inline void PrintTable(const std::string& title,
                       const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n== %s ==\n", title.c_str());
  if (rows.empty()) return;
  std::vector<size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      std::string cell = rows[r][c];
      cell.resize(widths[c], ' ');
      line += cell;
      if (c + 1 < rows[r].size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule(line.size(), '-');
      std::printf("%s\n", rule.c_str());
    }
  }
}

inline std::string Fmt(const char* fmt, double v) { return StrPrintf(fmt, v); }

/// Count non-blank, non-comment source lines of C++ text.
inline int CountSloc(const std::string& source) {
  int sloc = 0;
  bool in_block_comment = false;
  for (std::string_view raw : SplitChar(source, '\n')) {
    std::string_view line = Trim(raw);
    if (in_block_comment) {
      if (line.find("*/") != std::string_view::npos) in_block_comment = false;
      continue;
    }
    if (line.empty()) continue;
    if (StartsWith(line, "//")) continue;
    if (StartsWith(line, "/*")) {
      if (line.find("*/") == std::string_view::npos) in_block_comment = true;
      continue;
    }
    ++sloc;
  }
  return sloc;
}

/// One named numeric result; `name` must be a plain identifier (no
/// quoting is applied).
struct BenchMetric {
  std::string name;
  double value = 0;
};

/// Emit the bench's machine-readable result as a single JSON line:
/// prefixed "[mrs-bench-json] " on stdout for humans/greppers, and the
/// bare JSON appended to the file named by $MRS_BENCH_JSON when set
/// (how the `bench_snapshot` CMake target collects BENCH_obs.json).
inline void EmitBenchJson(const std::string& bench,
                          const std::vector<BenchMetric>& metrics) {
  std::string json = "{\"bench\":\"" + bench + "\",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":" +
            StrPrintf("%.9g", metrics[i].value);
  }
  json += "}}";
  std::printf("[mrs-bench-json] %s\n", json.c_str());
  if (const char* path = std::getenv("MRS_BENCH_JSON")) {
    if (std::FILE* f = std::fopen(path, "a")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
}

/// Worker counts for the thread scaling sweep: 1/2/4 everywhere, plus 8
/// when the machine actually has eight hardware threads to scale onto.
inline std::vector<int> ScalingWorkerCounts() {
  std::vector<int> counts = {1, 2, 4};
  if (std::thread::hardware_concurrency() >= 8) counts.push_back(8);
  return counts;
}

/// Registry counters worth snapshotting around one thread-runner run,
/// paired with the metric-key suffix they are emitted under.
inline const std::vector<std::pair<std::string, std::string>>&
ThreadScalingCounters() {
  static const std::vector<std::pair<std::string, std::string>> kCounters = {
      {"mrs.pool.steals", "steals"},
  };
  return kCounters;
}

/// Snapshot the scaling counters before a run; pass the result to
/// AppendCounterDeltas afterwards.
inline std::vector<int64_t> SnapshotThreadCounters() {
  std::vector<int64_t> values;
  for (const auto& [name, suffix] : ThreadScalingCounters()) {
    (void)suffix;
    values.push_back(obs::Registry::Instance().GetCounter(name)->value());
  }
  return values;
}

/// Append "<prefix>_<suffix>" = current − before[i] for each scaling
/// counter: the pool's steal activity CI archives alongside the timing
/// curve in BENCH_thread.json.
inline void AppendCounterDeltas(const std::string& prefix,
                                const std::vector<int64_t>& before,
                                std::vector<BenchMetric>* metrics) {
  const auto& counters = ThreadScalingCounters();
  for (size_t i = 0; i < counters.size() && i < before.size(); ++i) {
    int64_t now =
        obs::Registry::Instance().GetCounter(counters[i].first)->value();
    metrics->push_back({prefix + "_" + counters[i].second,
                        static_cast<double>(now - before[i])});
  }
}

}  // namespace bench
}  // namespace mrs
