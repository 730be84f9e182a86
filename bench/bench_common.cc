#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace pane {
namespace bench {

double BenchScale() { return EnvDoubleOr("PANE_BENCH_SCALE", 1.0); }

void PrintHeader(const std::string& title, const std::string& subtitle) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf(
      "================================================================\n");
}

void PrintRow(const std::string& name, const std::vector<std::string>& cells,
              int name_width, int cell_width) {
  std::printf("%-*s", name_width, name.c_str());
  for (const std::string& cell : cells) {
    std::printf(" %*s", cell_width, cell.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string Cell(double value) {
  if (std::isnan(value)) return "-";
  return StrFormat("%.3f", value);
}

std::string TimeCell(double seconds) {
  if (seconds < 0.0) return "-";
  if (seconds >= 100.0) return StrFormat("%.0fs", seconds);
  if (seconds >= 1.0) return StrFormat("%.2fs", seconds);
  return StrFormat("%.0fms", seconds * 1e3);
}

int64_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) return -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    int64_t kb = -1;
    fields >> kb;
    return kb < 0 ? -1 : kb * 1024;
  }
  return -1;
}

std::string MegabyteCell(double bytes) {
  if (bytes < 0.0) return "-";
  return StrFormat("%.1fMB", bytes / (1024.0 * 1024.0));
}

PaneRun TrainPaneOrDie(const AttributedGraph& graph, int k, int num_threads,
                       double alpha, double epsilon, bool greedy_init,
                       int ccd_iterations, int64_t memory_budget_mb) {
  PaneOptions options;
  options.k = k;
  options.num_threads = num_threads;
  options.alpha = alpha;
  options.epsilon = epsilon;
  options.greedy_init = greedy_init;
  options.ccd_iterations = ccd_iterations;
  options.memory_budget_mb = memory_budget_mb;
  PaneRun run;
  auto result = Pane(options).Train(graph, &run.stats);
  PANE_CHECK(result.ok()) << result.status();
  run.embedding = result.MoveValueUnsafe();
  return run;
}

}  // namespace bench
}  // namespace pane
