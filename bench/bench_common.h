// Shared harness bits for the table / figure reproduction binaries: dataset
// construction at bench scale, method runners, and row printing that mirrors
// the paper's tables.
#pragma once

#include <string>
#include <vector>

#include "src/core/pane.h"
#include "src/graph/graph.h"

namespace pane {
namespace bench {

/// Global scale multiplier from PANE_BENCH_SCALE (default 1.0). Dataset
/// sizes (n, m, |E_R|) are multiplied by it, so `PANE_BENCH_SCALE=4` runs
/// the sweep at 4x the default sizes.
double BenchScale();

/// Prints a section header for a table / figure.
void PrintHeader(const std::string& title, const std::string& subtitle);

/// Prints one "name: value value ..." row with fixed-width columns.
void PrintRow(const std::string& name, const std::vector<std::string>& cells,
              int name_width = 22, int cell_width = 9);

/// "0.913" fixed three-decimal cell, or "-" for NaN (method not run).
std::string Cell(double value);

/// Duration cell ("1.23s" / "456ms"), or "-" for negative (not run).
std::string TimeCell(double seconds);

/// Lifetime peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or -1 where unavailable. Monotone: to compare the
/// footprint of several configurations in one process, run the smallest
/// first and watch the high-water mark move.
int64_t PeakRssBytes();

/// "123.4MB" cell, or "-" for negative (unavailable).
std::string MegabyteCell(double bytes);

/// Trains PANE with paper-default alpha / epsilon. `memory_budget_mb` is
/// the whole-pipeline budget of PaneOptions: a budget below the two n x d
/// slabs spills them, one that holds them keeps them in RAM.
struct PaneRun {
  PaneEmbedding embedding;
  PaneStats stats;
};
PaneRun TrainPaneOrDie(const AttributedGraph& graph, int k, int num_threads,
                       double alpha = 0.5, double epsilon = 0.015,
                       bool greedy_init = true, int ccd_iterations = 0,
                       int64_t memory_budget_mb = 0);

}  // namespace bench
}  // namespace pane
