// Figure 15 — speedup of incremental MapReduce (Incoop on Inc-HDFS, splits
// produced by Shredder) over stock Hadoop, as the fraction of changed input
// grows from 0% to 25%, for Word-Count, Co-occurrence Matrix and K-means.
//
// Speedups are real wall-clock ratios of the two runtimes executing on the
// same mutated input, printed on stderr. stdout carries what repeats byte
// for byte (tests/golden/ pins it): each workload's map and reduce task
// reuse counts and whether every cell's outputs matched.
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "inchdfs/experiment.h"

int main() {
  using namespace shredder;
  using namespace shredder::inchdfs;
  bench::print_header(
      "F15", "Figure 15: incremental-computation speedup vs input change",
      "log-scale speedups, largest at small change fractions and decaying as "
      "changes grow; map-heavy jobs (co-occurrence) benefit most");

  const double changes[] = {0.0, 0.05, 0.10, 0.15, 0.20, 0.25};
  const Workload workloads[] = {Workload::kWordCount, Workload::kCoOccurrence,
                                Workload::kKMeans};

  TablePrinter t({"Change%", "MapReuse(WC)", "RedReuse(WC)", "MapReuse(CO)",
                  "RedReuse(CO)", "MapReuse(KM)", "RedReuse(KM)", "Outputs"},
                 15);
  TablePrinter host({"Change%", "Word-Count", "Co-occurrence", "K-means"}, 15);
  for (const double change : changes) {
    const std::string label = TablePrinter::fmt(change * 100, 0);
    std::vector<std::string> row = {label};
    std::vector<std::string> host_row = {label};
    bool match = true;
    for (const Workload w : workloads) {
      ExperimentConfig cfg;
      cfg.workload = w;
      cfg.input_bytes = w == Workload::kKMeans ? 8ull << 20 : 24ull << 20;
      cfg.change_fraction = change;
      cfg.seed = 1500 + static_cast<std::uint64_t>(change * 100);
      const auto r = run_incremental_experiment(cfg);
      match = match && r.outputs_match;
      row.push_back(std::to_string(r.map_reused) + "/" +
                    std::to_string(r.map_tasks));
      row.push_back(std::to_string(r.reduce_reused) + "/" +
                    std::to_string(r.reduce_tasks));
      host_row.push_back(TablePrinter::fmt(r.speedup, 1) + "x");
    }
    row.push_back(match ? "match" : "MISMATCH");
    t.add_row(row);
    host.add_row(host_row);
  }
  t.print();
  std::fputs(host.to_string().c_str(), stderr);
  std::printf("(reuse = memoized tasks / tasks on the mutated input; outputs "
              "= memoized and stock runtimes' outputs compared on every "
              "cell; speedups, stock-runtime wall time / memoized-runtime "
              "wall time, on stderr)\n");
  return 0;
}
