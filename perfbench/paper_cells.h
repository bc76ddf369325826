// The paper reference cells behind paper_err_pct and paper_max_err_pct.
//
// One row per cell: the workload that scores it, the job and quantity it
// is compared with, the paper's value, and where EXPERIMENTS.md records
// that value. A cell's error is |sim / paper - 1| x 100.
#ifndef PERFBENCH_PAPER_CELLS_H_
#define PERFBENCH_PAPER_CELLS_H_

namespace perfbench {

// What a cell compares, computed from the job's JobReport.
enum class Quantity {
  kMBps,          // JobReport::MBps(): data bytes over the streaming window
  kGBphPerTape,   // JobReport::GBph() / tapes
  kDumpCpuPct,    // CPU % of the dump's stream phase (files or blocks)
  kStreamCpuPct,  // JobReport::StreamCpuUtilization()
};

struct PaperCell {
  const char* workload;
  const char* job;
  Quantity quantity;
  double paper;
  const char* source;
};

inline constexpr PaperCell kPaperCells[] = {
    {"table2_local", "logical_backup", Quantity::kMBps, 7.2,
     "EXPERIMENTS.md Table 2: Logical Backup, paper MB/s ~7.2"},
    {"table2_local", "logical_restore", Quantity::kMBps, 6.5,
     "EXPERIMENTS.md Table 2: Logical Restore, paper MB/s ~6.5"},
    {"table2_local", "physical_backup", Quantity::kMBps, 8.5,
     "EXPERIMENTS.md Table 2: Physical Backup, paper MB/s ~8.5"},
    {"table2_local", "physical_restore", Quantity::kMBps, 9.0,
     "EXPERIMENTS.md Table 2: Physical Restore, paper MB/s ~9.0"},
    {"parallel4_local", "logical_backup", Quantity::kGBphPerTape, 17.4,
     "EXPERIMENTS.md Table 5: Logical backup GB/h (per tape) 69.6 (17.4)"},
    {"parallel4_local", "physical_backup", Quantity::kGBphPerTape, 27.6,
     "EXPERIMENTS.md Table 5: Physical backup GB/h (per tape) 110 (27.6)"},
    {"parallel4_local", "logical_backup", Quantity::kDumpCpuPct, 90.0,
     "EXPERIMENTS.md Table 5: Logical dump CPU (stream phase) ~90%"},
    {"parallel4_local", "physical_backup", Quantity::kDumpCpuPct, 30.0,
     "EXPERIMENTS.md Table 5: Physical dump CPU ~30%"},
    {"parallel4_local", "physical_restore", Quantity::kStreamCpuPct, 41.0,
     "EXPERIMENTS.md Table 5: Physical restore CPU 41%"},
    // The remote night-1 dump is a level-0 logical dump to one DLT; the
    // 125 MB/s link leaves the tape as the bottleneck, so the paper's
    // single-drive logical rate applies (its section 2 stream-portability
    // claim).
    {"remote_nightly", "night1_backup", Quantity::kMBps, 7.2,
     "EXPERIMENTS.md Table 2: Logical Backup, paper MB/s ~7.2"},
};

}  // namespace perfbench

#endif  // PERFBENCH_PAPER_CELLS_H_
