// Coarse-legalization thread-scaling harness.
//
// Measures the windowed parallel schedule of the coarse-legalization move
// engines (moveswap + cell shifting, DESIGN.md §5): the largest configured
// circuit is globally placed once, then the full coarse phase (global +
// local move/swap rounds followed by cell shifting) is re-run from that
// identical snapshot at 1, 2, 4, and 8 threads (plus min(8, hw) when the
// host has 5-7 hardware threads). Each thread count is timed kReps times and
// the fastest run counts, so one descheduled run on a shared host cannot
// fail the gate.
//
// Two gates ride on the output (scripts/check_bench_regression.py, baseline
// bench/baselines/legalize_scaling.json):
//   * placements_identical — the determinism contract. Every run must
//     produce the thread=1 placement TO THE BYTE; this harness exits
//     non-zero the moment any run drifts.
//   * scaling_ok — the throughput claim, checked at min(8, hw) threads:
//     >= 3x at 8 threads, and >= kFloorBelow8 at 4-7 threads, a floor set
//     about 25% below the median of three runs measured on a 4-vCPU host at
//     REPRO_SCALE=0.2 (the CI setting). Hosts with fewer than 4 hardware
//     threads pass vacuously; hw_threads and gate_threads record which case
//     applied.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "place/chip.h"
#include "place/global.h"
#include "place/moveswap.h"
#include "place/shift.h"
#include "util/timer.h"

namespace {

constexpr int kReps = 3;
constexpr double kFloor8 = 3.0;
constexpr double kFloorBelow8 = 1.2;

}  // namespace

int main() {
  p3d::bench::BenchSetup setup(
      "legalize_scaling",
      "Coarse legalization: windowed parallel schedule thread scaling");

  const auto spec = p3d::bench::Circuits().back();
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  p3d::place::PlacerParams params = p3d::bench::BaseParams();
  params.SyncStack();
  const auto chip = p3d::place::Chip::Build(
      nl, params.num_layers, params.whitespace, params.inter_row_space);
  if (!chip.ok()) {
    std::fprintf(stderr, "FAIL: chip build: %s\n",
                 chip.status().message().c_str());
    return 1;
  }

  // One global placement produces the realistic over-dense coarse input; all
  // timed runs start from this identical snapshot.
  p3d::place::Placement coarse_input;
  {
    p3d::place::ObjectiveEvaluator eval(nl, *chip, params);
    p3d::place::GlobalPlacer global(eval);
    p3d::place::Placement initial;
    initial.Resize(static_cast<std::size_t>(nl.NumCells()));
    coarse_input = *global.Run(initial);
  }

  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const int gate_threads = std::min(8, hw_threads);
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (gate_threads > 4 && gate_threads < 8) {
    thread_counts.insert(thread_counts.end() - 1, gate_threads);
  }

  std::printf("%-8s %-10s %-10s %-12s %-10s\n", "circuit", "cells", "threads",
              "coarse_s", "identical");
  std::vector<double> times;
  p3d::place::Placement reference;
  bool all_identical = true;
  double gate_seconds = 0.0;
  for (const int threads : thread_counts) {
    p3d::place::PlacerParams run_params = params;
    run_params.threads = threads;
    double seconds = 0.0;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      p3d::place::ObjectiveEvaluator eval(nl, *chip, run_params);
      eval.SetPlacement(coarse_input);
      // Same engine seeds as Placer3D::Run, so the pass sequence matches the
      // production coarse phase.
      p3d::place::MoveSwapOptimizer mso(eval,
                                        run_params.seed ^ 0xabcdef12345ULL);
      p3d::place::CellShifter shifter(eval);

      p3d::util::Timer timer;
      for (int i = 0; i < std::max(run_params.moveswap_rounds, 1); ++i) {
        mso.RunGlobal(run_params.target_region_bins);
        mso.RunLocal();
      }
      shifter.Run(run_params.shift_max_iters,
                  run_params.shift_target_density);
      const double rep_seconds = timer.Seconds();
      seconds = rep == 0 ? rep_seconds : std::min(seconds, rep_seconds);

      if (threads == thread_counts.front() && rep == 0) {
        reference = eval.placement();
      } else {
        identical = identical && eval.placement().x == reference.x &&
                    eval.placement().y == reference.y &&
                    eval.placement().layer == reference.layer;
      }
    }
    all_identical = all_identical && identical;
    times.push_back(seconds);
    if (threads == gate_threads) gate_seconds = seconds;
    std::printf("%-8s %-10d %-10d %-12.3f %-10s\n", spec.name.c_str(),
                nl.NumCells(), threads, seconds, identical ? "yes" : "NO");
    std::fflush(stdout);
    setup.Row({{"circuit", spec.name},
               {"cells", nl.NumCells()},
               {"threads", threads},
               {"coarse_s", seconds},
               {"identical", identical}});
  }

  const double speedup_8t =
      times.back() > 0.0 ? times.front() / times.back() : 0.0;
  const double speedup_gate =
      gate_seconds > 0.0 ? times.front() / gate_seconds : 0.0;
  const double floor = gate_threads >= 8 ? kFloor8 : kFloorBelow8;
  const bool scaling_ok = hw_threads < 4 || speedup_gate >= floor;
  std::printf("\n# coarse speedup at 8 threads: %.2fx; at %d threads: %.2fx "
              "(floor %.2fx, hw threads: %d)  placements %s\n",
              speedup_8t, gate_threads, speedup_gate, floor, hw_threads,
              all_identical ? "byte-identical" : "DIFFER (BUG)");
  setup.Row({{"hw_threads", hw_threads},
             {"gate_threads", gate_threads},
             {"coarse_speedup_8t", speedup_8t},
             {"coarse_speedup_gate", speedup_gate},
             {"speedup_floor", floor},
             {"placements_identical", all_identical},
             {"scaling_ok", scaling_ok}});
  setup.recorder.Flush();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: legalization threads changed the placement bytes\n");
    return 1;
  }
  return 0;
}
