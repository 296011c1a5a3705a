// End-to-end full-flow thread-scaling harness (the scale tier).
//
// Where bench_legalize_scaling isolates the coarse phase, this harness runs
// the ENTIRE flow — global placement, coarse legalization, parallel rowopt +
// detailed legalization — on one scale-tier circuit (src/io ScaleTierSpec:
// "lite" 100k / "scale1" 210k / "mega" 1M cells) at 1, 2, 4, and 8 threads,
// and reports the per-phase time breakdown next to the totals.
//
// Environment knobs (on top of the bench_common ones):
//   SCALE_TIER   which preset to run: lite (default), scale1, mega.
//   REPRO_SCALE  multiplies the preset's cell count and area, so the CI
//                smoke run (default 0.05) stays seconds-sized while
//                REPRO_SCALE=1 SCALE_TIER=scale1 reproduces the 210k-cell
//                acceptance run and SCALE_TIER=mega the million-cell one.
//
// Each thread count (1, 2, 4, 8, plus min(8, hw) when the host has 5-7
// hardware threads) runs kReps times and the fastest run counts, so one
// descheduled run on a shared host cannot fail the gate.
//
// Two gates ride on the output (scripts/check_bench_regression.py, baseline
// bench/baselines/fullflow_scaling.json):
//   * placements_identical — the determinism contract, end to end. Every
//     run must produce the thread=1 placement TO THE BYTE; the harness
//     exits non-zero the moment any run drifts.
//   * scaling_ok — the throughput claim, checked at min(8, hw) threads:
//     >= 2.5x at 8 threads (the flow includes serial global-placement work,
//     so the bar is lower than the coarse-phase-only 3x), and
//     >= kFloorBelow8 at 4-7 threads, a floor set about 25% below the
//     median of three runs measured on a 4-vCPU host at the CI setting
//     (REPRO_FAST=1, default REPRO_SCALE). Hosts with fewer than 4 hardware
//     threads pass vacuously; hw_threads and gate_threads record which case
//     applied.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

constexpr int kReps = 3;
constexpr double kFloor8 = 2.5;
constexpr double kFloorBelow8 = 1.75;

p3d::io::SyntheticSpec TierSpec() {
  std::string tier = "lite";
  if (const char* env = std::getenv("SCALE_TIER")) {
    if (env[0] != '\0') tier = env;
  }
  p3d::io::SyntheticSpec spec = p3d::io::ScaleTierSpec(tier);
  const double scale = p3d::bench::Scale();
  spec.num_cells = std::max<std::int32_t>(
      16, static_cast<std::int32_t>(std::lround(spec.num_cells * scale)));
  spec.total_area_m2 *= scale;
  return spec;
}

}  // namespace

int main() {
  p3d::bench::BenchSetup setup(
      "fullflow_scaling",
      "Full flow (global + coarse + rowopt + detailed) thread scaling");

  const p3d::io::SyntheticSpec spec = TierSpec();
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  const p3d::place::PlacerParams base_params = p3d::bench::BaseParams();

  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const int gate_threads = std::min(8, hw_threads);
  std::vector<int> thread_counts = {1, 2, 4, 8};
  if (gate_threads > 4 && gate_threads < 8) {
    thread_counts.insert(thread_counts.end() - 1, gate_threads);
  }

  std::printf("%-8s %-9s %-8s %-10s %-10s %-11s %-10s %-10s\n", "tier",
              "cells", "threads", "global_s", "coarse_s", "detailed_s",
              "total_s", "identical");
  std::vector<double> totals;
  p3d::place::Placement reference;
  bool all_identical = true;
  double gate_total = 0.0;
  for (const int threads : thread_counts) {
    p3d::place::PlacerParams params = base_params;
    params.threads = threads;
    p3d::place::PlacementResult best;
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
      p3d::place::PlacementResult result =
          p3d::bench::RunPlacer(nl, params, /*with_fea=*/false);
      if (threads == thread_counts.front() && rep == 0) {
        reference = result.placement;
      } else {
        identical = identical && result.placement.x == reference.x &&
                    result.placement.y == reference.y &&
                    result.placement.layer == reference.layer;
      }
      if (rep == 0 || result.t_total < best.t_total) best = std::move(result);
    }
    all_identical = all_identical && identical;
    totals.push_back(best.t_total);
    if (threads == gate_threads) gate_total = best.t_total;
    std::printf("%-8s %-9d %-8d %-10.3f %-10.3f %-11.3f %-10.3f %-10s\n",
                spec.name.c_str(), nl.NumCells(), threads, best.t_global,
                best.t_coarse, best.t_detailed, best.t_total,
                identical ? "yes" : "NO");
    std::fflush(stdout);
    setup.Row({{"tier", spec.name},
               {"cells", nl.NumCells()},
               {"threads", threads},
               {"global_s", best.t_global},
               {"coarse_s", best.t_coarse},
               {"detailed_s", best.t_detailed},
               {"total_s", best.t_total},
               {"legal", best.legal},
               {"identical", identical}});
  }

  const double speedup_8t =
      totals.back() > 0.0 ? totals.front() / totals.back() : 0.0;
  const double speedup_gate =
      gate_total > 0.0 ? totals.front() / gate_total : 0.0;
  const double floor = gate_threads >= 8 ? kFloor8 : kFloorBelow8;
  const bool scaling_ok = hw_threads < 4 || speedup_gate >= floor;
  std::printf("\n# full-flow speedup at 8 threads: %.2fx; at %d threads: "
              "%.2fx (floor %.2fx, hw threads: %d)  placements %s\n",
              speedup_8t, gate_threads, speedup_gate, floor, hw_threads,
              all_identical ? "byte-identical" : "DIFFER (BUG)");
  setup.Row({{"hw_threads", hw_threads},
             {"gate_threads", gate_threads},
             {"fullflow_speedup_8t", speedup_8t},
             {"fullflow_speedup_gate", speedup_gate},
             {"speedup_floor", floor},
             {"placements_identical", all_identical},
             {"scaling_ok", scaling_ok}});
  setup.recorder.Flush();

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: thread count changed the placement bytes\n");
    return 1;
  }
  return 0;
}
