// Cell shifting (paper Section 4.1) — the spreading engine of coarse
// legalization.
//
// A uniform density mesh covers the chip (bins = 4 cell widths x 4 cell
// heights x 1 layer; the paper uses 2 x 2, see DESIGN.md §4). Per iteration
// and per direction, every row of bins is re-spaced: bin widths are remapped
// through the piecewise curve of Eq. 16 (expansion for density > 1,
// contraction for density < 1) and cells are mapped into the new bin extents
// with Eq. 17. Iterations stop at the target max density, or earlier once
// the total overflow ratio stops falling by at least 10% per iteration.
//
// The two FastPlace [13] defects the paper fixes are handled the same way:
//   * boundary cross-over: all boundaries in a row are recomputed together
//     from positive widths and renormalized to the row extent, so ordering
//     is preserved by construction;
//   * needless spreading: a row whose bins are all at density <= 1 is left
//     untouched — sparse bins contract only to make room for over-congested
//     bins in the *same row*.
//
// The movement-retention factor beta_p (Eq. 17) is chosen per cell from a
// small candidate set to minimize objective degradation, evaluated through
// the shared ObjectiveEvaluator.
//
// Parallel schedule (DESIGN.md §5): one sweep's rows are independent work
// units — the density mesh is frozen at sweep start and every cell occupies
// exactly one bin of one row, so no two rows ever touch the same cell. Rows
// are grouped by the 4-colored window tiling of the cross grid; windows of a
// color plan their shifts concurrently against the frozen placement through
// thread-slot-local DeltaViews, then the planned moves commit serially in
// fixed window order — byte-identical placements for any thread count.
#pragma once

#include "place/bins.h"
#include "place/objective.h"

namespace p3d::place {

/// Why CellShifter::Run stopped.
enum class ShiftStop {
  kTarget,  // max bin density reached the target
  kFlat,    // one iteration cut the total overflow ratio by less than 10%
  kCap,     // max_iters iterations ran
};

struct ShiftStats {
  int iterations = 0;
  double final_max_density = 0.0;
  /// Total overflow ratio at exit: sum of max(0, area - capacity) over all
  /// shift bins, divided by the total cell area.
  double final_overflow = 0.0;
  ShiftStop stop = ShiftStop::kCap;
};

class CellShifter {
 public:
  explicit CellShifter(ObjectiveEvaluator& eval);

  /// Iterates z/x/y shifting sweeps until the max bin density drops to
  /// `target_density`, an iteration cuts the total overflow ratio by less
  /// than 10%, or `max_iters` iterations have run. Mutates the evaluator's
  /// placement.
  ShiftStats Run(int max_iters, double target_density);

 private:
  /// One shifting sweep along one axis (0 = x, 1 = y, 2 = z/layers).
  void SweepAxis(BinGrid& grid, int axis);

  /// Eq. 16 width curve.
  double WidthFactor(double density) const;

  /// Plans Eq. 17 for one cell along one axis with the best beta from
  /// {1, 0.5, 0.25} (or beta = 1 when retention is disallowed, i.e. the
  /// source bin is badly congested), evaluating candidates through `view`
  /// (read-only). Returns true and the target coordinates when the best
  /// candidate actually moves the cell; the windowed commit phase applies it.
  bool PlanCellShift(DeltaView& view, std::int32_t cell, int axis,
                     double new_coord, bool allow_retention, double* out_x,
                     double* out_y, int* out_layer) const;

  ObjectiveEvaluator& eval_;
  int chip_layers_;
  double a_lower_;
  double a_upper_;
  double b_;
};

}  // namespace p3d::place
