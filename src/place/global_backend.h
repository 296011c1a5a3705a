// GlobalPlacerBackend — the interface of the global-placement phase.
//
// Placer3D::Run drives the backend PlacerParams::global_backend selects
// through this interface. The one backend is GlobalPlacer (place/global.h),
// 3D recursive bisection, the paper's Section 3 engine. It honors the
// library-wide determinism contract: same seed + same inputs produce a
// byte-identical placement at ANY thread count (DESIGN.md §5), so a backend
// is a pure function of (netlist, chip, params, initial).
//
// GlobalPlaceStats is the phase summary handed to PhaseObserver::OnPhase at
// the "global" boundary: a shared core (backend name, iteration count, cells
// placed) plus the bisection detail payload.
#pragma once

#include <memory>

#include "place/chip.h"
#include "place/params.h"
#include "util/status.h"

namespace p3d::place {

class ObjectiveEvaluator;

/// Detail payload of the recursive-bisection backend.
struct BisectionDetail {
  int levels = 0;
  int partitions = 0;
  int infeasible_partitions = 0;  // balance bounds missed (diagnostic)
  long long partitioned_cells = 0;
};

/// Global-placement statistics with the backend's detail payload.
struct GlobalPlaceStats {
  const char* backend = "";    // name() of the engine that ran
  int iterations = 0;          // bisection levels
  long long cells_placed = 0;  // movable cells the backend positioned

  BisectionDetail bisection;
};

/// One global-placement engine. Stateless across Run calls except for stats()
/// (which reports the most recent Run). Implementations read netlist, chip,
/// params, and the Eq. 8 power-rate coefficients from the evaluator passed at
/// construction; they never mutate its placement state.
class GlobalPlacerBackend {
 public:
  virtual ~GlobalPlacerBackend() = default;

  /// The backend's registry name ("bisection").
  virtual const char* name() const = 0;

  /// Runs global placement. `initial` provides positions for fixed cells
  /// (movable entries are re-initialized by the backend, as in the paper);
  /// size 0 means an all-zero initial. Errors with kInvalidArgument when a
  /// non-empty initial does not match the netlist.
  virtual util::StatusOr<Placement> Run(const Placement& initial) = 0;

  /// Statistics of the most recent Run (zeroed before it).
  virtual const GlobalPlaceStats& stats() const = 0;
};

/// Constructs the backend `kind` over `eval` (which must outlive it). Errors
/// with kInvalidArgument on an out-of-range enum value.
util::StatusOr<std::unique_ptr<GlobalPlacerBackend>> MakeGlobalPlacerBackend(
    GlobalBackend kind, const ObjectiveEvaluator& eval);

}  // namespace p3d::place
