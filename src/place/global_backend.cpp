#include "place/global_backend.h"

#include <string>

#include "place/global.h"
#include "place/objective.h"

namespace p3d::place {

util::StatusOr<std::unique_ptr<GlobalPlacerBackend>> MakeGlobalPlacerBackend(
    GlobalBackend kind, const ObjectiveEvaluator& eval) {
  switch (kind) {
    case GlobalBackend::kBisection:
      return std::unique_ptr<GlobalPlacerBackend>(
          std::make_unique<GlobalPlacer>(eval));
  }
  return util::InvalidArgumentError(
      "MakeGlobalPlacerBackend: out-of-range GlobalBackend value " +
      std::to_string(static_cast<int>(kind)));
}

}  // namespace p3d::place
