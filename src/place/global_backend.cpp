#include "place/global_backend.h"

#include <string>

#include "place/global.h"
#include "place/objective.h"

namespace p3d::place {

const char* GlobalBackendName(GlobalBackend kind) {
  switch (kind) {
    case GlobalBackend::kBisection:
      return "bisection";
  }
  return "unknown";
}

util::StatusOr<GlobalBackend> ParseGlobalBackend(std::string_view name) {
  if (name == "bisection") return GlobalBackend::kBisection;
  return util::InvalidArgumentError("unknown global-placement backend '" +
                                    std::string(name) +
                                    "' (valid: bisection)");
}

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

util::StatusOr<std::unique_ptr<GlobalPlacerBackend>> MakeGlobalPlacerBackend(
    const ObjectiveEvaluator& eval) {
  return MakeGlobalPlacerBackend(eval.params().global_backend, eval);
}

}  // namespace p3d::place
