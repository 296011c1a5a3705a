#include "util/parse.h"

#include <charconv>
#include <cmath>

namespace p3d::util {

std::optional<double> ParseFiniteDouble(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<long long> ParseInteger(std::string_view text, long long lo,
                                      long long hi) {
  long long value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace p3d::util
