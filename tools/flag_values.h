// Strict numeric flag values for the command-line tools.
//
// A value that is not wholly a number in range ("abc", "nan", "-3" where a
// count is expected) prints one line to stderr and fails; the tools then
// exit 2, their usage-error code.
#pragma once

#include <cstdio>

#include "util/parse.h"

namespace p3d::tools {

inline bool DoubleFlag(const char* flag, const char* text, double* out) {
  const auto value = util::ParseFiniteDouble(text);
  if (!value) {
    std::fprintf(stderr, "bad value for %s: '%s' (want a finite number)\n",
                 flag, text);
    return false;
  }
  *out = *value;
  return true;
}

template <typename Int>
bool IntFlag(const char* flag, const char* text, long long lo, long long hi,
             Int* out) {
  const auto value = util::ParseInteger(text, lo, hi);
  if (!value) {
    std::fprintf(stderr,
                 "bad value for %s: '%s' (want an integer in [%lld, %lld])\n",
                 flag, text, lo, hi);
    return false;
  }
  *out = static_cast<Int>(*value);
  return true;
}

}  // namespace p3d::tools
