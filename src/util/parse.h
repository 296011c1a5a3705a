// Strict number parsing for command-line flags and input files.
//
// std::atof / std::atoi read any prefix and turn garbage into 0, so "abc",
// "nan" and "12x" would pass as numbers. These parsers accept only a whole
// token that is a number: no leading or trailing characters, no nan or inf,
// and no value that overflows its type.
#pragma once

#include <optional>
#include <string_view>

namespace p3d::util {

/// Parses all of `text` as a finite double ("1e-5", "-3", ".5"). Empty
/// text, trailing characters, "nan", "inf" and out-of-range values such as
/// "1e999" give nullopt.
std::optional<double> ParseFiniteDouble(std::string_view text);

/// Parses all of `text` as a base-10 integer in [lo, hi]; anything else
/// (including "1.5", "1e3" and out-of-range values) gives nullopt.
std::optional<long long> ParseInteger(std::string_view text, long long lo,
                                      long long hi);

}  // namespace p3d::util
