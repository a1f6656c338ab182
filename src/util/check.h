// Precondition / invariant checking helpers.
//
// `require` guards public-API preconditions (throws std::invalid_argument);
// `ensure` guards internal invariants and postconditions (throws
// std::logic_error). Both are plain functions so call sites stay
// expression-friendly and macro-free.
#ifndef BNN_UTIL_CHECK_H
#define BNN_UTIL_CHECK_H

// The codebase requires C++20 (defaulted operator== in quant/qtensor.h,
// CTAD and ranged constructs elsewhere). Without this guard a C++17 build
// dies in a confusing cascade of comparison-operator errors; fail here with
// one readable diagnostic instead.
#if (defined(_MSVC_LANG) ? _MSVC_LANG : __cplusplus) < 202002L
#error "This project requires C++20: compile with -std=c++20 (or /std:c++20)."
#endif

#include <stdexcept>
#include <string>
#include <string_view>

namespace bnn::util {

// The message is a string_view so a passing check costs one branch: the
// std::string the exception carries is built only when it throws (a
// `const std::string&` parameter would heap-allocate a copy of every
// literal past the small-string limit on every call, hot paths included).
// Dynamically built messages still work — they convert on the way in.

// Throw std::invalid_argument with `what` unless `condition` holds.
inline void require(bool condition, std::string_view what) {
  if (!condition) throw std::invalid_argument(std::string(what));
}

// Throw std::logic_error with `what` unless `condition` holds.
inline void ensure(bool condition, std::string_view what) {
  if (!condition) throw std::logic_error(std::string(what));
}

}  // namespace bnn::util

#endif  // BNN_UTIL_CHECK_H
