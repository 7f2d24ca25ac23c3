// Contract-checking macros in the spirit of the C++ Core Guidelines'
// Expects/Ensures (I.6, I.8). Violations throw, so tests can assert on them
// and release builds still fail loudly instead of corrupting a simulation.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace slacksched {

/// Thrown when a precondition (Expects) is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when a postcondition or invariant (Ensures) is violated.
class PostconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void fail_precondition(const char* expr, const char* file,
                                           int line) {
  throw PreconditionError(std::string("precondition failed: ") + expr + " at " +
                          file + ":" + std::to_string(line));
}

[[noreturn]] inline void fail_postcondition(const char* expr, const char* file,
                                            int line) {
  throw PostconditionError(std::string("postcondition failed: ") + expr +
                           " at " + file + ":" + std::to_string(line));
}

}  // namespace detail

/// Throws one PreconditionError listing every problem under `heading`, so
/// a misconfiguration names all its faults at once. No-op when empty.
inline void require_no_problems(const std::string& heading,
                                const std::vector<std::string>& problems) {
  if (problems.empty()) return;
  std::string joined = heading;
  for (const std::string& p : problems) joined += "\n  - " + p;
  throw PreconditionError(joined);
}

}  // namespace slacksched

#define SLACKSCHED_EXPECTS(cond)                                        \
  do {                                                                  \
    if (!(cond))                                                        \
      ::slacksched::detail::fail_precondition(#cond, __FILE__, __LINE__); \
  } while (false)

#define SLACKSCHED_ENSURES(cond)                                          \
  do {                                                                    \
    if (!(cond))                                                          \
      ::slacksched::detail::fail_postcondition(#cond, __FILE__, __LINE__); \
  } while (false)
