// Pre-fix, the sloppy annotation below does not parse (spaces inside the
// parentheses), so it is a waiver-syntax finding and the wall-clock read
// underneath is unsuppressed. --fix normalizes it to the canonical form.

#include <chrono>

#include "core/fix_guard.h"

namespace fixture {

double SloppyWallSeconds() {
  //bitpush-lint:   allow( determinism ):  fixture exercises waiver normalization
  const auto tick = std::chrono::steady_clock::now();
  return static_cast<double>(tick.time_since_epoch().count());
}

}  // namespace fixture
