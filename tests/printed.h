// Pins on deterministic model outputs. A virtual time or a ratio is
// compared at a fixed number of decimals, as "%.*f" prints it: the pin
// holds across build types and compilers, and any model change that moves
// a printed digit fails it. Counts are compared exactly, without this.
#pragma once

#include <cstdio>
#include <string>

namespace shredder {

inline std::string printed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace shredder
