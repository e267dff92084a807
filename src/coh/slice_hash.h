// Physical-address to L3-slice (CBo) hash.
//
// Haswell-EP distributes physical addresses over the L3 slices of a node with
// an undocumented hash (paper cites [16, Section 2.3]).  What matters for the
// reproduction is that (a) the mapping is uniform, so ring distances average
// out over a data set, and (b) all cores of a node agree on the responsible
// CA for a line.  We use a Fibonacci-style mixer reduced modulo the node's
// slice count; MachineState::slice_for() does that reduction with FastMod,
// which is bit-equal to slice_index() and avoids a runtime division.
#pragma once

#include <cstdint>

#include "mem/line.h"

namespace hsw {

// Mixes the line address into a well-distributed 64-bit value.
constexpr std::uint64_t mix_line(LineAddr line) {
  std::uint64_t x = line * 0x9e3779b97f4a7c15ull;
  x ^= x >> 32;
  x *= 0xd6e8feb86659fd93ull;
  x ^= x >> 32;
  return x;
}

// Index into a node's slice list for `line`; `slice_count` > 0.
constexpr int slice_index(LineAddr line, int slice_count) {
  return static_cast<int>(mix_line(line) % static_cast<std::uint64_t>(slice_count));
}

// `x % d` for a divisor fixed at construction, without a division (Lemire,
// Kaser & Kurz, "Faster Remainder by Direct Computation", 2019).  With a
// 128-bit magic M = ceil(2^128 / d) the result is exact for every 64-bit x
// and every 32-bit d > 0: x % d = ((M * x) mod 2^128) * d / 2^128.
class FastMod {
 public:
  __extension__ using U128 = unsigned __int128;

  constexpr FastMod() = default;
  constexpr explicit FastMod(std::uint32_t d) : magic_(~U128{0} / d + 1), d_(d) {}

  [[nodiscard]] constexpr std::uint32_t operator()(std::uint64_t x) const {
    const U128 low = magic_ * x;  // the fractional part of x / d, mod 2^128
    const auto lo = static_cast<std::uint64_t>(low);
    const auto hi = static_cast<std::uint64_t>(low >> 64);
    const U128 carry = (static_cast<U128>(lo) * d_) >> 64;
    return static_cast<std::uint32_t>((static_cast<U128>(hi) * d_ + carry) >> 64);
  }

 private:
  U128 magic_ = 0;
  std::uint32_t d_ = 0;
};

}  // namespace hsw
