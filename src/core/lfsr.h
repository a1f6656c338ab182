// Bit-accurate Fibonacci linear-feedback shift registers.
//
// The paper's Bernoulli sampler (Fig. 3) is built from 128-bit 4-tap LFSRs;
// at 160 MHz a maximal-length 128-bit sequence takes ~1500 years to repeat
// [Andraka & Phelps 1998]. This module models the register chain exactly:
// one step per clock cycle, one pseudo-random bit out. `step` is that
// bit-serial definition; `leap64` advances 64 clocks in a few word
// operations and is exactly 64 steps (the Bernoulli sampler draws through
// it).
#ifndef BNN_CORE_LFSR_H
#define BNN_CORE_LFSR_H

#include <cstdint>
#include <vector>

namespace bnn::core {

// Fibonacci LFSR of up to 128 bits with XOR feedback. Tap positions use the
// conventional 1-based numbering (tap `width` is the output register); the
// highest tap must equal `width`. The all-zero state is forbidden (XOR
// feedback would lock up), matching real hardware seeding constraints.
class Lfsr {
 public:
  Lfsr(int width, std::vector<int> taps, std::uint64_t seed_lo,
       std::uint64_t seed_hi = 0);

  // Advances one clock; returns the output bit (the bit shifted out of the
  // last register).
  int step();

  // Advances 64 clocks; returns their 64 output bits, the first in bit 63 —
  // exactly 64 step() calls. Requires width 128 and every tap >= 64 (the
  // paper's taps qualify; throws std::invalid_argument otherwise). Then the
  // next 64 outputs are the current positions 128 down to 65 (state_hi,
  // read from bit 63 down), and every feedback bit of those 64 steps reads
  // an original state bit: the feedback of step j lands at position 65 - j
  // and is the XOR over taps t of position t - j + 1. So after the leap
  // state_hi' = state_lo, and state_lo' is the XOR over taps t of the low
  // 64 bits of (state_hi:state_lo) >> (t - 64) — state_hi itself for
  // t = 128.
  std::uint64_t leap64();

  // Reloads the register chain from a new seed — exactly the constructor's
  // seeding (width masking, all-zero state forbidden) without rebuilding the
  // tap list. Lets the accelerator's per-lane sampler be reused across
  // samples instead of reconstructed.
  void reseed(std::uint64_t seed_lo, std::uint64_t seed_hi = 0);

  int width() const { return width_; }
  const std::vector<int>& taps() const { return taps_; }
  std::uint64_t state_lo() const { return state_lo_; }
  std::uint64_t state_hi() const { return state_hi_; }

 private:
  int bit(int position_1based) const;

  int width_;
  std::vector<int> taps_;
  bool leaps_ = false;  // width 128 with every tap >= 64: leap64 is exact
  std::uint64_t state_lo_;
  std::uint64_t state_hi_;
};

// The paper's configuration: 128-bit, 4 taps. Taps {128, 126, 101, 99}
// generate a maximal-length (2^128 - 1) sequence (XAPP052 table).
Lfsr make_lfsr128(std::uint64_t seed_lo, std::uint64_t seed_hi = 0x9E3779B97F4A7C15ull);

// Maximal-length tap sets for small widths (used by period tests).
std::vector<int> maximal_taps(int width);

}  // namespace bnn::core

#endif  // BNN_CORE_LFSR_H
