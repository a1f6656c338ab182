#include "core/lfsr.h"

#include <algorithm>

#include "util/check.h"

namespace bnn::core {

Lfsr::Lfsr(int width, std::vector<int> taps, std::uint64_t seed_lo, std::uint64_t seed_hi)
    : width_(width), taps_(std::move(taps)), state_lo_(seed_lo), state_hi_(seed_hi) {
  util::require(width >= 2 && width <= 128, "lfsr: width must be in [2, 128]");
  util::require(!taps_.empty(), "lfsr: need at least one tap");
  for (int tap : taps_)
    util::require(tap >= 1 && tap <= width, "lfsr: tap out of range");
  util::require(std::find(taps_.begin(), taps_.end(), width) != taps_.end(),
                "lfsr: the output register (tap == width) must be tapped");
  leaps_ = width == 128 &&
           std::all_of(taps_.begin(), taps_.end(), [](int tap) { return tap >= 64; });

  reseed(seed_lo, seed_hi);
}

void Lfsr::reseed(std::uint64_t seed_lo, std::uint64_t seed_hi) {
  state_lo_ = seed_lo;
  state_hi_ = seed_hi;
  // Mask the seed to the register width and forbid the all-zero state.
  if (width_ <= 64) {
    state_lo_ &= width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    state_hi_ = 0;
  } else {
    state_hi_ &= width_ == 128 ? ~0ull : ((1ull << (width_ - 64)) - 1);
  }
  util::require(state_lo_ != 0 || state_hi_ != 0, "lfsr: seed must be non-zero");
}

int Lfsr::bit(int position_1based) const {
  const int index = position_1based - 1;
  if (index < 64) return static_cast<int>((state_lo_ >> index) & 1ull);
  return static_cast<int>((state_hi_ >> (index - 64)) & 1ull);
}

int Lfsr::step() {
  const int out = bit(width_);
  int feedback = 0;
  for (int tap : taps_) feedback ^= bit(tap);

  // Shift the 128-bit register left by one and insert the feedback at R0.
  state_hi_ = (state_hi_ << 1) | (state_lo_ >> 63);
  state_lo_ = (state_lo_ << 1) | static_cast<std::uint64_t>(feedback);
  if (width_ <= 64) {
    state_lo_ &= width_ == 64 ? ~0ull : ((1ull << width_) - 1);
    state_hi_ = 0;
  } else {
    state_hi_ &= width_ == 128 ? ~0ull : ((1ull << (width_ - 64)) - 1);
  }
  return out;
}

std::uint64_t Lfsr::leap64() {
  util::require(leaps_, "lfsr: leap64 needs width 128 and every tap >= 64");
  std::uint64_t fresh = 0;
  for (int tap : taps_) {
    const int shift = tap - 64;  // low 64 bits of (hi:lo) >> shift
    fresh ^= shift == 0    ? state_lo_
             : shift == 64 ? state_hi_
                           : (state_lo_ >> shift) | (state_hi_ << (64 - shift));
  }
  const std::uint64_t out = state_hi_;
  state_hi_ = state_lo_;
  state_lo_ = fresh;
  return out;
}

Lfsr make_lfsr128(std::uint64_t seed_lo, std::uint64_t seed_hi) {
  return Lfsr(128, {128, 126, 101, 99}, seed_lo, seed_hi);
}

std::vector<int> maximal_taps(int width) {
  // XAPP052 maximal-length tap tables for the widths the tests exercise.
  switch (width) {
    case 3: return {3, 2};
    case 4: return {4, 3};
    case 5: return {5, 3};
    case 7: return {7, 6};
    case 8: return {8, 6, 5, 4};
    case 12: return {12, 6, 4, 1};
    case 16: return {16, 15, 13, 4};
    case 20: return {20, 17};
    case 24: return {24, 23, 22, 17};
    case 128: return {128, 126, 101, 99};
    default:
      util::require(false, "maximal_taps: width not in table");
      return {};
  }
}

}  // namespace bnn::core
