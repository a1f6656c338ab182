// Deterministic random number generation.
//
// Every stochastic component in this repository takes an explicit Rng (or a
// seed) so that experiments are reproducible run-to-run; there is no global
// generator. `fork` derives an independent stream, used to give each
// dataset / layer / repeat its own deterministic randomness.
#ifndef BNN_UTIL_RNG_H
#define BNN_UTIL_RNG_H

#include <cstdint>
#include <random>

namespace bnn::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed), seed_(seed) {}

  // Uniform real in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  // Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  // Standard normal scaled to N(mean, stddev^2).
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Bernoulli draw: true with probability p.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  // Raw 64-bit draw.
  std::uint64_t next_u64() { return engine_(); }

  // Derive an independent deterministic stream. Mixing the parent seed with
  // the stream id through splitmix64 keeps sibling streams decorrelated.
  Rng fork(std::uint64_t stream_id) const {
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (stream_id + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    return Rng(z);
  }

  std::uint64_t seed() const { return seed_; }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

// The first `count` raw draws (next_u64) of Rng(seed), count in
// [1, kMt19937_64PrefixMax], computed without building the engine.
// std::mt19937_64's first draw twists all 312 state words; the standard
// fixes the seeding recurrence
//   x[0] = seed, x[i] = 6364136223846793005 * (x[i-1] ^ (x[i-1] >> 62)) + i
// and the twist, under which output j < 156 reads only x[j], x[j + 1] and
// x[j + 156]. So a prefix costs about 156 + count multiply steps, and it is
// exact for every seed: a longer prefix extends a shorter one.
inline constexpr int kMt19937_64PrefixMax = 156;
void mt19937_64_prefix(std::uint64_t seed, int count, std::uint64_t* out);

}  // namespace bnn::util

#endif  // BNN_UTIL_RNG_H
