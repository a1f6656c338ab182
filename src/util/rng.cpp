#include "util/rng.h"

#include "util/check.h"

namespace bnn::util {

void mt19937_64_prefix(std::uint64_t seed, int count, std::uint64_t* out) {
  require(count >= 1 && count <= kMt19937_64PrefixMax,
          "mt19937_64_prefix: count must be in [1, 156]");
  // std::mt19937_64's parameters: n = 312, m = 156, r = 31.
  constexpr int m = 156;
  constexpr std::uint64_t upper = ~std::uint64_t{0} << 31, lower = ~upper;
  constexpr std::uint64_t twist = 0xB5026F5AA96619E9ull;
  std::uint64_t head[kMt19937_64PrefixMax + 1];  // x[0..count]
  std::uint64_t x = seed;
  head[0] = x;
  for (int i = 1; i < m + count; ++i) {
    x = 6364136223846793005ull * (x ^ (x >> 62)) + static_cast<std::uint64_t>(i);
    if (i <= count) head[i] = x;
    if (i < m) continue;
    // x is x[j + m]: the twisted word j, then the tempering.
    const int j = i - m;
    const std::uint64_t y = (head[j] & upper) | (head[j + 1] & lower);
    std::uint64_t z = x ^ (y >> 1) ^ ((y & 1) != 0 ? twist : 0);
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    out[j] = z;
  }
}

}  // namespace bnn::util
