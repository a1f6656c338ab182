#include "core/bernoulli_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace bnn::core {
namespace {

TEST(SamplerConfig, LfsrCountFromProbability) {
  EXPECT_EQ(lfsrs_for_probability(0.5), 1);
  EXPECT_EQ(lfsrs_for_probability(0.25), 2);
  EXPECT_EQ(lfsrs_for_probability(0.125), 3);
  EXPECT_EQ(lfsrs_for_probability(1.0 / 256.0), 8);
  EXPECT_THROW(lfsrs_for_probability(0.3), std::invalid_argument);
  EXPECT_THROW(lfsrs_for_probability(0.0), std::invalid_argument);
  EXPECT_THROW(lfsrs_for_probability(1.0), std::invalid_argument);
  EXPECT_THROW(lfsrs_for_probability(1.0 / 512.0), std::invalid_argument);
}

class SamplerBias : public ::testing::TestWithParam<double> {};

TEST_P(SamplerBias, DropRateWithinBinomialBounds) {
  const double p = GetParam();
  BernoulliSamplerConfig config;
  config.p = p;
  config.seed = 99;
  BernoulliSampler sampler(config);
  const int n = 40000;
  int drops = 0;
  for (int i = 0; i < n; ++i) drops += sampler.next_drop() ? 1 : 0;
  const double rate = static_cast<double>(drops) / n;
  const double bound = 4.5 * std::sqrt(p * (1 - p) / n);
  EXPECT_NEAR(rate, p, bound) << "drop rate off for p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SamplerBias, ::testing::Values(0.5, 0.25, 0.125));

TEST(Sampler, AndTreeUsesConfiguredLfsrCount) {
  BernoulliSamplerConfig config;
  config.p = 0.25;
  BernoulliSampler sampler(config);
  EXPECT_EQ(sampler.num_lfsrs(), 2);
}

TEST(Sampler, DeterministicPerSeed) {
  BernoulliSamplerConfig config;
  config.seed = 7;
  BernoulliSampler a(config);
  BernoulliSampler b(config);
  config.seed = 8;
  BernoulliSampler c(config);
  bool diverged = false;
  for (int i = 0; i < 2000; ++i) {
    const bool bit = a.next_drop();
    EXPECT_EQ(bit, b.next_drop());
    if (bit != c.next_drop()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Sampler, SipoAssemblesWordsFromTheRawBitStream) {
  BernoulliSamplerConfig config;
  config.p = 0.5;
  config.pf = 16;
  config.fifo_depth = 8;
  config.seed = 3;
  BernoulliSampler cycle_sampler(config);
  BernoulliSampler functional_sampler(config);  // identical seed -> same bits

  // Produce 4 words cycle-by-cycle.
  for (int i = 0; i < 4 * config.pf; ++i) cycle_sampler.step_cycle();
  EXPECT_EQ(cycle_sampler.words_pushed(), 4u);

  for (int w = 0; w < 4; ++w) {
    std::vector<std::uint8_t> word;
    ASSERT_TRUE(cycle_sampler.pop_word(word));
    ASSERT_EQ(static_cast<int>(word.size()), config.pf);
    for (int i = 0; i < config.pf; ++i)
      EXPECT_EQ(word[static_cast<std::size_t>(i)],
                functional_sampler.next_drop() ? 1 : 0)
          << "word " << w << " bit " << i;
  }
}

TEST(Sampler, FifoFullStallsWithoutLosingBits) {
  BernoulliSamplerConfig config;
  config.p = 0.5;
  config.pf = 8;
  config.fifo_depth = 2;
  config.seed = 5;
  BernoulliSampler sampler(config);
  BernoulliSampler reference(config);

  // Enough cycles to fill the FIFO (2 words) + SIPO (1 word) and stall.
  for (int i = 0; i < 100; ++i) sampler.step_cycle();
  EXPECT_EQ(sampler.fifo_occupancy(), 2);
  EXPECT_GT(sampler.stall_cycles(), 0u);

  // Drain and refill; the stream must continue without losing any bit.
  std::vector<std::uint8_t> word;
  std::vector<std::uint8_t> produced;
  for (int round = 0; round < 6; ++round) {
    while (sampler.pop_word(word))
      produced.insert(produced.end(), word.begin(), word.end());
    for (int i = 0; i < 40; ++i) sampler.step_cycle();
  }
  while (sampler.pop_word(word))
    produced.insert(produced.end(), word.begin(), word.end());

  for (std::uint8_t bit : produced)
    EXPECT_EQ(bit, reference.next_drop() ? 1 : 0);
  EXPECT_GE(produced.size(), 5u * config.pf);
}

TEST(Sampler, PopOnEmptyFifoFails) {
  BernoulliSamplerConfig config;
  BernoulliSampler sampler(config);
  std::vector<std::uint8_t> word;
  EXPECT_FALSE(sampler.pop_word(word));
}

TEST(Sampler, RejectsBadConfig) {
  BernoulliSamplerConfig config;
  config.pf = 0;
  EXPECT_THROW(BernoulliSampler{config}, std::invalid_argument);
  config.pf = 8;
  config.fifo_depth = 0;
  EXPECT_THROW(BernoulliSampler{config}, std::invalid_argument);
}

TEST(Sampler, MaskSourceInterfaceDrivesDropout) {
  // The sampler plugs into the float-path dropout layer, replacing the
  // software RNG with the hardware bit stream.
  BernoulliSamplerConfig config;
  config.p = 0.5;
  config.seed = 11;
  BernoulliSampler sampler(config);

  nn::McDropout dropout(0.5);
  dropout.set_active(true);
  dropout.set_mask_source(&sampler);
  util::Rng rng(1);
  nn::Tensor x = nn::Tensor::randn({1, 64, 2, 2}, rng, 5.0f, 0.1f);
  nn::Tensor y = dropout.forward(x);
  int dropped = 0;
  for (int c = 0; c < 64; ++c) dropped += y.v4(0, c, 0, 0) == 0.0f ? 1 : 0;
  EXPECT_GT(dropped, 10);
  EXPECT_LT(dropped, 54);
  EXPECT_EQ(sampler.bits_produced(), 64u);
}

// --- sampler reseed (the lane arena's reuse contract) -----------------------

TEST(SamplerReseed, MatchesFreshlyConstructedSampler) {
  BernoulliSamplerConfig config;
  config.p = 0.25;
  config.pf = 16;
  config.fifo_depth = 4;
  config.seed = 5;
  BernoulliSampler reused(config);
  for (int i = 0; i < 100; ++i) (void)reused.next_drop();
  for (int i = 0; i < 40; ++i) reused.step_cycle();

  reused.reseed(99);
  config.seed = 99;
  BernoulliSampler fresh(config);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(reused.next_drop(), fresh.next_drop()) << "drop bit " << i;

  // Cycle-level state was cleared too: both produce the same mask words.
  reused.reseed(7);
  config.seed = 7;
  BernoulliSampler fresh7(config);
  for (int i = 0; i < 64; ++i) {
    reused.step_cycle();
    fresh7.step_cycle();
  }
  EXPECT_EQ(reused.fifo_occupancy(), fresh7.fifo_occupancy());
  std::vector<std::uint8_t> word_a, word_b;
  while (reused.pop_word(word_a)) {
    ASSERT_TRUE(fresh7.pop_word(word_b));
    EXPECT_EQ(word_a, word_b);
  }
  EXPECT_FALSE(fresh7.pop_word(word_b));
}

// --- exactness of the word-at-a-time sampler ----------------------------------

// The sampler's definition, one clock at a time: k registers seeded from
// util::Rng(seed)'s engine in pairs (all-zero pairs skipped), each drop
// decision the AND of one Lfsr::step per register.
class BitSerialSampler {
 public:
  BitSerialSampler(double p, std::uint64_t seed) : k_(lfsrs_for_probability(p)) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    lfsrs_.clear();
    util::Rng seeder(seed);
    for (int i = 0; i < k_; ++i) {
      std::uint64_t lo = 0, hi = 0;
      while (lo == 0 && hi == 0) {
        lo = seeder.next_u64();
        hi = seeder.next_u64();
      }
      lfsrs_.push_back(make_lfsr128(lo, hi));
    }
  }

  bool next() {
    int bit = 1;
    for (Lfsr& lfsr : lfsrs_) bit &= lfsr.step();
    return bit != 0;
  }

 private:
  int k_;
  std::vector<Lfsr> lfsrs_;
};

TEST(SamplerStream, EqualsBitSerialAndTreeReference) {
  // Every interface, interleaved at random, with reseeds that land mid-word:
  // the decisions must be the bit-serial stream's, in order.
  util::Rng ops(2026);
  for (const double p : {0.5, 0.25, 0.125, 1.0 / 256.0}) {
    for (std::uint64_t s = 0; s < 64; ++s) {
      BernoulliSamplerConfig config;
      config.p = p;
      config.pf = 16;
      config.fifo_depth = 3;
      config.seed = s * 0x9E3779B97F4A7C15ull + 1;
      BernoulliSampler sampler(config);
      BitSerialSampler reference(p, config.seed);
      std::deque<std::uint8_t> sipo_bits;  // decisions the SIPO took, not yet popped
      std::uint64_t drawn = 0;
      while (drawn < 4096) {
        const int op = ops.uniform_int(0, 9);
        if (op <= 3) {
          ASSERT_EQ(sampler.next_drop(), reference.next()) << "p=" << p << " seed " << s;
          ++drawn;
        } else if (op <= 6) {
          const int n = ops.uniform_int(1, 200);
          std::vector<std::uint64_t> words(static_cast<std::size_t>((n + 63) / 64), ~0ull);
          sampler.draw_drops(n, words.data());
          for (int i = 0; i < n; ++i) {
            ASSERT_EQ(((words[static_cast<std::size_t>(i / 64)] >> (63 - i % 64)) & 1u) != 0,
                      reference.next())
                << "p=" << p << " seed " << s << " bulk draw of " << n << ", decision " << i;
          }
          if (n % 64 != 0) {
            ASSERT_EQ(words.back() << (n % 64), 0u) << "bits past n must be 0";
          }
          drawn += static_cast<std::uint64_t>(n);
        } else if (op <= 8) {
          for (int c = ops.uniform_int(1, 40); c > 0; --c) {
            const std::uint64_t before = sampler.bits_produced();
            sampler.step_cycle();
            if (sampler.bits_produced() != before) {  // not a stall cycle
              sipo_bits.push_back(reference.next() ? 1 : 0);
              ++drawn;
            }
          }
          std::vector<std::uint8_t> word;
          while (sampler.pop_word(word)) {
            ASSERT_GE(sipo_bits.size(), word.size());
            for (const std::uint8_t bit : word) {
              ASSERT_EQ(bit, sipo_bits.front()) << "p=" << p << " seed " << s << " SIPO word";
              sipo_bits.pop_front();
            }
          }
        } else {
          // Reseeding drops the SIPO and FIFO contents with the rest.
          const std::uint64_t seed = ops.next_u64();
          sampler.reseed(seed);
          reference.reseed(seed);
          sipo_bits.clear();
        }
      }
    }
  }
}

TEST(SamplerStream, BitsProducedCountsEveryInterface) {
  BernoulliSamplerConfig config;
  config.p = 0.25;
  config.pf = 8;
  BernoulliSampler sampler(config);
  (void)sampler.next_drop();
  std::uint64_t words[3];
  sampler.draw_drops(130, words);
  for (int i = 0; i < 5; ++i) sampler.step_cycle();
  EXPECT_EQ(sampler.bits_produced(), 136u);
  sampler.draw_drops(0, words);
  EXPECT_EQ(sampler.bits_produced(), 136u);
}

TEST(SamplerStream, DefaultBulkDrawCallsNextDrop) {
  // nn::MaskSource's own draw_drops serves any source in the same layout.
  struct Alternating final : nn::MaskSource {
    int calls = 0;
    bool next_drop() override { return (calls++ % 3) == 0; }
  } source;
  std::uint64_t words[2] = {~0ull, ~0ull};
  source.draw_drops(70, words);
  EXPECT_EQ(source.calls, 70);
  for (int i = 0; i < 70; ++i)
    EXPECT_EQ(((words[i / 64] >> (63 - i % 64)) & 1u) != 0, i % 3 == 0) << i;
  EXPECT_EQ(words[1] << 6, 0u);
}

TEST(LfsrLeap, EqualsSixtyFourSteps) {
  util::Rng rng(64);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t lo = rng.next_u64(), hi = rng.next_u64();
    if (trial == 0) {  // a single set bit
      lo = 1;
      hi = 0;
    } else if (trial == 1) {
      lo = 0;
      hi = 1ull << 63;
    }
    Lfsr leaping = make_lfsr128(lo, hi);
    Lfsr stepping = make_lfsr128(lo, hi);
    for (int leap = 0; leap < 4; ++leap) {
      const std::uint64_t word = leaping.leap64();
      std::uint64_t expected = 0;
      for (int i = 0; i < 64; ++i)
        expected |= static_cast<std::uint64_t>(stepping.step()) << (63 - i);
      ASSERT_EQ(word, expected) << "trial " << trial << " leap " << leap;
      ASSERT_EQ(leaping.state_lo(), stepping.state_lo());
      ASSERT_EQ(leaping.state_hi(), stepping.state_hi());
    }
  }
}

TEST(LfsrLeap, NeedsWidth128AndTapsFromSixtyFour) {
  Lfsr narrow(16, maximal_taps(16), 1);
  EXPECT_THROW(narrow.leap64(), std::invalid_argument);
  Lfsr low_tap(128, {128, 126, 101, 63}, 1, 1);
  EXPECT_THROW(low_tap.leap64(), std::invalid_argument);
  Lfsr lowest_tap(128, {128, 64}, 1, 1);
  Lfsr lowest_tap_steps(128, {128, 64}, 1, 1);
  std::uint64_t expected = 0;
  for (int i = 0; i < 64; ++i)
    expected |= static_cast<std::uint64_t>(lowest_tap_steps.step()) << (63 - i);
  EXPECT_EQ(lowest_tap.leap64(), expected);
  EXPECT_EQ(lowest_tap.state_lo(), lowest_tap_steps.state_lo());
}

TEST(SamplerSeeding, PrefixEqualsMt19937_64) {
  // Every prefix length on a few seeds...
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489}, ~std::uint64_t{0}}) {
    std::mt19937_64 engine(seed);
    std::vector<std::uint64_t> expected(util::kMt19937_64PrefixMax);
    for (auto& v : expected) v = engine();
    for (int count = 1; count <= util::kMt19937_64PrefixMax; ++count) {
      std::vector<std::uint64_t> got(static_cast<std::size_t>(count));
      util::mt19937_64_prefix(seed, count, got.data());
      for (int j = 0; j < count; ++j)
        ASSERT_EQ(got[static_cast<std::size_t>(j)], expected[static_cast<std::size_t>(j)])
            << "seed " << seed << " count " << count << " draw " << j;
    }
  }
  // ...and the whole prefix on 1000 more, including the extremes.
  util::Rng seeds(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t seed = i == 0   ? 2
                               : i == 1 ? ~std::uint64_t{0} - 1
                               : i == 2 ? std::uint64_t{1} << 63
                                        : seeds.next_u64();
    util::Rng engine(seed);
    std::uint64_t got[util::kMt19937_64PrefixMax];
    util::mt19937_64_prefix(seed, util::kMt19937_64PrefixMax, got);
    for (int j = 0; j < util::kMt19937_64PrefixMax; ++j)
      ASSERT_EQ(got[j], engine.next_u64()) << "seed " << seed << " draw " << j;
  }
  std::uint64_t out[1];
  EXPECT_THROW(util::mt19937_64_prefix(1, 0, out), std::invalid_argument);
  EXPECT_THROW(util::mt19937_64_prefix(1, 157, out), std::invalid_argument);
}

}  // namespace
}  // namespace bnn::core
