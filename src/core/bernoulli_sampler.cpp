#include "core/bernoulli_sampler.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace bnn::core {

int lfsrs_for_probability(double p) {
  util::require(p > 0.0 && p < 1.0, "bernoulli sampler: p must be in (0, 1)");
  const double k_real = -std::log2(p);
  const int k = static_cast<int>(std::lround(k_real));
  util::require(k >= 1 && k <= 8 && std::fabs(k_real - k) < 1e-9,
                "bernoulli sampler: p must be 2^-k with k in [1, 8] "
                "(AND-tree of k single-bit LFSRs)");
  return k;
}

template <typename Set>
void BernoulliSampler::derive_register_seeds(std::uint64_t seed, int k, Set&& set) {
  // Decorrelate the k register chains with independent non-zero seeds: one
  // shared util::Rng(seed) stream, in register order, skipping all-zero
  // pairs. Its draws come from the engine-free prefix: 2k draws, and the
  // whole prefix in the (2^-128 per pair) case of an all-zero pair.
  std::uint64_t draws[util::kMt19937_64PrefixMax];
  int have = 2 * k;
  util::mt19937_64_prefix(seed, have, draws);
  int next = 0;
  const auto draw = [&] {
    if (next == have) {
      util::ensure(have < util::kMt19937_64PrefixMax,
                   "bernoulli sampler: seed stream held no non-zero register seeds");
      have = util::kMt19937_64PrefixMax;
      util::mt19937_64_prefix(seed, have, draws);
    }
    return draws[next++];
  };
  for (int i = 0; i < k; ++i) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    while (lo == 0 && hi == 0) {
      lo = draw();
      hi = draw();
    }
    set(i, lo, hi);
  }
}

BernoulliSampler::BernoulliSampler(const BernoulliSamplerConfig& config) : config_(config) {
  util::require(config.pf >= 1, "bernoulli sampler: pf must be positive");
  util::require(config.fifo_depth >= 1, "bernoulli sampler: fifo_depth must be positive");
  const int k = lfsrs_for_probability(config.p);
  lfsrs_.reserve(static_cast<std::size_t>(k));
  derive_register_seeds(config.seed, k, [this](int, std::uint64_t lo, std::uint64_t hi) {
    lfsrs_.push_back(make_lfsr128(lo, hi));
  });
  sipo_.assign(static_cast<std::size_t>(config.pf), 0);
}

void BernoulliSampler::reseed(std::uint64_t seed) {
  config_.seed = seed;
  // Same derivation as the constructor, so the register contents match a
  // fresh sampler's.
  derive_register_seeds(seed, num_lfsrs(), [this](int i, std::uint64_t lo, std::uint64_t hi) {
    lfsrs_[static_cast<std::size_t>(i)].reseed(lo, hi);
  });
  pending_ = 0;
  pending_bits_ = 0;
  std::fill(sipo_.begin(), sipo_.end(), static_cast<std::uint8_t>(0));
  sipo_fill_ = 0;
  fifo_.clear();
  bits_produced_ = 0;
  words_pushed_ = 0;
  stall_cycles_ = 0;
}

std::uint64_t BernoulliSampler::next_word() {
  std::uint64_t word = ~std::uint64_t{0};
  for (Lfsr& lfsr : lfsrs_) word &= lfsr.leap64();
  return word;
}

std::uint64_t BernoulliSampler::take(int count) {
  std::uint64_t out = pending_;
  if (pending_bits_ >= count) {
    pending_ = count == 64 ? 0 : pending_ << count;
    pending_bits_ -= count;
  } else {
    // The pending bits first, then the top of a fresh word.
    const int have = pending_bits_;  // < count <= 64
    const std::uint64_t fresh = next_word();
    out |= fresh >> have;
    const int used = count - have;
    pending_ = used == 64 ? 0 : fresh << used;
    pending_bits_ = 64 - used;
  }
  return count == 64 ? out : out & ~(~std::uint64_t{0} >> count);
}

bool BernoulliSampler::next_drop() {
  if (pending_bits_ == 0) {
    pending_ = next_word();
    pending_bits_ = 64;
  }
  const bool drop = (pending_ >> 63) != 0;
  pending_ <<= 1;
  --pending_bits_;
  ++bits_produced_;
  return drop;
}

void BernoulliSampler::draw_drops(int n, std::uint64_t* words) {
  for (int w = 0; w * 64 < n; ++w) words[w] = take(std::min(64, n - w * 64));
  bits_produced_ += static_cast<std::uint64_t>(std::max(n, 0));
}

void BernoulliSampler::step_cycle() {
  if (sipo_fill_ == config_.pf) {
    // A full word is waiting; push to the FIFO or stall.
    if (static_cast<int>(fifo_.size()) >= config_.fifo_depth) {
      ++stall_cycles_;
      return;
    }
    fifo_.push_back(sipo_);
    ++words_pushed_;
    sipo_fill_ = 0;
  }
  sipo_[static_cast<std::size_t>(sipo_fill_++)] = next_drop() ? 1 : 0;
  if (sipo_fill_ == config_.pf && static_cast<int>(fifo_.size()) < config_.fifo_depth) {
    fifo_.push_back(sipo_);
    ++words_pushed_;
    sipo_fill_ = 0;
  }
}

bool BernoulliSampler::pop_word(std::vector<std::uint8_t>& word) {
  if (fifo_.empty()) return false;
  word = std::move(fifo_.front());
  fifo_.pop_front();
  return true;
}

}  // namespace bnn::core
