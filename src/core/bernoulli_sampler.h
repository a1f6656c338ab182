// Hardware Bernoulli sampler (paper Fig. 3).
//
// An AND-tree over k independent 128-bit LFSRs produces one drop bit per
// cycle with P(drop) = 2^-k (k = 1 gives the paper's single-LFSR p = 0.5
// case; k = 2 with the extra AND gate gives p = 0.25). A serial-in
// parallel-out (SIPO) register assembles PF bits into one Dropout-Unit mask
// word, and a FIFO decouples mask production from the NNE's consumption
// rate.
//
// The class is both a cycle-level component (step_cycle / pop_word, used by
// the timing model and the occupancy tests) and a functional MaskSource
// (next_drop, draw_drops), so the simulated accelerator and the integer
// reference executor can consume the exact same mask stream.
//
// On the host the AND tree works a word at a time: each register leaps 64
// clocks (Lfsr::leap64), and the AND of the k leap words is the next 64
// decisions of the bit-serial stream, the first in bit 63. next_drop,
// step_cycle and draw_drops all serve that one stream, highest bit first,
// so any interleaving of them draws exactly the decisions k registers
// stepped one clock at a time would.
//
// Seeding: register i's (lo, hi) are util::Rng(seed)'s draws 2i and 2i + 1
// (pairs that are both zero skipped), taken from util::mt19937_64_prefix
// rather than from an engine — the same values for ~160 multiply steps
// instead of the engine's 312-word twist.
#ifndef BNN_CORE_BERNOULLI_SAMPLER_H
#define BNN_CORE_BERNOULLI_SAMPLER_H

#include <cstdint>
#include <deque>
#include <vector>

#include "core/lfsr.h"
#include "nn/dropout.h"

namespace bnn::core {

struct BernoulliSamplerConfig {
  double p = 0.25;          // drop probability; must be 2^-k, k in [1, 8]
  int pf = 64;              // mask word width (filter parallelism)
  int fifo_depth = 16;      // FIFO capacity in PF-bit words
  std::uint64_t seed = 1;   // seeds all LFSRs (decorrelated per register)
};

class BernoulliSampler final : public nn::MaskSource {
 public:
  explicit BernoulliSampler(const BernoulliSamplerConfig& config);

  // Rewinds the sampler to the freshly-constructed state under a new seed:
  // re-derives every LFSR's registers exactly as the constructor does and
  // clears the SIPO/FIFO/statistics. Bit-identical to constructing a new
  // sampler with the same config and `seed` (pinned by tests), but
  // allocation-free — the accelerator's lane arena reuses one sampler
  // across Monte Carlo samples. p/pf/fifo_depth are unchanged.
  void reseed(std::uint64_t seed);

  // --- functional interface -------------------------------------------
  // One raw drop decision (the stream's next bit).
  bool next_drop() override;
  // The next n decisions, a word at a time (nn::MaskSource's layout).
  void draw_drops(int n, std::uint64_t* words) override;

  // --- cycle-level interface ------------------------------------------
  // Advances one clock: produces one bit into the SIPO unless the FIFO is
  // full and the SIPO already holds a complete word (a stall cycle).
  void step_cycle();
  // Pops the oldest PF-bit mask word; false when the FIFO is empty.
  bool pop_word(std::vector<std::uint8_t>& word);
  int fifo_occupancy() const { return static_cast<int>(fifo_.size()); }

  // --- configuration / statistics -------------------------------------
  int num_lfsrs() const { return static_cast<int>(lfsrs_.size()); }
  double p() const { return config_.p; }
  int pf() const { return config_.pf; }
  int fifo_depth() const { return config_.fifo_depth; }
  // Decisions drawn so far, through any of the three interfaces.
  std::uint64_t bits_produced() const { return bits_produced_; }
  std::uint64_t words_pushed() const { return words_pushed_; }
  std::uint64_t stall_cycles() const { return stall_cycles_; }

 private:
  // Derives the (lo, hi) seeds of k registers from `seed`, calling
  // set(i, lo, hi) for each register i in order.
  template <typename Set>
  static void derive_register_seeds(std::uint64_t seed, int k, Set&& set);
  // The AND of every register's next 64 outputs.
  std::uint64_t next_word();
  // The stream's next `count` decisions (1..64), the first in bit 63.
  std::uint64_t take(int count);

  BernoulliSamplerConfig config_;
  std::vector<Lfsr> lfsrs_;
  std::uint64_t pending_ = 0;  // undrawn decisions of the current word, from bit 63 down
  int pending_bits_ = 0;
  std::vector<std::uint8_t> sipo_;
  int sipo_fill_ = 0;
  std::deque<std::vector<std::uint8_t>> fifo_;
  std::uint64_t bits_produced_ = 0;
  std::uint64_t words_pushed_ = 0;
  std::uint64_t stall_cycles_ = 0;
};

// Number of LFSRs (AND-tree inputs) required for a drop probability of
// 2^-k; throws unless p is an exact power of two in [2^-8, 0.5].
int lfsrs_for_probability(double p);

}  // namespace bnn::core

#endif  // BNN_CORE_BERNOULLI_SAMPLER_H
