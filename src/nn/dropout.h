// Monte Carlo Dropout (Gal & Ghahramani 2016), filter-wise as in the paper:
// one Bernoulli drop decision per output channel, dropped channels zeroed,
// survivors scaled by 1/(1-p). Unlike standard dropout it stays active at
// inference when the layer is marked active, which is what turns a point
// network into an MCD Bayesian network.
//
// The drop decisions come from a MaskSource so the same layer can be driven
// either by a software RNG (float reference path) or by the simulated
// LFSR-based hardware Bernoulli sampler (src/core/bernoulli_sampler.h).
#ifndef BNN_NN_DROPOUT_H
#define BNN_NN_DROPOUT_H

#include <cstdint>
#include <memory>

#include "nn/layer.h"
#include "util/rng.h"

namespace bnn::nn {

// Stream of drop decisions; next_drop() is true with probability p.
class MaskSource {
 public:
  virtual ~MaskSource() = default;
  virtual bool next_drop() = 0;

  // Bulk draw: the next n decisions of the same stream, in draw order, into
  // ceil(n / 64) words. Decision i is bit 63 - i % 64 of words[i / 64] (a
  // word's first decision is its highest bit), and bits past n in the last
  // word are 0. The default calls next_drop() n times; a source that makes
  // whole words (the hardware sampler) serves them directly.
  virtual void draw_drops(int n, std::uint64_t* words);
};

// Draws one filter-wise MCD mask of shape (batch, channels) from `source`:
// 0 for dropped channels, 1/(1-p) for kept ones. Decisions are drawn
// channel-minor, matching the hardware sampler's filter-serial stream.
Tensor draw_mc_dropout_mask(int batch, int channels, MaskSource& source, double p);

// As draw_mc_dropout_mask, writing into `mask` (Tensor::reset — reuses
// capacity, so a replay arena's mask scratch stops churning the allocator).
void draw_mc_dropout_mask_into(int batch, int channels, MaskSource& source, double p,
                               Tensor& mask);

// Applies a (batch, channels) mask to a (N, C, H, W) or (N, F) tensor.
// Pure function of its inputs — the thread-safe replay path uses this pair
// instead of McDropout::forward so concurrent samples never touch shared
// layer state.
Tensor apply_mc_dropout_mask(const Tensor& x, const Tensor& mask);

// As apply_mc_dropout_mask, writing into `out` (must not alias `x`).
void apply_mc_dropout_mask_into(const Tensor& x, const Tensor& mask, Tensor& out);

// Software mask source backed by the deterministic Rng.
class RngMaskSource final : public MaskSource {
 public:
  RngMaskSource(double p, util::Rng rng) : p_(p), rng_(rng) {}
  bool next_drop() override { return rng_.bernoulli(p_); }
  double p() const { return p_; }

 private:
  double p_;
  util::Rng rng_;
};

class McDropout final : public Layer {
 public:
  // `p` is the drop probability (the paper uses p = 0.25 everywhere).
  explicit McDropout(double p, std::uint64_t seed = 1);

  LayerKind kind() const override { return LayerKind::mc_dropout; }

  // Accepts (N, C, H, W) — channel-wise mask — or (N, F) — feature-wise.
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<int> out_shape(const std::vector<int>& in_shape) const override {
    return in_shape;
  }

  // Inactive dropout is the identity: a partial BNN disables the sites in
  // the deterministic prefix.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  double p() const { return p_; }
  void set_p(double p);

  // Re-seed the built-in software source (used to decorrelate MC samples
  // across repeats deterministically).
  void reseed(std::uint64_t seed);

  // Seed of the built-in source; root of this site's per-sample stream
  // family in the parallel Monte Carlo runner (bayes::mc_predict derives
  // sample s's stream as Rng(seed()).fork(s)).
  std::uint64_t seed() const { return seed_; }

  // Use an external mask source (e.g. the simulated hardware sampler); the
  // caller keeps ownership. Pass nullptr to return to the built-in source.
  // Note: bayes::mc_predict refuses sites with an external source — its
  // parallel per-sample streams derive from seed(), not from source().
  void set_mask_source(MaskSource* source) { external_source_ = source; }
  bool has_external_mask_source() const { return external_source_ != nullptr; }

  // Scaled mask of the last active forward, shape (N, C): 0 for dropped
  // channels, 1/(1-p) for kept ones.
  const Tensor& last_mask() const { return mask_; }

 private:
  MaskSource& source();

  double p_;
  bool active_ = false;
  std::uint64_t seed_;
  std::unique_ptr<RngMaskSource> owned_source_;
  MaskSource* external_source_ = nullptr;
  Tensor mask_;
  bool forward_was_active_ = false;
};

}  // namespace bnn::nn

#endif  // BNN_NN_DROPOUT_H
