// Reference integer executor for QuantNetwork — the functional
// SPECIFICATION of the accelerator. Plain nested loops, no tiling, no plan
// tables, no kernels: the simulated NNE (src/core/nne.h) is the one fast
// executor and must reproduce these int8 outputs bit-exactly for every
// layer and network (enforced by tests). Sharing no code with it is what
// makes those tests independent checks.
//
// Per-layer pipeline (matching the NNE stages):
//   PE   : int32 accumulation of (q_in - zp_in) * w over C*K*K, plus bias
//   FU/BN: per-channel fixed-point requantization + post-add (+ zp_out)
//   FU/SC: rescaled shortcut operand added in output units
//   FU/ReLU, FU/Pool
//   DU   : filter-wise Bernoulli mask; dropped -> zp_out, kept -> x/(1-p)
#ifndef BNN_QUANT_QOPS_H
#define BNN_QUANT_QOPS_H

#include <functional>
#include <memory>
#include <vector>

#include "nn/dropout.h"
#include "quant/qnetwork.h"
#include "quant/qtensor.h"

namespace bnn::quant {

// Executes one layer. `shortcut` must be non-null iff geom.has_shortcut.
// When `site_active` is true one drop decision per output filter is drawn
// from `masks` (which must then be non-null), in ascending filter order.
QTensor ref_run_layer(const QLayer& layer, const QTensor& input, const QTensor* shortcut,
                      bool site_active, nn::MaskSource* masks, FixedMultiplier dropout_keep);

// Executes the whole network (last `bayes_layers` sites active) and returns
// every layer's stored (post-DU) output. `masks` may be null when
// bayes_layers == 0.
std::vector<QTensor> ref_forward(const QuantNetwork& net, const QTensor& image,
                                 int bayes_layers, nn::MaskSource* masks);

// Dequantized logits (1, K) from the final layer's output.
nn::Tensor ref_logits(const QuantNetwork& net, const QTensor& final_output);

// Monte Carlo predictive distribution over a batch of float images
// (N, C, H, W) -> (N, K): quantizes each image, runs `num_samples` full
// stochastic forward passes and averages host-side softmax outputs. There
// is no intermediate caching here: the accelerator's IC schedule is checked
// against this full recompute.
nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, nn::MaskSource& masks);

// Builds the mask stream that one (image, sample) pair consumes. The
// factory form mirrors the accelerator's parallel runtime, which gives
// every Monte Carlo sample its own decorrelated sampler lane (see
// core::Accelerator::sample_stream_seed) instead of threading one shared
// stream through all samples.
using MaskStreamFactory =
    std::function<std::unique_ptr<nn::MaskSource>(int image, int sample)>;

// As above, but each (image, sample) draws from its own stream. With a
// factory that reproduces the accelerator's per-sample seeds this is the
// bit-exact reference for Accelerator::predict at any thread count.
nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, const MaskStreamFactory& streams);

}  // namespace bnn::quant

#endif  // BNN_QUANT_QOPS_H
