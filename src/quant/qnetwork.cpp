#include "quant/qnetwork.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "util/check.h"

namespace bnn::quant {

std::size_t QuantNetwork::resident_weight_bytes() const {
  std::size_t total = 0;
  for (const QLayer& layer : layers) total += layer.resident_weight_bytes();
  return total;
}

int QuantNetwork::cut_layer_for(int bayes_layers) const {
  util::require(bayes_layers >= 0 && bayes_layers <= num_sites,
                "cut_layer_for: bayes_layers out of range");
  if (bayes_layers == 0) return num_layers() - 1;
  const int first_active_site = num_sites - bayes_layers;
  for (int i = 0; i < num_layers(); ++i) {
    const nn::HwLayer& geom = layers[static_cast<std::size_t>(i)].geom;
    if (geom.is_bayes_site && geom.site_index == first_active_site) return i;
  }
  util::ensure(false, "cut_layer_for: site bookkeeping inconsistent");
  return -1;
}

nn::NetworkDesc QuantNetwork::describe() const {
  nn::NetworkDesc desc;
  desc.name = name;
  desc.num_classes = num_classes;
  if (!layers.empty()) {
    const nn::HwLayer& first = layers.front().geom;
    desc.input_shape = {first.in_c, first.in_h, first.in_w};
  }
  for (const QLayer& layer : layers) desc.layers.push_back(layer.geom);
  return desc;
}

namespace {

// Float-network source references for one hardware layer, gathered by the
// same traversal describe_network performs.
struct LayerRefs {
  const nn::Conv2d* conv = nullptr;
  const nn::Linear* linear = nullptr;
  const nn::BatchNorm2d* bn = nullptr;
  nn::Network::NodeId anchor = -1;  // node whose activation is the pre-DU output
  int input_source = -1;            // producing layer of this layer's input
  int shortcut_source = -1;
};

std::vector<LayerRefs> collect_layer_refs(const nn::Network& net) {
  std::vector<LayerRefs> refs;
  // Maps attached nodes to the hardware layer they belong to.
  std::vector<int> node_to_layer(static_cast<std::size_t>(net.num_nodes()), -1);

  for (nn::Network::NodeId id = 1; id < net.num_nodes(); ++id) {
    const nn::Layer* layer = net.layer(id);
    const int current = static_cast<int>(refs.size()) - 1;
    switch (layer->kind()) {
      case nn::LayerKind::conv2d: {
        LayerRefs entry;
        entry.conv = static_cast<const nn::Conv2d*>(layer);
        entry.anchor = id;
        entry.input_source =
            node_to_layer[static_cast<std::size_t>(net.inputs_of(id)[0])];
        refs.push_back(entry);
        node_to_layer[static_cast<std::size_t>(id)] = static_cast<int>(refs.size()) - 1;
        break;
      }
      case nn::LayerKind::linear: {
        LayerRefs entry;
        entry.linear = static_cast<const nn::Linear*>(layer);
        entry.anchor = id;
        entry.input_source =
            node_to_layer[static_cast<std::size_t>(net.inputs_of(id)[0])];
        refs.push_back(entry);
        node_to_layer[static_cast<std::size_t>(id)] = static_cast<int>(refs.size()) - 1;
        break;
      }
      case nn::LayerKind::batch_norm:
        util::ensure(current >= 0, "quantize: BN before any conv/linear");
        refs[static_cast<std::size_t>(current)].bn =
            static_cast<const nn::BatchNorm2d*>(layer);
        refs[static_cast<std::size_t>(current)].anchor = id;
        node_to_layer[static_cast<std::size_t>(id)] = current;
        break;
      case nn::LayerKind::relu:
      case nn::LayerKind::max_pool:
      case nn::LayerKind::avg_pool:
      case nn::LayerKind::global_avg_pool:
        util::ensure(current >= 0, "quantize: FU node before any conv/linear");
        refs[static_cast<std::size_t>(current)].anchor = id;
        node_to_layer[static_cast<std::size_t>(id)] = current;
        break;
      case nn::LayerKind::quadratic:
        util::require(false,
                      "quantize: quadratic activations are a BYNQNet-baseline feature and "
                      "have no int8 FU mapping in this accelerator");
        break;
      case nn::LayerKind::add: {
        util::ensure(current >= 0, "quantize: add before any conv/linear");
        LayerRefs& entry = refs[static_cast<std::size_t>(current)];
        // The operand coming from outside the current layer's chain is the
        // shortcut; the other one is the main path.
        for (nn::Network::NodeId input : net.inputs_of(id)) {
          const int source = node_to_layer[static_cast<std::size_t>(input)];
          if (source != current) entry.shortcut_source = source;
        }
        util::ensure(entry.shortcut_source >= 0,
                     "quantize: shortcut operand must come from an earlier layer");
        entry.anchor = id;
        node_to_layer[static_cast<std::size_t>(id)] = current;
        break;
      }
      case nn::LayerKind::mc_dropout:
      case nn::LayerKind::flatten:
      case nn::LayerKind::softmax:
        // Part of the current layer's stream, but not a new range anchor:
        // ranges are observed pre-dropout, and flatten/softmax do not alter
        // the stored feature map (softmax runs on the host).
        if (current >= 0) node_to_layer[static_cast<std::size_t>(id)] = current;
        break;
    }
  }
  return refs;
}

struct Range {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  void observe(float v) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  void merge(const Range& other) {
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
  }
};

}  // namespace

QuantNetwork quantize_model(nn::Model& model, const data::Dataset& calibration,
                            const CalibrationOptions& options) {
  util::require(calibration.size() > 0, "quantize_model: empty calibration set");
  util::require(options.max_images >= 1, "quantize_model: need at least one image");

  nn::Network& net = model.net();
  const nn::NetworkDesc desc = model.describe();
  const std::vector<LayerRefs> refs = collect_layer_refs(net);
  util::ensure(static_cast<int>(refs.size()) == desc.num_layers(),
               "quantize_model: traversal mismatch with describe_network");

  // --- Calibration: observe input and per-layer output ranges with the
  // float network in deterministic evaluation mode, one image per pool
  // index (see quantize_model's header comment for why this is exact).
  struct DepthRestore {
    nn::Model& model;
    int depth;
    ~DepthRestore() { model.set_bayesian_last(depth); }
  } const restore{model, model.bayesian_layers()};
  model.set_bayesian_last(0);
  net.set_training(false);

  const int images = std::min(options.max_images, calibration.size());
  const data::Batch batch = calibration.batch(0, images);
  Range input_range;
  for (std::int64_t i = 0; i < batch.images.numel(); ++i) input_range.observe(batch.images[i]);

  net.prepare_replay(batch.images, 1);
  const std::vector<nn::MaskSource*> no_masks(static_cast<std::size_t>(net.num_nodes()),
                                              nullptr);
  std::vector<Range> image_ranges(static_cast<std::size_t>(images) * refs.size());
  runtime::ThreadPool& pool = options.pool ? *options.pool : runtime::shared_pool();
  pool.parallel_for(images, [&](std::int64_t n) {
    // One arena per pool lane: bodies on one thread never overlap.
    thread_local nn::Network::ReplayArena arena;
    const nn::Tensor output =
        net.replay_suffix_row(1, no_masks, static_cast<int>(n), nullptr, &arena);
    Range* ranges = image_ranges.data() + static_cast<std::size_t>(n) * refs.size();
    for (std::size_t l = 0; l < refs.size(); ++l) {
      // The output node's slot was moved into `output`.
      const nn::Tensor& activation =
          refs[l].anchor == net.output_node() ? output : arena.node(refs[l].anchor);
      for (std::int64_t i = 0; i < activation.numel(); ++i) ranges[l].observe(activation[i]);
    }
  });
  std::vector<Range> out_ranges(refs.size());
  for (std::size_t slot = 0; slot < image_ranges.size(); ++slot)
    out_ranges[slot % refs.size()].merge(image_ranges[slot]);

  // --- Assemble the integer network.
  QuantNetwork qnet;
  qnet.name = model.name();
  qnet.num_classes = model.num_classes();
  qnet.num_sites = desc.num_sites();
  qnet.dropout_p = model.dropout_p();
  qnet.dropout_keep = quantize_multiplier(1.0 / (1.0 - model.dropout_p()));
  qnet.input = choose_activation_params(input_range.lo, input_range.hi);

  for (std::size_t l = 0; l < refs.size(); ++l) {
    const LayerRefs& ref = refs[l];
    QLayer qlayer;
    qlayer.geom = desc.layers[l];
    qlayer.input_source = ref.input_source;
    qlayer.shortcut_source = ref.shortcut_source;
    util::ensure(ref.input_source < static_cast<int>(l),
                 "quantize_model: layer input must come from an earlier layer");
    qlayer.in = ref.input_source < 0
                    ? qnet.input
                    : qnet.layers[static_cast<std::size_t>(ref.input_source)].out;
    qlayer.out = choose_activation_params(out_ranges[l].lo, out_ranges[l].hi);

    const int out_c = qlayer.geom.out_c;
    const std::int64_t row =
        static_cast<std::int64_t>(qlayer.geom.in_c) * qlayer.geom.kernel * qlayer.geom.kernel;
    const float* w_src = ref.conv != nullptr ? ref.conv->weight().value.data()
                                             : ref.linear->weight().value.data();
    qlayer.weights.resize(static_cast<std::size_t>(out_c) * row);
    qlayer.weight_scales.resize(static_cast<std::size_t>(out_c));
    for (int f = 0; f < out_c; ++f) {
      const float* w_row = w_src + static_cast<std::int64_t>(f) * row;
      const float w_scale = choose_weight_scale(w_row, row);
      qlayer.weight_scales[static_cast<std::size_t>(f)] = w_scale;
      for (std::int64_t i = 0; i < row; ++i) {
        const auto q = static_cast<std::int32_t>(std::lround(w_row[i] / w_scale));
        qlayer.weights[static_cast<std::size_t>(f) * row + static_cast<std::size_t>(i)] =
            saturate_int8(q);
      }
    }

    // BN inference affine (identity when the layer has no BN).
    std::vector<float> bn_scale(static_cast<std::size_t>(out_c), 1.0f);
    std::vector<float> bn_shift(static_cast<std::size_t>(out_c), 0.0f);
    if (ref.bn != nullptr) ref.bn->inference_affine(bn_scale, bn_shift);

    const bool has_bias = ref.conv != nullptr ? ref.conv->has_bias() : ref.linear->has_bias();
    const float* bias_src = nullptr;
    if (has_bias)
      bias_src = ref.conv != nullptr ? ref.conv->bias().value.data()
                                     : ref.linear->bias().value.data();

    qlayer.bias.resize(static_cast<std::size_t>(out_c));
    qlayer.requant.resize(static_cast<std::size_t>(out_c));
    qlayer.post_add.resize(static_cast<std::size_t>(out_c));
    for (int f = 0; f < out_c; ++f) {
      const double acc_scale = static_cast<double>(qlayer.in.scale) *
                               qlayer.weight_scales[static_cast<std::size_t>(f)];
      qlayer.bias[static_cast<std::size_t>(f)] =
          has_bias ? static_cast<std::int32_t>(std::llround(bias_src[f] / acc_scale)) : 0;
      qlayer.requant[static_cast<std::size_t>(f)] = quantize_multiplier(
          static_cast<double>(bn_scale[static_cast<std::size_t>(f)]) * acc_scale /
          qlayer.out.scale);
      qlayer.post_add[static_cast<std::size_t>(f)] = static_cast<std::int32_t>(
          std::llround(bn_shift[static_cast<std::size_t>(f)] / qlayer.out.scale));
    }

    if (qlayer.geom.has_shortcut) {
      util::ensure(qlayer.shortcut_source >= 0, "quantize_model: missing shortcut source");
      const QuantParams source_out =
          qnet.layers[static_cast<std::size_t>(qlayer.shortcut_source)].out;
      qlayer.shortcut_rescale =
          quantize_multiplier(static_cast<double>(source_out.scale) / qlayer.out.scale);
    }

    qnet.layers.push_back(std::move(qlayer));
  }
  return qnet;
}

}  // namespace bnn::quant
