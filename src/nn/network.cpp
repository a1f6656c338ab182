#include "nn/network.h"

#include "nn/dropout.h"
#include "util/check.h"

namespace bnn::nn {

Network::Network() {
  nodes_.push_back(Node{});  // input pseudo-node
}

Network::NodeId Network::add(std::unique_ptr<Layer> layer, NodeId input) {
  util::require(layer != nullptr, "network: null layer");
  util::require(input >= 0 && input < num_nodes(), "network: unknown input node");
  nodes_.push_back(Node{std::move(layer), {input}});
  return num_nodes() - 1;
}

Network::NodeId Network::add(std::unique_ptr<Layer> layer, NodeId input_a, NodeId input_b) {
  util::require(layer != nullptr, "network: null layer");
  util::require(input_a >= 0 && input_a < num_nodes(), "network: unknown input node");
  util::require(input_b >= 0 && input_b < num_nodes(), "network: unknown input node");
  nodes_.push_back(Node{std::move(layer), {input_a, input_b}});
  return num_nodes() - 1;
}

Layer* Network::layer(NodeId id) {
  util::require(id >= 0 && id < num_nodes(), "network: node id out of range");
  return nodes_[static_cast<std::size_t>(id)].layer.get();
}

const Layer* Network::layer(NodeId id) const {
  util::require(id >= 0 && id < num_nodes(), "network: node id out of range");
  return nodes_[static_cast<std::size_t>(id)].layer.get();
}

const std::vector<Network::NodeId>& Network::inputs_of(NodeId id) const {
  util::require(id >= 1 && id < num_nodes(), "network: node id out of range");
  return nodes_[static_cast<std::size_t>(id)].inputs;
}

Tensor Network::run_node(NodeId id) {
  Node& node = nodes_[static_cast<std::size_t>(id)];
  if (node.inputs.size() == 1)
    return node.layer->forward(activations_[static_cast<std::size_t>(node.inputs[0])]);
  return node.layer->forward2(activations_[static_cast<std::size_t>(node.inputs[0])],
                              activations_[static_cast<std::size_t>(node.inputs[1])]);
}

Tensor Network::forward(const Tensor& x) {
  util::require(num_nodes() > 1, "network: no layers");
  activations_.assign(static_cast<std::size_t>(num_nodes()), Tensor{});
  activations_[0] = x;
  for (NodeId id = 1; id < num_nodes(); ++id)
    activations_[static_cast<std::size_t>(id)] = run_node(id);
  has_forward_ = true;
  return activations_.back();
}

Tensor Network::replay_from(NodeId first_node) {
  util::require(has_forward_, "network: replay_from requires a prior forward");
  util::require(first_node >= 1 && first_node < num_nodes(),
                "network: replay start out of range");
  for (NodeId id = first_node; id < num_nodes(); ++id)
    activations_[static_cast<std::size_t>(id)] = run_node(id);
  return activations_.back();
}

void Network::prepare_replay(const Tensor& x, NodeId first_node) {
  util::require(num_nodes() > 1, "network: no layers");
  util::require(first_node >= 1 && first_node < num_nodes(),
                "network: replay start out of range");
  activations_.assign(static_cast<std::size_t>(num_nodes()), Tensor{});
  activations_[0] = x;
  for (NodeId id = 1; id < first_node; ++id) {
    util::require(!nodes_[static_cast<std::size_t>(id)].layer->training(),
                  "network: prepare_replay requires eval mode");
    activations_[static_cast<std::size_t>(id)] = run_node(id);
  }
  has_forward_ = true;
}

Tensor Network::replay_suffix(NodeId first_node,
                              const std::vector<MaskSource*>& site_masks) const {
  return replay_suffix_row(first_node, site_masks, /*row=*/-1);
}

const Tensor& Network::ReplayArena::node(NodeId id) const {
  util::require(id >= 0 && static_cast<std::size_t>(id) < nodes_.size(),
                "network: replay arena holds no such node");
  return nodes_[static_cast<std::size_t>(id)];
}

Network::ReplayRowCache::ReplayRowCache(int num_nodes)
    : rows_(static_cast<std::size_t>(num_nodes)),
      once_(new std::once_flag[static_cast<std::size_t>(num_nodes)]) {}

Tensor Network::replay_suffix_row(NodeId first_node,
                                  const std::vector<MaskSource*>& site_masks,
                                  int row, ReplayRowCache* cache,
                                  ReplayArena* arena) const {
  util::require(has_forward_, "network: replay_suffix requires a prior forward");
  util::require(first_node >= 1 && first_node < num_nodes(),
                "network: replay start out of range");
  util::require(site_masks.size() == static_cast<std::size_t>(num_nodes()),
                "network: site_masks must carry one entry per node");
  util::require(cache == nullptr ||
                    cache->rows_.size() == static_cast<std::size_t>(num_nodes()),
                "network: replay cache sized for a different network");

  // Suffix output slots: the caller's arena (slots and their float storage
  // persist across calls, so each node's buffer stabilizes at its
  // high-water size) or call-local storage. Every slot is fully rewritten
  // before it is read — topological order — so stale arena contents never
  // leak into a replay.
  std::vector<Tensor> call_local;
  std::vector<Tensor>* slots = &call_local;
  if (arena) {
    arena->nodes_.resize(static_cast<std::size_t>(num_nodes()));
    slots = &arena->nodes_;
  } else {
    call_local.resize(static_cast<std::size_t>(num_nodes()));
  }
  std::vector<Tensor>& local = *slots;
  Tensor local_mask;
  Tensor& mask_scratch = arena ? arena->mask_ : local_mask;

  // Prefix reads: the whole retained activation (row < 0), or its single
  // batch row — cut once into the shared cache when one is supplied,
  // otherwise into call-local storage (still reused across shortcut
  // fan-out within this call).
  std::vector<Tensor> sliced(
      row < 0 || cache ? 0 : static_cast<std::size_t>(first_node));
  auto value_of = [this, first_node, row, cache, &local,
                   &sliced](NodeId id) -> const Tensor& {
    if (id >= first_node) return local[static_cast<std::size_t>(id)];
    if (row < 0) return activations_[static_cast<std::size_t>(id)];
    if (cache) {
      Tensor& shared = cache->rows_[static_cast<std::size_t>(id)];
      std::call_once(cache->once_[static_cast<std::size_t>(id)], [&] {
        shared = activations_[static_cast<std::size_t>(id)].batch_row(row);
      });
      return shared;
    }
    Tensor& slice = sliced[static_cast<std::size_t>(id)];
    if (slice.empty()) slice = activations_[static_cast<std::size_t>(id)].batch_row(row);
    return slice;
  };

  for (NodeId id = first_node; id < num_nodes(); ++id) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    Layer* layer = node.layer.get();
    util::require(!layer->training(), "network: replay_suffix requires eval mode");
    Tensor& out = local[static_cast<std::size_t>(id)];
    if (layer->kind() == LayerKind::mc_dropout) {
      const auto* site = static_cast<const McDropout*>(layer);
      const Tensor& x = value_of(node.inputs[0]);
      if (!site->active()) {
        out = x;  // inactive site is the identity (capacity-reusing copy)
        continue;
      }
      MaskSource* masks = site_masks[static_cast<std::size_t>(id)];
      util::require(masks != nullptr, "network: active site replayed without a mask source");
      draw_mc_dropout_mask_into(x.size(0), x.size(1), *masks, site->p(), mask_scratch);
      apply_mc_dropout_mask_into(x, mask_scratch, out);
    } else if (node.inputs.size() == 1) {
      layer->forward_into(value_of(node.inputs[0]), out);
    } else {
      layer->forward2_into(value_of(node.inputs[0]), value_of(node.inputs[1]), out);
    }
  }
  // Moving the back slot steals that one buffer from the arena (it regrows
  // next call); every other node's storage stays put for reuse.
  return std::move(local.back());
}

Tensor Network::backward(const Tensor& grad_out) {
  util::require(has_forward_, "network: backward requires a prior forward");
  std::vector<Tensor> grads(static_cast<std::size_t>(num_nodes()));
  grads.back() = grad_out;

  auto accumulate = [&grads](NodeId id, Tensor&& grad) {
    Tensor& slot = grads[static_cast<std::size_t>(id)];
    if (slot.empty())
      slot = std::move(grad);
    else
      slot.add_(grad);
  };

  for (NodeId id = num_nodes() - 1; id >= 1; --id) {
    Tensor& grad = grads[static_cast<std::size_t>(id)];
    if (grad.empty()) continue;  // node does not influence the output
    Node& node = nodes_[static_cast<std::size_t>(id)];
    if (node.inputs.size() == 1) {
      accumulate(node.inputs[0], node.layer->backward(grad));
    } else {
      auto [ga, gb] = node.layer->backward2(grad);
      accumulate(node.inputs[0], std::move(ga));
      accumulate(node.inputs[1], std::move(gb));
    }
    grad = Tensor{};  // free as we go
  }
  util::ensure(!grads[0].empty(), "network: input received no gradient");
  return grads[0];
}

void Network::set_training(bool training) {
  for (NodeId id = 1; id < num_nodes(); ++id)
    nodes_[static_cast<std::size_t>(id)].layer->set_training(training);
}

void Network::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<Param*> Network::params() {
  std::vector<Param*> out;
  for (NodeId id = 1; id < num_nodes(); ++id)
    for (Param* p : nodes_[static_cast<std::size_t>(id)].layer->params()) out.push_back(p);
  return out;
}

std::vector<Network::NodeId> Network::find_nodes(LayerKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 1; id < num_nodes(); ++id)
    if (nodes_[static_cast<std::size_t>(id)].layer->kind() == kind) out.push_back(id);
  return out;
}

std::vector<std::vector<int>> Network::infer_shapes(const std::vector<int>& in_shape) const {
  std::vector<std::vector<int>> shapes(static_cast<std::size_t>(num_nodes()));
  shapes[0] = in_shape;
  for (NodeId id = 1; id < num_nodes(); ++id) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    // Shape inference uses the first input; Add requires equal shapes anyway.
    shapes[static_cast<std::size_t>(id)] =
        node.layer->out_shape(shapes[static_cast<std::size_t>(node.inputs[0])]);
  }
  return shapes;
}

std::vector<int> Network::output_shape(const std::vector<int>& in_shape) const {
  return infer_shapes(in_shape).back();
}

std::int64_t Network::total_macs(const std::vector<int>& in_shape) const {
  const auto shapes = infer_shapes(in_shape);
  std::int64_t total = 0;
  for (NodeId id = 1; id < num_nodes(); ++id) {
    const Node& node = nodes_[static_cast<std::size_t>(id)];
    total += node.layer->macs(shapes[static_cast<std::size_t>(node.inputs[0])]);
  }
  return total;
}

const Tensor& Network::activation(NodeId id) const {
  util::require(has_forward_, "network: no retained activations");
  util::require(id >= 0 && id < num_nodes(), "network: node id out of range");
  return activations_[static_cast<std::size_t>(id)];
}

}  // namespace bnn::nn
