// Single-input DAG of layers executed in insertion (topological) order.
//
// The node list doubles as the layer-by-layer schedule the accelerator
// follows, and retained per-node activations enable `replay_from`, the
// software analogue of the paper's intermediate-layer caching: recompute
// only the stochastic suffix for each Monte Carlo sample.
#ifndef BNN_NN_NETWORK_H
#define BNN_NN_NETWORK_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace bnn::nn {

class MaskSource;

class Network {
 public:
  using NodeId = int;

  // The implicit network input behaves as node 0; real layers get ids >= 1.
  static constexpr NodeId input_id = 0;

  Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  // Appends a single-input layer; returns its node id. Inputs must refer to
  // already-added nodes (insertion order is the topological order).
  NodeId add(std::unique_ptr<Layer> layer, NodeId input);
  // Appends a two-input layer (Add).
  NodeId add(std::unique_ptr<Layer> layer, NodeId input_a, NodeId input_b);

  // Full forward pass; per-node activations are retained for replay_from /
  // backward. Returns the output of the last node.
  Tensor forward(const Tensor& x);

  // Recomputes nodes with id >= first_node using the activations retained by
  // the previous forward() for everything earlier. Stochastic layers draw
  // fresh masks, so repeated replays yield fresh Monte Carlo samples.
  Tensor replay_from(NodeId first_node);

  // Computes and retains only the activations replay_suffix(first_node, ..)
  // needs: the input plus nodes [1, first_node). Nodes from first_node on
  // are left empty instead of being computed and thrown away — this is the
  // IC prefix pass, without the wasted suffix of a full forward(). Requires
  // eval mode (stochastic prefix sites must be inactive so the retained
  // prefix is deterministic).
  void prepare_replay(const Tensor& x, NodeId first_node);

  // Stateless, thread-safe variant of replay_from for the parallel Monte
  // Carlo runner: recomputes nodes with id >= first_node into caller-local
  // scratch, reading the retained activations (shared, read-only) for
  // everything earlier. Active MCD sites draw their masks from
  // site_masks[node] (one entry per node, required non-null exactly at the
  // active sites being replayed) instead of the layers' own sources, so
  // concurrent replays on the same network never touch shared mutable
  // state. Requires eval mode; every non-stochastic layer's eval forward is
  // a pure function of its input and parameters.
  Tensor replay_suffix(NodeId first_node, const std::vector<MaskSource*>& site_masks) const;

  // Shared slice store for replay_suffix_row: each prefix node's row is
  // cut once (by whichever caller needs it first) and reused, so the S
  // samples of one image do not re-copy the same boundary rows. One
  // instance per (prepared input, row); safe to share across concurrent
  // replay_suffix_row calls for that row.
  class ReplayRowCache {
   public:
    explicit ReplayRowCache(int num_nodes);

   private:
    friend class Network;
    std::vector<Tensor> rows_;
    std::unique_ptr<std::once_flag[]> once_;
  };

  // Per-worker reusable scratch for replay_suffix_row: the node output
  // slots, the dropout-mask scratch, and the layer-internal buffers
  // (Layer::forward_into + Tensor::reset) all stabilize at their high-water
  // sizes, so a worker replaying a deep suffix (VGG-11/ResNet-18 at L = N)
  // stops churning the allocator once per node per sample. One arena per
  // worker (thread_local or pool-slot keyed) — it must NOT be shared by
  // concurrent replay calls. Results are bit-identical with and without an
  // arena (the in-place layer paths run the exact same arithmetic).
  class ReplayArena {
   public:
    ReplayArena() = default;

    // Node `id`'s output from this arena's last replay_suffix_row call,
    // valid until its next one. Only suffix nodes hold one, and the output
    // node's slot is empty: the call returned that tensor.
    const Tensor& node(NodeId id) const;

   private:
    friend class Network;
    std::vector<Tensor> nodes_;  // suffix output slot per node
    Tensor mask_;                // MCD mask scratch (one site at a time)
  };

  // As replay_suffix, but replays the suffix for ONE batch row of the
  // prepared input: retained prefix activations are read as their
  // (contiguous) row `row` slice, so the suffix runs on batch size 1. This
  // is the unit of the flattened (image, sample) Monte Carlo pair loop —
  // every pair replays exactly one image, whatever batch the prefix was
  // prepared with. `cache`, when non-null, shares the prefix slices across
  // calls for the same row. `arena`, when non-null, supplies this worker's
  // reusable scratch (see ReplayArena); output is bit-identical either
  // way. Same thread-safety contract as replay_suffix.
  Tensor replay_suffix_row(NodeId first_node, const std::vector<MaskSource*>& site_masks,
                           int row, ReplayRowCache* cache = nullptr,
                           ReplayArena* arena = nullptr) const;

  // Backpropagates grad_out (gradient w.r.t. the network output) through the
  // DAG; parameter gradients accumulate in each layer. Returns the gradient
  // w.r.t. the network input. Requires a forward() in training mode.
  Tensor backward(const Tensor& grad_out);

  void set_training(bool training);
  void zero_grad();
  std::vector<Param*> params();

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  NodeId output_node() const { return num_nodes() - 1; }
  // nullptr for the input pseudo-node (id 0).
  Layer* layer(NodeId id);
  const Layer* layer(NodeId id) const;
  const std::vector<NodeId>& inputs_of(NodeId id) const;

  // Node ids of all layers of the given kind, in topological order.
  std::vector<NodeId> find_nodes(LayerKind kind) const;

  // Per-node output shapes for a given network input shape (index 0 is the
  // input itself).
  std::vector<std::vector<int>> infer_shapes(const std::vector<int>& in_shape) const;

  // Output shape of the whole network.
  std::vector<int> output_shape(const std::vector<int>& in_shape) const;

  // Total multiply-accumulates of one forward pass.
  std::int64_t total_macs(const std::vector<int>& in_shape) const;

  // Retained activation of a node from the last forward()/replay_from().
  const Tensor& activation(NodeId id) const;

 private:
  struct Node {
    std::unique_ptr<Layer> layer;  // null for the input pseudo-node
    std::vector<NodeId> inputs;
  };

  Tensor run_node(NodeId id);

  std::vector<Node> nodes_;
  std::vector<Tensor> activations_;
  bool has_forward_ = false;
};

}  // namespace bnn::nn

#endif  // BNN_NN_NETWORK_H
