// Microbenchmark of the simulator itself: how fast the cycle-counted NNE
// datapath and the untiled reference executor run on the host, down to the
// per-stage breakdown of every paper-network conv layer and the cost of a
// block of Monte Carlo samples per suffix layer. Useful for sizing
// experiments; not a claim about FPGA speed (that is what the cycle model
// is for).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synth.h"
#include "core/accelerator.h"
#include "core/bernoulli_sampler.h"
#include "core/nne.h"
#include "nn/gemm_kernels.h"
#include "nn/models.h"
#include "quant/qnetwork.h"
#include "quant/qops.h"
#include "quant/qplan.h"
#include "runtime/thread_pool.h"
#include "serve/trace.h"
#include "train/trainer.h"

namespace {

using namespace bnn;

struct Setup {
  Setup() {
    util::Rng rng(51);
    model = std::make_unique<nn::Model>(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(52);
    data::Dataset digits = data::make_synth_digits(64, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);
    model->set_bayesian_last(0);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(*model, *dataset));
    image = quant::quantize_image(dataset->images(), 0, qnet->input);
  }
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
  quant::QTensor image;
};

Setup& setup() {
  static Setup instance;
  return instance;
}

void bm_reference_layer(benchmark::State& state) {
  auto& s = setup();
  const quant::QLayer& layer = s.qnet->layers.front();
  for (auto _ : state) {
    auto out = quant::ref_run_layer(layer, s.image, nullptr, false, nullptr,
                                    s.qnet->dropout_keep);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * layer.geom.macs());
}
BENCHMARK(bm_reference_layer);

// One int8 linear layer in isolation (LeNet-5's 400 -> 120 shape): the
// plain per-term loop per filter vs the NNE's form, the input flipped to
// u = x + 128 and one n = 1 call of the filter tile over a K-major copy
// packed once.
struct LinearOperands {
  int rows, len;
  std::vector<std::int8_t> x, w, wk;
  std::vector<std::int32_t> correction, out;
  std::vector<std::uint8_t> u;
};

LinearOperands linear_operands(int rows, int len) {
  LinearOperands o{rows, len, {}, {}, {}, {}, {}, {}};
  util::Rng rng(1234);
  o.x.resize(static_cast<std::size_t>(len));
  o.w.resize(static_cast<std::size_t>(rows) * len);
  for (auto& v : o.x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : o.w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const int groups = nn::kernels::gemm_i8_groups(len);
  o.wk.resize(static_cast<std::size_t>(groups) * nn::kernels::gemm_i8_ldw(rows) * 4);
  nn::kernels::pack_i8_kmajor(rows, len, o.w.data(), o.wk.data());
  o.correction.resize(static_cast<std::size_t>(rows));
  nn::kernels::gemm_i8_corrections(rows, len, o.w.data(), -3, o.correction.data());
  o.out.resize(static_cast<std::size_t>(rows));
  o.u.assign(static_cast<std::size_t>(groups) * 4, 0);
  return o;
}

void bm_int8_linear_scalar(benchmark::State& state) {
  LinearOperands o = linear_operands(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  const std::int32_t zp = -3;
  for (auto _ : state) {
    for (int f = 0; f < o.rows; ++f) {
      std::int32_t acc = 0;
      const std::int8_t* w = o.w.data() + static_cast<std::size_t>(f) * o.len;
      for (int t = 0; t < o.len; ++t)
        acc += (static_cast<std::int32_t>(o.x[static_cast<std::size_t>(t)]) - zp) *
               static_cast<std::int32_t>(w[t]);
      o.out[static_cast<std::size_t>(f)] = acc;
    }
    benchmark::DoNotOptimize(o.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * o.rows * o.len);
}
BENCHMARK(bm_int8_linear_scalar)->Args({120, 400});

void bm_int8_linear_kernel(benchmark::State& state) {
  LinearOperands o = linear_operands(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  const int ldw = nn::kernels::gemm_i8_ldw(o.rows);
  for (auto _ : state) {
    for (int t = 0; t < o.len; ++t)
      o.u[static_cast<std::size_t>(t)] =
          static_cast<std::uint8_t>(o.x[static_cast<std::size_t>(t)]) ^ 0x80u;
    nn::kernels::gemm_u8i8_kmajor(o.rows, 1, o.len, o.wk.data(), ldw, o.u.data(), 1,
                                  o.correction.data(), o.out.data(), 1);
    benchmark::DoNotOptimize(o.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * o.rows * o.len);
}
BENCHMARK(bm_int8_linear_kernel)->Args({120, 400});

// The NNE's conv GEMM on a VGG-class layer: 64 filters x 576 terms
// (64 channels, 3x3) over an 8x8 map, from an already-lowered grouped panel.
void bm_int8_gemm(benchmark::State& state) {
  const int m = 64, k = 576, n = static_cast<int>(state.range(0));
  const int ldx = nn::kernels::gemm_i8_ldx(n);
  util::Rng rng(1234);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(nn::kernels::gemm_i8_groups(k)) * ldx * 4);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  std::vector<std::int32_t> correction(static_cast<std::size_t>(m));
  nn::kernels::gemm_i8_corrections(m, k, w.data(), -3, correction.data());
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    nn::kernels::gemm_u8i8(m, n, k, w.data(), x.data(), ldx, correction.data(), c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(bm_int8_gemm)->Arg(64);

void bm_full_network_reference(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    auto outputs = quant::ref_forward(*s.qnet, s.image, 0, nullptr);
    benchmark::DoNotOptimize(outputs.back().data.data());
  }
  state.SetItemsProcessed(state.iterations() * s.qnet->describe().total_macs());
}
BENCHMARK(bm_full_network_reference);

// --- per-layer breakdown of the paper networks ----------------------------------
// Every conv layer of LeNet-5, VGG-11 (width / 8) and ResNet-18 (base 8),
// untrained, at the serving benchmark's pinned seeds (weights 101/201/301,
// data 102/202/302), so nothing trains. Each iteration runs a layer's four
// int8 stages (core::nne_lower, nne_gemm, nne_requant, nne_pool) one by
// one, then the whole nne_run_layer_into call; the row's time is the whole
// call, and counters give each stage's mean microseconds and the non-GEMM
// share of the staged time. A row fails, and the binary exits 1, when the
// composed stages do not reproduce the whole call's output.
// `nne_breakdown/<net>/conv` sums every conv layer of one network.

struct PaperNet {
  std::string name;
  nn::Model model;        // the float network and
  data::Dataset images;   // its calibration images (the quantize rows)
  std::unique_ptr<quant::QuantNetwork> qnet;
  quant::NetworkExecPlan plan;
  std::vector<quant::QTensor> outputs;  // the spec's deterministic pass
  quant::QTensor image;
};

PaperNet make_paper_net(std::string name, nn::Model model, data::Dataset images) {
  PaperNet net{std::move(name), std::move(model), std::move(images), {}, {}, {}, {}};
  net.qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(net.model, net.images));
  net.plan = quant::build_network_exec_plan(*net.qnet);
  net.image = quant::quantize_image(net.images.images(), 0, net.qnet->input);
  net.outputs = quant::ref_forward(*net.qnet, net.image, 0, nullptr);
  return net;
}

std::vector<PaperNet>& paper_nets() {
  static std::vector<PaperNet> nets = [] {
    std::vector<PaperNet> built;
    {
      util::Rng rng(101), data_rng(102);
      nn::Model model = nn::make_lenet5(rng);
      built.push_back(make_paper_net("lenet5", std::move(model),
                                     data::make_synth_digits(64, data_rng)));
    }
    {
      util::Rng rng(201), data_rng(202);
      nn::Model model = nn::make_vgg11(rng, 10, /*width_divisor=*/8);
      built.push_back(make_paper_net("vgg11", std::move(model),
                                     data::make_synth_svhn(64, data_rng)));
    }
    {
      util::Rng rng(301), data_rng(302);
      nn::Model model = nn::make_resnet18(rng, 10, /*base_width=*/8);
      built.push_back(make_paper_net("resnet18", std::move(model),
                                     data::make_synth_objects(64, data_rng)));
    }
    return built;
  }();
  return nets;
}

using Clock = std::chrono::steady_clock;

struct StageTotals {
  double lower = 0.0, gemm = 0.0, requant = 0.0, pool = 0.0, layer = 0.0;  // microseconds
};

// Working tensors of one layer's staged run, shaped once.
struct LayerRun {
  const quant::QLayer* layer;
  const quant::LayerExecPlan* plan;
  const quant::QTensor* input;
  const quant::QTensor* shortcut;
  quant::QTensor pre, pooled, whole;
};

LayerRun layer_run(const PaperNet& net, int l) {
  const quant::QLayer& layer = net.qnet->layers[static_cast<std::size_t>(l)];
  const nn::HwLayer& g = layer.geom;
  LayerRun run{&layer, &net.plan.layer(l),
               layer.input_source < 0 ? &net.image
                                      : &net.outputs[static_cast<std::size_t>(layer.input_source)],
               g.has_shortcut ? &net.outputs[static_cast<std::size_t>(layer.shortcut_source)]
                              : nullptr,
               quant::QTensor({g.out_c, g.conv_out_h, g.conv_out_w}, layer.out),
               quant::QTensor({g.out_c, g.out_h, g.out_w}, layer.out), {}};
  return run;
}

// Runs the four stages, then the whole call, adding each one's time.
// Returns whether the composed output equals the whole call's.
bool run_staged(LayerRun& run, core::NneScratch& scratch, StageTotals& totals) {
  const quant::QLayer& layer = *run.layer;
  const nn::HwLayer& g = layer.geom;
  const bool has_pool = g.pool_is_global || g.pool_kernel > 0;
  const auto t0 = Clock::now();
  core::nne_lower(layer, 1, *run.input, scratch);
  const auto t1 = Clock::now();
  core::nne_gemm(layer, *run.plan, 1, scratch);
  const auto t2 = Clock::now();
  core::nne_requant(layer, 1, scratch.sums.data(), run.shortcut, run.pre);
  const auto t3 = Clock::now();
  core::nne_pool(g, 1, run.pre, run.pooled);
  const auto t4 = Clock::now();
  core::nne_run_layer_into(layer, *run.plan, *run.input, run.shortcut, false, nullptr,
                           quant::FixedMultiplier{}, core::NneConfig{},
                           nn::kernels::Tier::int8, scratch, run.whole);
  const auto t5 = Clock::now();
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  totals.lower += us(t0, t1);
  totals.gemm += us(t1, t2);
  totals.requant += us(t2, t3);
  totals.pool += us(t3, t4);
  totals.layer += us(t4, t5);
  return (has_pool ? run.pooled.data : run.pre.data) == run.whole.data;
}

// Set when any row's output differs from its reference; main then exits
// non-zero.
bool g_stages_diverged = false;

void bm_nne_breakdown(benchmark::State& state, int net_index, int only_layer) {
  PaperNet& net = paper_nets()[static_cast<std::size_t>(net_index)];
  std::vector<LayerRun> runs;
  std::int64_t macs = 0;
  for (int l = 0; l < net.qnet->num_layers(); ++l) {
    if (net.qnet->layers[static_cast<std::size_t>(l)].geom.op != nn::HwLayer::Op::conv) continue;
    if (only_layer >= 0 && l != only_layer) continue;
    runs.push_back(layer_run(net, l));
    macs += net.qnet->layers[static_cast<std::size_t>(l)].geom.macs();
  }
  core::NneScratch scratch;
  StageTotals totals;
  bool same = true;
  for (auto _ : state) {
    const double before = totals.layer;
    for (LayerRun& run : runs) same = run_staged(run, scratch, totals) && same;
    state.SetIterationTime((totals.layer - before) / 1e6);
  }
  if (!same) {
    g_stages_diverged = true;
    state.SkipWithError("composed stages differ from nne_run_layer_into");
  }
  const double staged = totals.lower + totals.gemm + totals.requant + totals.pool;
  using benchmark::Counter;
  state.counters["lower_us"] = Counter(totals.lower, Counter::kAvgIterations);
  state.counters["gemm_us"] = Counter(totals.gemm, Counter::kAvgIterations);
  state.counters["requant_us"] = Counter(totals.requant, Counter::kAvgIterations);
  state.counters["pool_us"] = Counter(totals.pool, Counter::kAvgIterations);
  state.counters["layer_us"] = Counter(totals.layer, Counter::kAvgIterations);
  state.counters["non_gemm_share"] = staged > 0.0 ? (staged - totals.gemm) / staged : 0.0;
  state.SetItemsProcessed(state.iterations() * macs);
}

// --- the Dropout Unit per Bayesian site ------------------------------------------
// `nne_du/<net>/L<l>` times core::apply_dropout_unit on layer l's
// deterministic output with the accelerator's own sampler (its dropout p,
// PF and FIFO depth), reseeded every iteration from sample_stream_seed as a
// Monte Carlo lane is; the row's time is the DU call alone, and the
// counter `reseed_us` times the reseed. A row fails, and the binary exits
// 1, when the DU's output differs from the plain loop (one next_drop per
// filter, then the scalar quant chain) on the same stream.

// The plain-loop DU on `out`, drawing from `masks`.
void plain_dropout(quant::QTensor& out, nn::MaskSource& masks, quant::FixedMultiplier keep) {
  const std::int32_t zp = out.params.zero_point;
  const std::size_t plane = static_cast<std::size_t>(out.height()) * out.width();
  for (int f = 0; f < out.channels(); ++f) {
    std::int8_t* row = out.data.data() + static_cast<std::size_t>(f) * plane;
    const bool drop = masks.next_drop();
    for (std::size_t i = 0; i < plane; ++i)
      row[i] = drop ? quant::saturate_int8(zp)
                    : quant::saturate_int8(
                          quant::fixed_multiply(static_cast<std::int32_t>(row[i]) - zp, keep) +
                          zp);
  }
}

void bm_nne_du(benchmark::State& state, int net_index, int layer_index) {
  PaperNet& net = paper_nets()[static_cast<std::size_t>(net_index)];
  const quant::QTensor& site_output = net.outputs[static_cast<std::size_t>(layer_index)];
  const core::AcceleratorConfig accel;
  core::BernoulliSamplerConfig config;
  config.p = net.qnet->dropout_p;
  config.pf = accel.nne.pf;
  config.fifo_depth = accel.sampler_fifo_depth;
  core::BernoulliSampler sampler(config), reference(config);
  nn::MaskSource* const masks[1] = {&sampler};
  const quant::FixedMultiplier keep = net.qnet->dropout_keep;

  // The exactness check, on a few lanes' streams.
  bool same = true;
  for (int sample = 0; sample < 4; ++sample) {
    const std::uint64_t seed =
        core::Accelerator::sample_stream_seed(accel.sampler_seed, 0, sample);
    sampler.reseed(seed);
    reference.reseed(seed);
    quant::QTensor got = site_output, expected = site_output;
    core::apply_dropout_unit(got, 1, masks, keep);
    plain_dropout(expected, reference, keep);
    same = same && got.data == expected.data;
  }

  quant::QTensor work = site_output;
  double reseed_us = 0.0;
  int sample = 0;
  for (auto _ : state) {
    work.data = site_output.data;  // same size: no allocation
    const auto t0 = Clock::now();
    sampler.reseed(core::Accelerator::sample_stream_seed(accel.sampler_seed, 0, sample++));
    const auto t1 = Clock::now();
    core::apply_dropout_unit(work, 1, masks, keep);
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(work.data.data());
    benchmark::ClobberMemory();
    reseed_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    state.SetIterationTime(std::chrono::duration<double>(t2 - t1).count());
  }
  if (!same) {
    g_stages_diverged = true;
    state.SkipWithError("apply_dropout_unit differs from the plain-loop DU");
  }
  state.counters["reseed_us"] = benchmark::Counter(reseed_us, benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() * site_output.numel());
}

// --- blocks of Monte Carlo samples per suffix layer --------------------------------
// `nne_samples/<net>/L<l>/<B>` times one core::nne_run_block_into call over a
// block of B samples of layer l (every layer past the first Bayesian site,
// so every layer a suffix can hold) against B one-sample
// nne_run_layer_into calls on the same inputs. Sample b's input (and
// shortcut operand) is the spec's deterministic one with every byte moved
// by b, so the samples differ. The row's time is the block call; counters
// give both means and `ratio`, the block's time over the single calls'. A
// row fails, and the binary exits 1, when the block's sample b differs
// from the single call's.

// Sample b's copy of `t`, every byte moved by b (wrapping in int8).
quant::QTensor moved_by(const quant::QTensor& t, int b) {
  quant::QTensor out = t;
  for (auto& v : out.data) v = static_cast<std::int8_t>(static_cast<std::uint8_t>(v) + b);
  return out;
}

// The block tensor {C, B * H, W} of B one-sample tensors.
quant::QTensor stacked(const std::vector<quant::QTensor>& samples) {
  const int c = samples.front().channels(), h = samples.front().height();
  const int w = samples.front().width(), count = static_cast<int>(samples.size());
  quant::QTensor block({c, count * h, w}, samples.front().params);
  const std::size_t map = static_cast<std::size_t>(h) * w;
  for (int ch = 0; ch < c; ++ch)
    for (int b = 0; b < count; ++b)
      std::copy_n(samples[static_cast<std::size_t>(b)].data.data() + ch * map, map,
                  block.data.data() + (static_cast<std::size_t>(ch) * count + b) * map);
  return block;
}

void bm_nne_samples(benchmark::State& state, int net_index, int layer_index, int count) {
  PaperNet& net = paper_nets()[static_cast<std::size_t>(net_index)];
  const quant::QLayer& layer = net.qnet->layers[static_cast<std::size_t>(layer_index)];
  const quant::LayerExecPlan& plan = net.plan.layer(layer_index);
  const quant::QTensor& input = layer.input_source < 0
                                    ? net.image
                                    : net.outputs[static_cast<std::size_t>(layer.input_source)];
  std::vector<quant::QTensor> inputs, shortcuts;
  for (int b = 0; b < count; ++b) {
    inputs.push_back(moved_by(input, b));
    if (layer.geom.has_shortcut)
      shortcuts.push_back(
          moved_by(net.outputs[static_cast<std::size_t>(layer.shortcut_source)], b));
  }
  const quant::QTensor block_in = stacked(inputs);
  const quant::QTensor block_sc = layer.geom.has_shortcut ? stacked(shortcuts) : quant::QTensor{};
  const core::NneConfig config;
  core::NneScratch scratch;
  std::vector<quant::QTensor> singles(static_cast<std::size_t>(count));
  quant::QTensor block_out;
  const auto run_singles = [&] {
    for (int b = 0; b < count; ++b)
      core::nne_run_layer_into(layer, plan, inputs[static_cast<std::size_t>(b)],
                               layer.geom.has_shortcut ? &shortcuts[static_cast<std::size_t>(b)]
                                                       : nullptr,
                               false, nullptr, net.qnet->dropout_keep, config,
                               nn::kernels::Tier::int8, scratch,
                               singles[static_cast<std::size_t>(b)]);
  };
  const auto run_block = [&] {
    core::nne_run_block_into(layer, plan, count, block_in,
                             layer.geom.has_shortcut ? &block_sc : nullptr, false, nullptr,
                             net.qnet->dropout_keep, config, scratch, block_out);
  };
  run_singles();
  run_block();
  bool same = true;
  const std::size_t map = static_cast<std::size_t>(layer.geom.out_h) * layer.geom.out_w;
  for (int b = 0; b < count; ++b)
    for (int c = 0; c < layer.geom.out_c; ++c)
      same = same && std::equal(singles[static_cast<std::size_t>(b)].data.begin() +
                                    static_cast<std::ptrdiff_t>(c * map),
                                singles[static_cast<std::size_t>(b)].data.begin() +
                                    static_cast<std::ptrdiff_t>((c + 1) * map),
                                block_out.data.begin() +
                                    static_cast<std::ptrdiff_t>((c * count + b) * map));

  double singles_us = 0.0, block_us = 0.0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    run_singles();
    const auto t1 = Clock::now();
    run_block();
    const auto t2 = Clock::now();
    benchmark::DoNotOptimize(block_out.data.data());
    benchmark::ClobberMemory();
    singles_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    block_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
    state.SetIterationTime(std::chrono::duration<double>(t2 - t1).count());
  }
  if (!same) {
    g_stages_diverged = true;
    state.SkipWithError("the block call differs from the one-sample calls");
  }
  using benchmark::Counter;
  state.counters["singles_us"] = Counter(singles_us, Counter::kAvgIterations);
  state.counters["block_us"] = Counter(block_us, Counter::kAvgIterations);
  state.counters["ratio"] = singles_us > 0.0 ? block_us / singles_us : 0.0;
  state.SetItemsProcessed(state.iterations() * count * layer.geom.macs());
}

// --- calibration on a pool ------------------------------------------------------
// `quantize/<net>/1` times quant::quantize_model over the network's 64
// calibration images on a one-thread pool, `quantize/<net>/pool` on the
// shared pool (counter `threads`). A row fails, and the binary exits 1,
// when its QuantNetwork's serve::network_fingerprint differs from the
// one-thread network's.

void bm_quantize(benchmark::State& state, int net_index, bool on_shared_pool) {
  PaperNet& net = paper_nets()[static_cast<std::size_t>(net_index)];
  runtime::ThreadPool one_thread(1);
  quant::CalibrationOptions sequential;
  sequential.pool = &one_thread;
  const quant::CalibrationOptions options =
      on_shared_pool ? quant::CalibrationOptions{} : sequential;
  const std::uint64_t reference =
      serve::network_fingerprint(quant::quantize_model(net.model, net.images, sequential));
  quant::QuantNetwork last;
  for (auto _ : state) {
    last = quant::quantize_model(net.model, net.images, options);
    benchmark::DoNotOptimize(last.layers.data());
    benchmark::ClobberMemory();
  }
  if (serve::network_fingerprint(last) != reference) {
    g_stages_diverged = true;
    state.SkipWithError("the pooled calibration differs from the one-thread one");
  }
  state.counters["threads"] = on_shared_pool ? runtime::shared_pool().size() : 1;
}

void register_breakdowns() {
  const std::vector<PaperNet>& nets = paper_nets();
  for (int n = 0; n < static_cast<int>(nets.size()); ++n) {
    const quant::QuantNetwork& qnet = *nets[static_cast<std::size_t>(n)].qnet;
    const std::string& name = nets[static_cast<std::size_t>(n)].name;
    for (const bool on_shared_pool : {false, true})
      benchmark::RegisterBenchmark(
          ("quantize/" + name + (on_shared_pool ? "/pool" : "/1")).c_str(), bm_quantize, n,
          on_shared_pool)
          ->Unit(benchmark::kMillisecond);
    const std::string prefix = "nne_breakdown/" + name;
    benchmark::RegisterBenchmark((prefix + "/conv").c_str(), bm_nne_breakdown, n, -1)
        ->UseManualTime();
    for (int l = 0; l < qnet.num_layers(); ++l) {
      if (qnet.layers[static_cast<std::size_t>(l)].geom.op != nn::HwLayer::Op::conv) continue;
      benchmark::RegisterBenchmark((prefix + "/L" + std::to_string(l)).c_str(),
                                   bm_nne_breakdown, n, l)
          ->UseManualTime();
    }
    for (int l = 0; l < qnet.num_layers(); ++l) {
      if (!qnet.layers[static_cast<std::size_t>(l)].geom.is_bayes_site) continue;
      benchmark::RegisterBenchmark(
          ("nne_du/" + nets[static_cast<std::size_t>(n)].name + "/L" + std::to_string(l)).c_str(),
          bm_nne_du, n, l)
          ->UseManualTime();
    }
    for (int l = qnet.cut_layer_for(qnet.num_sites) + 1; l < qnet.num_layers(); ++l)
      for (const int count : {1, 2, 4, 8})
        benchmark::RegisterBenchmark(("nne_samples/" + nets[static_cast<std::size_t>(n)].name +
                                      "/L" + std::to_string(l) + "/" + std::to_string(count))
                                         .c_str(),
                                     bm_nne_samples, n, l, count)
            ->UseManualTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Which four-term step the int8 GEMM rows ran (BENCH_nne.json's context).
  benchmark::AddCustomContext("gemm_i8_body", nn::kernels::gemm_i8_body());
  register_breakdowns();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_stages_diverged ? 1 : 0;
}
