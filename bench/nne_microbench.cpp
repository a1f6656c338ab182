// Microbenchmark of the simulator itself: how fast the cycle-counted NNE
// datapath and the untiled reference executor run on the host. Useful for
// sizing experiments; not a claim about FPGA speed (that is what the cycle
// model is for).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "data/synth.h"
#include "core/nne.h"
#include "nn/bitpack_kernels.h"
#include "nn/gemm_kernels.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "quant/qplan.h"
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

void bm_nne_layer(benchmark::State& state) {
  auto& s = setup();
  const quant::QLayer& layer = s.qnet->layers.front();
  core::NneConfig config;
  config.pc = static_cast<int>(state.range(0));
  config.pf = static_cast<int>(state.range(1));
  config.pv = static_cast<int>(state.range(2));
  for (auto _ : state) {
    auto result = core::nne_run_layer(layer, s.image, nullptr, false, nullptr,
                                      s.qnet->dropout_keep, config);
    benchmark::DoNotOptimize(result.output.data.data());
  }
  state.SetItemsProcessed(state.iterations() * layer.geom.macs());
  state.SetLabel("PC/PF/PV=" + std::to_string(state.range(0)) + "/" +
                 std::to_string(state.range(1)) + "/" + std::to_string(state.range(2)));
}
BENCHMARK(bm_nne_layer)->Args({8, 8, 1})->Args({64, 64, 1})->Args({128, 128, 16});

// One full-length int8 inner product in isolation: plain per-term loop vs
// kernels::dot_i8_zp on a VGG-class term count (in_c=128, 3x3 kernel).
void bm_int8_dot_scalar(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len)), w(static_cast<std::size_t>(len));
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const std::int32_t zp = -3;
  for (auto _ : state) {
    std::int32_t acc = 0;
    for (int t = 0; t < len; ++t)
      acc += (static_cast<std::int32_t>(x[static_cast<std::size_t>(t)]) - zp) *
             static_cast<std::int32_t>(w[static_cast<std::size_t>(t)]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_int8_dot_scalar)->Arg(1152);

void bm_int8_dot_kernel(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len)), w(static_cast<std::size_t>(len));
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const std::int32_t zp = -3;
  for (auto _ : state) {
    std::int32_t acc = nn::kernels::dot_i8_zp(x.data(), w.data(), len, zp);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_int8_dot_kernel)->Arg(1152);

// The int8 tier's conv GEMM on a VGG-class layer: 64 filters x 576 terms
// (64 channels, 3x3) over an 8x8 map, from an already-lowered panel.
void bm_int8_gemm(benchmark::State& state) {
  const int m = 64, k = 576, n = static_cast<int>(state.range(0));
  const int ldx = nn::kernels::gemm_i8_ldx(n);
  util::Rng rng(1234);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k), x(static_cast<std::size_t>(k) * ldx);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
  const std::int32_t zp = -3;
  for (auto _ : state) {
    nn::kernels::gemm_i8_zp(m, n, k, w.data(), x.data(), ldx, zp, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(bm_int8_gemm)->Arg(64);

// The bit-packed tier on the same VGG-class term count: packed_row_dot
// (XOR+popcount over 64-term words) against the int8 rows above. The
// activation plane is packed once outside the loop — in the real path one
// pack per input position is amortized over every output filter, so the
// steady-state per-filter cost is exactly this dot (bm_bitpack_pack times
// the amortized pack itself).
void bm_bitpack_dot(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  quant::QLayer layer;
  layer.geom.op = nn::HwLayer::Op::linear;
  layer.geom.in_c = len;
  layer.geom.out_c = 1;
  layer.weights.resize(static_cast<std::size_t>(len));
  for (auto& v : layer.weights)
    v = static_cast<std::int8_t>(rng.uniform_int(0, 1) != 0 ? 5 : -5);
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  const std::int8_t lo = -7, hi = 9;
  std::vector<std::int8_t> x(static_cast<std::size_t>(len));
  for (auto& v : x) v = rng.uniform_int(0, 1) != 0 ? hi : lo;
  std::vector<std::uint64_t> xbits(static_cast<std::size_t>(plan.words));
  const std::int32_t x_pop = nn::kernels::pack_eq_bits(x.data(), len, hi, xbits.data());
  const std::int32_t zp = -3;
  for (auto _ : state) {
    std::int32_t acc = quant::packed_row_dot(plan, 0, xbits.data(), x_pop, lo - zp,
                                             static_cast<std::int32_t>(hi) - lo);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_bitpack_dot)->Arg(1152);

void bm_bitpack_pack(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  const std::int8_t lo = -7, hi = 9;
  std::vector<std::int8_t> x(static_cast<std::size_t>(len));
  for (auto& v : x) v = rng.uniform_int(0, 1) != 0 ? hi : lo;
  std::vector<std::uint64_t> xbits(
      static_cast<std::size_t>(nn::kernels::bit_words(len)));
  for (auto _ : state) {
    std::int32_t pop = nn::kernels::pack_eq_bits(x.data(), len, hi, xbits.data());
    benchmark::DoNotOptimize(pop);
    benchmark::DoNotOptimize(xbits.data());
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_bitpack_pack)->Arg(1152);

void bm_full_network_reference(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    auto outputs = quant::ref_forward(*s.qnet, s.image, 0, nullptr);
    benchmark::DoNotOptimize(outputs.back().data.data());
  }
  state.SetItemsProcessed(state.iterations() * s.qnet->describe().total_macs());
}
BENCHMARK(bm_full_network_reference);

}  // namespace

BENCHMARK_MAIN();
