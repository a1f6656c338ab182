// Fig. 3 companion bench: throughput and statistical quality of the
// LFSR-based Bernoulli sampler (128-bit 4-tap LFSRs, AND tree, SIPO, FIFO).
// google-benchmark micro-timings plus a printed quality report.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/bernoulli_sampler.h"
#include "core/lfsr.h"

namespace {

void bm_lfsr128_step(benchmark::State& state) {
  bnn::core::Lfsr lfsr = bnn::core::make_lfsr128(0x1234ull);
  for (auto _ : state) benchmark::DoNotOptimize(lfsr.step());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_lfsr128_step);

// 64 clocks of the same register in one Lfsr::leap64 (exactly 64 steps).
void bm_lfsr128_leap64(benchmark::State& state) {
  bnn::core::Lfsr lfsr = bnn::core::make_lfsr128(0x1234ull);
  for (auto _ : state) benchmark::DoNotOptimize(lfsr.leap64());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(bm_lfsr128_leap64);

void bm_sampler_bit(benchmark::State& state) {
  bnn::core::BernoulliSamplerConfig config;
  config.p = 1.0 / static_cast<double>(state.range(0));
  bnn::core::BernoulliSampler sampler(config);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.next_drop());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("p=1/" + std::to_string(state.range(0)));
}
BENCHMARK(bm_sampler_bit)->Arg(2)->Arg(4)->Arg(8);

// A Dropout Unit's bulk draw: the decisions of a range(1)-filter site,
// served a word at a time.
void bm_sampler_draw_drops(benchmark::State& state) {
  bnn::core::BernoulliSamplerConfig config;
  config.p = 1.0 / static_cast<double>(state.range(0));
  bnn::core::BernoulliSampler sampler(config);
  const int n = static_cast<int>(state.range(1));
  std::vector<std::uint64_t> words(static_cast<std::size_t>((n + 63) / 64));
  for (auto _ : state) {
    sampler.draw_drops(n, words.data());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.SetLabel("p=1/" + std::to_string(state.range(0)) + " n=" + std::to_string(n));
}
BENCHMARK(bm_sampler_draw_drops)->Args({4, 64})->Args({4, 416});

// One Monte Carlo lane's reseed: every register re-derived from the lane's
// seed (util::mt19937_64_prefix, no engine), SIPO and FIFO cleared.
void bm_sampler_reseed(benchmark::State& state) {
  bnn::core::BernoulliSamplerConfig config;
  config.p = 1.0 / static_cast<double>(state.range(0));
  bnn::core::BernoulliSampler sampler(config);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sampler.reseed(seed++);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("p=1/" + std::to_string(state.range(0)));
}
BENCHMARK(bm_sampler_reseed)->Arg(2)->Arg(4)->Arg(256);

void bm_sampler_mask_word(benchmark::State& state) {
  bnn::core::BernoulliSamplerConfig config;
  config.p = 0.25;
  config.pf = static_cast<int>(state.range(0));
  config.fifo_depth = 4;
  bnn::core::BernoulliSampler sampler(config);
  std::vector<std::uint8_t> word;
  for (auto _ : state) {
    while (!sampler.pop_word(word)) sampler.step_cycle();
    benchmark::DoNotOptimize(word.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("PF=" + std::to_string(state.range(0)));
}
BENCHMARK(bm_sampler_mask_word)->Arg(32)->Arg(64)->Arg(128);

void print_quality_report() {
  using namespace bnn::core;
  std::printf("\n=== Fig. 3 sampler quality report ===\n");
  std::printf("%-10s %-8s %-14s %-14s\n", "p", "#LFSRs", "measured-rate", "|error|");
  for (double p : {0.5, 0.25, 0.125}) {
    BernoulliSamplerConfig config;
    config.p = p;
    config.seed = 2024;
    BernoulliSampler sampler(config);
    const int n = 200000;
    int drops = 0;
    for (int i = 0; i < n; ++i) drops += sampler.next_drop() ? 1 : 0;
    const double rate = static_cast<double>(drops) / n;
    std::printf("%-10.4f %-8d %-14.5f %-14.5f\n", p, sampler.num_lfsrs(), rate,
                std::abs(rate - p));
  }
  std::printf("\nPaper context: a single 128-bit maximal LFSR clocked at 160 MHz takes\n"
              "~1500 years to exhaust its sequence; the simulator uses the same 4-tap\n"
              "register (taps 128,126,101,99), verified maximal on small widths in the\n"
              "test suite.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_quality_report();
  return 0;
}
