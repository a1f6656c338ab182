// Micro-kernel GEMM benchmark: the blocked/vectorized kernels in
// nn/gemm_kernels.h versus their plain scalar references, on the layer
// shapes the float path actually runs (VGG-class im2col GEMM, conv backward
// passes, FC forward) plus the int8 NNE dot kernels.
//
// Every row first PROVES bit-identity (memcmp of the full output, both
// accumulate modes) and only then times the two variants; a mismatch is a
// hard failure (non-zero exit), which is what the ctest smoke entry checks.
// Speedups are a single-thread property, independent of the core count,
// unlike the thread-scaling benches.
//
//   ./build/bench/gemm_microbench [--smoke] [--repeats N] [--json PATH]
//                                 [--bitpack]
//
// --json writes a BENCH_gemm.json-style artifact so successive PRs have a
// recorded perf trajectory for the hot path. --bitpack switches to the
// packed XNOR/popcount kernel tier (quant/qplan.h): binarizable rows
// against the int8 dot_i8_zp baseline, same hard bit-identity gate (the
// bench.bitpack_smoke ctest entry).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "nn/bitpack_kernels.h"
#include "nn/gemm_kernels.h"
#include "quant/qplan.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace bnn;
namespace kernels = nn::kernels;

double best_seconds(int repeats, const std::function<void()>& body) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    util::Stopwatch watch;
    body();
    best = std::min(best, watch.elapsed_seconds());
  }
  return best;
}

using GemmFn = void (*)(int, int, int, const float*, const float*, float*, bool);

struct FloatCase {
  const char* name;     // which layer this shape comes from
  const char* variant;  // gemm / gemm_at / gemm_bt
  GemmFn scalar;
  GemmFn blocked;
  int m, n, k;
};

struct Result {
  std::string name, variant;
  int m, n, k;
  double scalar_ms, fast_ms;
  bool bit_identical;
  double speedup() const { return fast_ms > 0.0 ? scalar_ms / fast_ms : 0.0; }
};

std::vector<float> random_matrix(std::size_t elems, util::Rng& rng) {
  std::vector<float> v(elems);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

Result run_float_case(const FloatCase& fc, int repeats) {
  util::Rng rng(fc.m * 7919 + fc.n * 131 + fc.k);
  // gemm_at stores A as [K, M]; the element count is the same either way.
  const std::vector<float> a = random_matrix(static_cast<std::size_t>(fc.m) * fc.k, rng);
  const std::vector<float> b = random_matrix(static_cast<std::size_t>(fc.k) * fc.n, rng);
  const std::size_t out = static_cast<std::size_t>(fc.m) * fc.n;
  std::vector<float> c_scalar(out), c_blocked(out);

  // Bit-identity gate, both accumulate modes, before any timing.
  bool identical = true;
  for (const bool accumulate : {false, true}) {
    std::fill(c_scalar.begin(), c_scalar.end(), 0.25f);
    std::fill(c_blocked.begin(), c_blocked.end(), 0.25f);
    fc.scalar(fc.m, fc.n, fc.k, a.data(), b.data(), c_scalar.data(), accumulate);
    fc.blocked(fc.m, fc.n, fc.k, a.data(), b.data(), c_blocked.data(), accumulate);
    identical = identical && std::memcmp(c_scalar.data(), c_blocked.data(),
                                         out * sizeof(float)) == 0;
  }

  const double scalar_s = best_seconds(repeats, [&] {
    fc.scalar(fc.m, fc.n, fc.k, a.data(), b.data(), c_scalar.data(), false);
  });
  const double fast_s = best_seconds(repeats, [&] {
    fc.blocked(fc.m, fc.n, fc.k, a.data(), b.data(), c_blocked.data(), false);
  });
  return {fc.name, fc.variant, fc.m, fc.n, fc.k, scalar_s * 1e3, fast_s * 1e3, identical};
}

// int8 NNE inner product: one full output-filter sweep of a linear layer
// (rows x len dots), scalar loop vs kernels::dot_i8_zp.
Result run_int8_case(int rows, int len, int repeats) {
  util::Rng rng(rows * 1009 + len);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len));
  std::vector<std::int8_t> w(static_cast<std::size_t>(rows) * len);
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const std::int32_t zp = -3;

  std::vector<std::int32_t> out_scalar(static_cast<std::size_t>(rows)),
      out_kernel(static_cast<std::size_t>(rows));
  const auto scalar_sweep = [&] {
    for (int f = 0; f < rows; ++f) {
      std::int32_t acc = 0;
      const std::int8_t* wr = w.data() + static_cast<std::size_t>(f) * len;
      for (int t = 0; t < len; ++t)
        acc += (static_cast<std::int32_t>(x[static_cast<std::size_t>(t)]) - zp) *
               static_cast<std::int32_t>(wr[t]);
      out_scalar[static_cast<std::size_t>(f)] = acc;
    }
  };
  const auto kernel_sweep = [&] {
    for (int f = 0; f < rows; ++f)
      out_kernel[static_cast<std::size_t>(f)] =
          kernels::dot_i8_zp(x.data(), w.data() + static_cast<std::size_t>(f) * len, len, zp);
  };
  scalar_sweep();
  kernel_sweep();
  const bool identical = out_scalar == out_kernel;

  // One sweep is too short to time; batch enough sweeps per measurement.
  const int inner = std::max(1, 20'000'000 / (rows * len));
  const double scalar_s = best_seconds(repeats, [&] {
    for (int i = 0; i < inner; ++i) scalar_sweep();
  });
  const double kernel_s = best_seconds(repeats, [&] {
    for (int i = 0; i < inner; ++i) kernel_sweep();
  });
  return {"nne linear tile", "dot_i8_zp", rows, 1, len, scalar_s * 1e3, kernel_s * 1e3,
          identical};
}

// Bit-packed kernel tier: one output-filter sweep of a binarizable linear
// layer (rows x len dots), the int8 dot_i8_zp baseline vs pack-once +
// packed_row_dot. Activation packing runs INSIDE the timed sweep — the real
// path packs each input once and amortizes it over all filters, and so does
// this. `ternary` adds zero weights (the AND2 path); without it every row
// is zero-free and the plan takes the single-XOR path.
Result run_bitpack_case(const char* variant, int rows, int len, bool ternary, int repeats) {
  util::Rng rng(rows * 2029 + len * 7 + (ternary ? 1 : 0));
  quant::QLayer layer;
  layer.geom.op = nn::HwLayer::Op::linear;
  layer.geom.in_c = len;
  layer.geom.out_c = rows;
  layer.weights.resize(static_cast<std::size_t>(rows) * len);
  const std::int8_t mag = 5;
  for (auto& w : layer.weights) {
    const int pick = rng.uniform_int(0, ternary ? 2 : 1);
    w = static_cast<std::int8_t>(pick == 0 ? -mag : pick == 1 ? mag : 0);
  }
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  if (!plan.weights_binarizable || plan.pure_binary == ternary) {
    std::fprintf(stderr, "FATAL: bitpack bench layer did not plan as intended\n");
    std::exit(1);
  }

  const std::int8_t lo = -7, hi = 9;
  const std::int32_t zp = -3;
  std::vector<std::int8_t> x(static_cast<std::size_t>(len));
  for (auto& v : x) v = rng.uniform_int(0, 1) != 0 ? hi : lo;

  std::vector<std::int32_t> out_i8(static_cast<std::size_t>(rows)),
      out_packed(static_cast<std::size_t>(rows));
  const auto int8_sweep = [&] {
    for (int f = 0; f < rows; ++f)
      out_i8[static_cast<std::size_t>(f)] =
          kernels::dot_i8_zp(x.data(), layer.weight_row(f), len, zp);
  };
  std::vector<std::uint64_t> xbits(static_cast<std::size_t>(plan.words));
  const auto packed_sweep = [&] {
    const std::int32_t x_pop = kernels::pack_eq_bits(x.data(), len, hi, xbits.data());
    const std::int32_t base = lo - zp;
    const std::int32_t delta = static_cast<std::int32_t>(hi) - lo;
    for (int f = 0; f < rows; ++f)
      out_packed[static_cast<std::size_t>(f)] =
          quant::packed_row_dot(plan, f, xbits.data(), x_pop, base, delta);
  };
  int8_sweep();
  packed_sweep();
  const bool identical = out_i8 == out_packed;

  const int inner = std::max(1, 20'000'000 / (rows * len));
  const double i8_s = best_seconds(repeats, [&] {
    for (int i = 0; i < inner; ++i) int8_sweep();
  });
  const double packed_s = best_seconds(repeats, [&] {
    for (int i = 0; i < inner; ++i) packed_sweep();
  });
  return {"nne binarizable linear", variant, rows, 1, len, i8_s * 1e3, packed_s * 1e3,
          identical};
}

void write_json(const char* path, bool smoke, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "gemm_microbench: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"gemm_microbench\",\n  \"smoke\": %s,\n  \"rows\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"variant\": \"%s\", \"m\": %d, \"n\": %d, "
                 "\"k\": %d, \"scalar_ms\": %.4f, \"blocked_ms\": %.4f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 r.name.c_str(), r.variant.c_str(), r.m, r.n, r.k, r.scalar_ms, r.fast_ms,
                 r.speedup(), r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool bitpack = false;
  int repeats = 3;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--bitpack") == 0)
      bitpack = true;
    else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc)
      repeats = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }

  if (bitpack) {
    // The binarizable-layer tier: the VGG-class conv-as-dot shape
    // (128 filters x 1152 terms) both zero-free (XOR path) and ternary
    // (AND2 path), plus an odd-length row that exercises the partial tail
    // word. The smoke keeps the VGG shape — the >=4x headline claim is
    // checked on exactly the layer class the paper binarizes.
    std::vector<Result> results;
    results.push_back(run_bitpack_case("bitpack_xor", 128, 1152, false, repeats));
    results.push_back(run_bitpack_case("bitpack_ternary", 128, 1152, true, repeats));
    results.push_back(run_bitpack_case("bitpack_xor", 16, 300, false, repeats));
    if (!smoke) {
      results.push_back(run_bitpack_case("bitpack_xor", 512, 4096, false, repeats));
      results.push_back(run_bitpack_case("bitpack_ternary", 512, 4096, true, repeats));
    }

    util::TextTable table(
        "Bit-packed XNOR/popcount tier — packed vs int8 dot (single thread)");
    table.set_header({"shape (layer)", "variant", "rows", "n", "terms", "int8 ms",
                      "packed ms", "speedup", "bit-identical"});
    bool all_identical = true;
    for (const Result& r : results) {
      all_identical = all_identical && r.bit_identical;
      table.add_row({r.name, r.variant, std::to_string(r.m), std::to_string(r.n),
                     std::to_string(r.k), util::fixed(r.scalar_ms, 3),
                     util::fixed(r.fast_ms, 3), util::fixed(r.speedup(), 2) + "x",
                     r.bit_identical ? "yes" : "NO"});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf(
        "Reading the table: weights in {-W, 0, +W} collapse the int8 dot to\n"
        "word-level popcounts (64 terms per XOR+POPCNT); the activation plane\n"
        "is packed once per input and amortized over all filters. The packed\n"
        "accumulator equals dot_i8_zp exactly (integer identity, hard-checked\n"
        "above), so the tier changes host speed only — never a bit of output.\n");

    if (json_path != nullptr) write_json(json_path, smoke, results);
    if (!all_identical) {
      std::fprintf(stderr, "FATAL: packed dot diverged from the int8 reference\n");
      return 1;
    }
    return 0;
  }

  // Layer-derived shapes. The VGG-class row is the reduced VGG-11's widest
  // im2col GEMM: out_c x (out_h*out_w) x (in_c*3*3). Smoke shapes keep the
  // same remainder structure (non-multiples of the 4x16 register block) at
  // a fraction of the FLOPs.
  std::vector<FloatCase> cases;
  if (smoke) {
    cases = {
        {"conv fwd (smoke)", "gemm", kernels::gemm_scalar, kernels::gemm_blocked, 18, 50, 37},
        {"conv bwd dcol (smoke)", "gemm_at", kernels::gemm_at_scalar, kernels::gemm_at_blocked,
         37, 50, 18},
        {"fc fwd (smoke)", "gemm_bt", kernels::gemm_bt_scalar, kernels::gemm_bt_blocked, 9, 21,
         130},
    };
  } else {
    cases = {
        {"vgg conv fwd", "gemm", kernels::gemm_scalar, kernels::gemm_blocked, 128, 1024, 1152},
        {"vgg conv bwd dW", "gemm_bt", kernels::gemm_bt_scalar, kernels::gemm_bt_blocked, 128,
         1152, 1024},
        {"vgg conv bwd dcol", "gemm_at", kernels::gemm_at_scalar, kernels::gemm_at_blocked,
         1152, 1024, 128},
        {"fc fwd", "gemm_bt", kernels::gemm_bt_scalar, kernels::gemm_bt_blocked, 32, 512, 1024},
    };
  }

  std::vector<Result> results;
  for (const FloatCase& fc : cases) results.push_back(run_float_case(fc, repeats));
  results.push_back(smoke ? run_int8_case(16, 300, repeats)
                          : run_int8_case(128, 1152, repeats));

  util::TextTable table("GEMM micro-kernels — blocked vs scalar reference (single thread)");
  table.set_header({"shape (layer)", "variant", "m", "n", "k", "scalar ms", "blocked ms",
                    "speedup", "bit-identical"});
  bool all_identical = true;
  for (const Result& r : results) {
    all_identical = all_identical && r.bit_identical;
    table.add_row({r.name, r.variant, std::to_string(r.m), std::to_string(r.n),
                   std::to_string(r.k), util::fixed(r.scalar_ms, 3), util::fixed(r.fast_ms, 3),
                   util::fixed(r.speedup(), 2) + "x", r.bit_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading the table: the blocked kernels hold a small output tile in\n"
      "registers across L1-resident k-panels; each c[i,j] still sums its\n"
      "k-terms in ascending order, so outputs are bit-identical to the scalar\n"
      "loops (hard-checked above). The speedup is single-thread and composes\n"
      "with the across-sample thread parallelism of predict_batch.\n");

  if (json_path != nullptr) write_json(json_path, smoke, results);
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: blocked kernel output diverged from the scalar reference\n");
    return 1;
  }
  return 0;
}
