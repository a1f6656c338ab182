// Micro-kernel GEMM benchmark: the blocked/vectorized kernels in
// nn/gemm_kernels.h versus their plain scalar references, on the layer
// shapes the float path actually runs (VGG-class im2col GEMM, conv backward
// passes, FC forward), the int8 NNE's linear layer (the filter tile over a
// one-position map), and the NNE's four-term int8 conv GEMM on every
// distinct conv shape of the paper networks.
//
// Every row first PROVES bit-identity (memcmp of the full output, both
// accumulate modes) and only then times the two variants; a mismatch is a
// hard failure (non-zero exit), which is what the ctest smoke entry checks.
// Speedups are a single-thread property, independent of the core count,
// unlike the thread-scaling benches.
//
//   ./build/bench/gemm_microbench [--smoke] [--repeats N] [--json PATH]
//
// --json writes a BENCH_gemm.json-style artifact so successive PRs have a
// recorded perf trajectory for the hot path; it names the four-term step
// the int8 GEMM ran (kernels::gemm_i8_body).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "nn/gemm_kernels.h"
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
  double macs = 0.0;  // multiply-adds in one timed fast run
  double speedup() const { return fast_ms > 0.0 ? scalar_ms / fast_ms : 0.0; }
  double gmac_s() const { return fast_ms > 0.0 ? macs / (fast_ms * 1e6) : 0.0; }
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
  return {fc.name, fc.variant, fc.m, fc.n, fc.k, scalar_s * 1e3, fast_s * 1e3, identical,
          static_cast<double>(fc.m) * fc.n * fc.k};
}

// sum_t (x[t] - zp) * w[t], the specification's per-term loop.
std::int32_t plain_dot(const std::int8_t* x, const std::int8_t* w, int len, std::int32_t zp) {
  std::int32_t acc = 0;
  for (int t = 0; t < len; ++t)
    acc += (static_cast<std::int32_t>(x[t]) - zp) * static_cast<std::int32_t>(w[t]);
  return acc;
}

// int8 NNE linear layer: one full output-filter sweep (rows x len dots),
// the scalar loop vs the NNE's form — the input row flipped to u = x + 128
// and one n = 1 call of the filter tile over a K-major copy packed once.
Result run_int8_case(int rows, int len, int repeats) {
  util::Rng rng(rows * 1009 + len);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len));
  std::vector<std::int8_t> w(static_cast<std::size_t>(rows) * len);
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const std::int32_t zp = -3;
  const int groups = kernels::gemm_i8_groups(len), ldw = kernels::gemm_i8_ldw(rows);
  std::vector<std::int8_t> wk(static_cast<std::size_t>(groups) * ldw * 4);
  kernels::pack_i8_kmajor(rows, len, w.data(), wk.data());
  std::vector<std::int32_t> correction(static_cast<std::size_t>(rows));
  kernels::gemm_i8_corrections(rows, len, w.data(), zp, correction.data());
  std::vector<std::uint8_t> u(static_cast<std::size_t>(groups) * 4, 0);

  std::vector<std::int32_t> out_scalar(static_cast<std::size_t>(rows)),
      out_kernel(static_cast<std::size_t>(rows));
  const auto scalar_sweep = [&] {
    for (int f = 0; f < rows; ++f)
      out_scalar[static_cast<std::size_t>(f)] =
          plain_dot(x.data(), w.data() + static_cast<std::size_t>(f) * len, len, zp);
  };
  const auto kernel_sweep = [&] {
    for (int t = 0; t < len; ++t)
      u[static_cast<std::size_t>(t)] =
          static_cast<std::uint8_t>(x[static_cast<std::size_t>(t)]) ^ 0x80u;
    kernels::gemm_u8i8_kmajor(rows, 1, len, wk.data(), ldw, u.data(), 1, correction.data(),
                              out_kernel.data(), 1);
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
  return {"nne linear tile", "gemm_u8i8_kmajor n=1", rows, 1, len, scalar_s * 1e3,
          kernel_s * 1e3, identical, static_cast<double>(inner) * rows * len};
}

// One distinct conv GEMM shape of the paper networks (bench/common.h's
// LeNet-5, VGG-11 / 8 and ResNet-18 base 8): m filters, n output positions,
// k = in_c * kernel^2 terms.
struct ConvShape {
  const char* layers;
  int m, n, k;
};

constexpr ConvShape kPaperConvShapes[] = {
    {"lenet5 L0", 6, 784, 25},
    {"lenet5 L1", 16, 100, 150},
    {"vgg11 L0, resnet18 L0", 8, 1024, 27},
    {"resnet18 L1-L4", 8, 1024, 72},
    {"vgg11 L1, resnet18 L5", 16, 256, 72},
    {"resnet18 L6, L8-L9", 16, 256, 144},
    {"resnet18 L7 (1x1)", 16, 256, 8},
    {"vgg11 L2, resnet18 L10", 32, 64, 144},
    {"vgg11 L3, resnet18 L11, L13-L14", 32, 64, 288},
    {"resnet18 L12 (1x1)", 32, 64, 16},
    {"vgg11 L4, resnet18 L15", 64, 16, 288},
    {"vgg11 L5, resnet18 L16, L18-L19", 64, 16, 576},
    {"resnet18 L17 (1x1)", 64, 16, 32},
    {"vgg11 L6-L7", 64, 4, 576},
};

// The NNE's conv GEMM on one shape, as core::nne_gemm calls it: the panel
// is interleaved from K-major int8 term rows by kernels::interleave_group
// (a tenth of the entries are padding at the zero point), the tile is the
// one kernels::gemm_i8_filter_vectorized picks, and the output must EQUAL
// the plain loop sum_t (x[t][p] - zp) * w[f][t] (hard gate). The plain loop
// is timed once per call, the kernel over enough calls for a stable time.
Result run_conv_gemm_case(const ConvShape& shape, int repeats) {
  const int m = shape.m, n = shape.n, k = shape.k;
  const std::int32_t zp = -3;
  util::Rng rng(m * 7 + n * 131 + k * 1009);
  std::vector<std::int8_t> w(static_cast<std::size_t>(m) * k), x(static_cast<std::size_t>(k) * n);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : x)
    v = static_cast<std::int8_t>(rng.uniform_int(0, 9) == 0 ? zp : rng.uniform_int(-128, 127));

  const int ldx = kernels::gemm_i8_ldx(n);
  const int groups = kernels::gemm_i8_groups(k);
  std::vector<std::uint8_t> panel(static_cast<std::size_t>(groups) * ldx * 4, 0);
  const std::vector<std::int8_t> tail_row(static_cast<std::size_t>(n), std::int8_t{-128});
  for (int g = 0; g < groups; ++g) {
    const std::int8_t* rows[4];
    for (int j = 0; j < 4; ++j)
      rows[j] = 4 * g + j < k ? x.data() + static_cast<std::size_t>(4 * g + j) * n
                              : tail_row.data();
    kernels::interleave_group(rows, 1, n, 0, 1,
                               panel.data() + static_cast<std::size_t>(g) * ldx * 4);
  }
  std::vector<std::int32_t> correction(static_cast<std::size_t>(m));
  kernels::gemm_i8_corrections(m, k, w.data(), zp, correction.data());
  const bool filter_tile = kernels::gemm_i8_filter_vectorized(n);
  std::vector<std::int8_t> wk;
  if (filter_tile) {
    wk.resize(static_cast<std::size_t>(groups) * kernels::gemm_i8_ldw(m) * 4);
    kernels::pack_i8_kmajor(m, k, w.data(), wk.data());
  }

  std::vector<std::int32_t> plain(static_cast<std::size_t>(m) * n),
      fast(static_cast<std::size_t>(m) * n);
  const auto plain_gemm = [&] {
    std::fill(plain.begin(), plain.end(), 0);
    for (int f = 0; f < m; ++f)
      for (int t = 0; t < k; ++t) {
        const std::int32_t wt = w[static_cast<std::size_t>(f) * k + t];
        const std::int8_t* xt = x.data() + static_cast<std::size_t>(t) * n;
        std::int32_t* c = plain.data() + static_cast<std::size_t>(f) * n;
        for (int p = 0; p < n; ++p) c[p] += (static_cast<std::int32_t>(xt[p]) - zp) * wt;
      }
  };
  const auto kernel_gemm = [&] {
    if (filter_tile)
      kernels::gemm_u8i8_kmajor(m, n, k, wk.data(), kernels::gemm_i8_ldw(m), panel.data(), ldx,
                                correction.data(), fast.data(), n);
    else
      kernels::gemm_u8i8(m, n, k, w.data(), panel.data(), ldx, correction.data(), fast.data(), n);
  };
  plain_gemm();
  kernel_gemm();
  const bool identical = plain == fast;

  const int inner = std::max(1, 4'000'000 / (m * n * k));
  const double plain_s = best_seconds(repeats, plain_gemm);
  const double kernel_s = best_seconds(repeats, [&] {
    for (int i = 0; i < inner; ++i) kernel_gemm();
  });
  return {shape.layers, filter_tile ? "gemm_u8i8_kmajor" : "gemm_u8i8", m, n, k, plain_s * 1e3,
          kernel_s / inner * 1e3, identical, static_cast<double>(m) * n * k};
}

void write_json(const char* path, bool smoke, const std::vector<Result>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "gemm_microbench: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"gemm_microbench\",\n  \"smoke\": %s,\n"
               "  \"gemm_i8_body\": \"%s\",\n  \"rows\": [\n",
               smoke ? "true" : "false", kernels::gemm_i8_body());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"variant\": \"%s\", \"m\": %d, \"n\": %d, "
                 "\"k\": %d, \"scalar_ms\": %.4f, \"blocked_ms\": %.4f, "
                 "\"speedup\": %.3f, \"gmac_s\": %.2f, \"bit_identical\": %s}%s\n",
                 r.name.c_str(), r.variant.c_str(), r.m, r.n, r.k, r.scalar_ms, r.fast_ms,
                 r.speedup(), r.gmac_s(), r.bit_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int repeats = 3;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc)
      repeats = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
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
  // The paper-net conv shapes are small, so the smoke runs all of them:
  // their equality gate covers both int8 GEMM tiles in every build.
  for (const ConvShape& shape : kPaperConvShapes)
    results.push_back(run_conv_gemm_case(shape, repeats));

  util::TextTable table("GEMM micro-kernels — blocked vs scalar reference (single thread)");
  table.set_header({"shape (layer)", "variant", "m", "n", "k", "scalar ms", "blocked ms",
                    "speedup", "GMAC/s", "bit-identical"});
  bool all_identical = true;
  for (const Result& r : results) {
    all_identical = all_identical && r.bit_identical;
    table.add_row({r.name, r.variant, std::to_string(r.m), std::to_string(r.n),
                   std::to_string(r.k), util::fixed(r.scalar_ms, 3), util::fixed(r.fast_ms, 3),
                   util::fixed(r.speedup(), 2) + "x", util::fixed(r.gmac_s(), 1),
                   r.bit_identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading the table: the blocked kernels hold a small output tile in\n"
      "registers across L1-resident k-panels; each c[i,j] still sums its\n"
      "k-terms in ascending order, so outputs are bit-identical to the scalar\n"
      "loops (hard-checked above). The int8 conv GEMM rows (gemm_u8i8*) take\n"
      "four terms per step with the '%s' step and must equal the plain\n"
      "loop exactly. Speedups are single-thread and compose with the\n"
      "across-sample thread parallelism of predict_batch.\n",
      kernels::gemm_i8_body());

  if (json_path != nullptr) write_json(json_path, smoke, results);
  if (!all_identical) {
    std::fprintf(stderr, "FATAL: blocked kernel output diverged from the scalar reference\n");
    return 1;
  }
  return 0;
}
