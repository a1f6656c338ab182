// Thread-pool runtime and the parallel Monte Carlo determinism contract:
// mc_predict and Accelerator::predict must produce bit-identical
// predictions for every thread count at a fixed seed.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bayes/predictive.h"
#include "core/accelerator.h"
#include "data/synth.h"
#include "nn/models.h"
#include "train/trainer.h"

namespace bnn {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(runtime::resolve_thread_count(0), 1);  // auto
  EXPECT_EQ(runtime::resolve_thread_count(1), 1);
  EXPECT_EQ(runtime::resolve_thread_count(7), 7);
  EXPECT_THROW(runtime::resolve_thread_count(-1), std::invalid_argument);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    runtime::ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const int count = 100;
    std::vector<std::atomic<int>> hits(count);
    pool.parallel_for(count, [&hits](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < count; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossJobsAndEmptyJobIsNoop) {
  runtime::ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, [&total](std::int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 0);
  for (int repeat = 0; repeat < 3; ++repeat)
    pool.parallel_for(10, [&total](std::int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for(16,
                                   [&ran](std::int64_t i) {
                                     ran.fetch_add(1);
                                     if (i == 3) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 16);  // remaining indices still run
    // The pool stays usable after a throwing job.
    std::atomic<int> again{0};
    pool.parallel_for(4, [&again](std::int64_t) { again.fetch_add(1); });
    EXPECT_EQ(again.load(), 4);
  }
}

TEST(ThreadPool, MaxWorkersCapsConcurrency) {
  runtime::ThreadPool pool(8);
  for (int cap : {1, 2}) {
    std::atomic<int> active{0};
    std::atomic<int> high_water{0};
    pool.parallel_for(
        64,
        [&](std::int64_t) {
          const int now = active.fetch_add(1) + 1;
          int seen = high_water.load();
          while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          active.fetch_sub(1);
        },
        cap);
    EXPECT_LE(high_water.load(), cap) << "cap=" << cap;
  }
  // Cap larger than the pool is clamped, not an error; 0 means "all".
  std::atomic<int> total{0};
  pool.parallel_for(16, [&total](std::int64_t) { total.fetch_add(1); }, 99);
  pool.parallel_for(16, [&total](std::int64_t) { total.fetch_add(1); }, 0);
  EXPECT_EQ(total.load(), 32);
  EXPECT_THROW(pool.parallel_for(1, [](std::int64_t) {}, -1), std::invalid_argument);
}

TEST(ThreadPool, SharedPoolIsProcessWideAndReusable) {
  runtime::ThreadPool& a = runtime::shared_pool();
  runtime::ThreadPool& b = runtime::shared_pool();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), runtime::resolve_thread_count(0));
  std::atomic<int> total{0};
  a.parallel_for(10, [&total](std::int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
}

TEST(ThreadPool, ConcurrentSubmittersShareWorkersSafely) {
  runtime::ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&pool, &total] {
      for (int repeat = 0; repeat < 5; ++repeat)
        pool.parallel_for(20, [&total](std::int64_t) { total.fetch_add(1); });
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(total.load(), 4 * 5 * 20);
}

// --- where pool workers start ---------------------------------------------
// worker_start_cpu is the whole placement decision; where the kernel then
// runs a thread depends on the host, so no test asserts on it.

TEST(WorkerStartCpu, DistinctCpusWhileWorkersFitTheSet) {
  const std::vector<int> four{0, 1, 2, 3};
  EXPECT_EQ(runtime::worker_start_cpu(four, 1, 0), 2);
  EXPECT_EQ(runtime::worker_start_cpu(four, 1, 1), 3);
  EXPECT_EQ(runtime::worker_start_cpu(four, 1, 2), 0);
  EXPECT_EQ(runtime::worker_start_cpu(four, 1, 3), 1);
  for (const int creator : four) {
    std::vector<int> cpus;
    for (int worker = 0; worker < 4; ++worker)
      cpus.push_back(runtime::worker_start_cpu(four, creator, worker));
    EXPECT_NE(cpus.front(), creator) << "the first worker starts beside its creator";
    std::sort(cpus.begin(), cpus.end());
    EXPECT_EQ(cpus, four) << "creator " << creator;
  }
}

TEST(WorkerStartCpu, WrapsAroundPastTheSetSize) {
  const std::vector<int> four{0, 1, 2, 3};
  for (int worker = 0; worker < 4; ++worker) {
    EXPECT_EQ(runtime::worker_start_cpu(four, 2, worker + 4),
              runtime::worker_start_cpu(four, 2, worker));
    EXPECT_EQ(runtime::worker_start_cpu(four, 2, worker + 8),
              runtime::worker_start_cpu(four, 2, worker));
  }
}

TEST(WorkerStartCpu, NoMoveOnAOneCpuSet) {
  for (int worker = 0; worker < 3; ++worker) {
    EXPECT_EQ(runtime::worker_start_cpu({5}, 5, worker), -1);
    EXPECT_EQ(runtime::worker_start_cpu({5}, 2, worker), -1);
    EXPECT_EQ(runtime::worker_start_cpu({}, 0, worker), -1);
  }
}

TEST(WorkerStartCpu, FollowsANonContiguousSet) {
  const std::vector<int> odd{1, 3, 5};
  EXPECT_EQ(runtime::worker_start_cpu(odd, 3, 0), 5);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 3, 1), 1);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 3, 2), 3);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 5, 0), 1);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 1, 3), 3);
}

TEST(WorkerStartCpu, CountsFromAboveACreatorOutsideTheSet) {
  const std::vector<int> odd{1, 3, 5};
  EXPECT_EQ(runtime::worker_start_cpu(odd, 4, 0), 5);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 4, 1), 1);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 4, 2), 3);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 0, 0), 1);
  EXPECT_EQ(runtime::worker_start_cpu(odd, 6, 0), 1);
  EXPECT_EQ(runtime::worker_start_cpu(odd, -1, 0), 1);  // the creator's CPU is unknown
  EXPECT_THROW(runtime::worker_start_cpu(odd, 3, -1), std::invalid_argument);
}

// --- Monte Carlo determinism across thread counts -------------------------

TEST(ParallelMcPredict, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(17);
  nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
  model.set_bayesian_last(2);
  model.reseed_sites(4242);
  nn::Tensor x = nn::Tensor::randn({3, 1, 12, 12}, rng);

  bayes::PredictiveOptions options;
  options.num_samples = 16;
  options.num_threads = 1;
  const nn::Tensor reference = bayes::mc_predict(model, x, options);

  for (int threads : {2, 8, 0 /* auto */}) {
    options.num_threads = threads;
    const nn::Tensor probs = bayes::mc_predict(model, x, options);
    EXPECT_EQ(probs.max_abs_diff(reference), 0.0f) << "threads=" << threads;
  }

  // Purity: masks derive from the site seeds, not live RNG state, so a
  // repeated call agrees with the first one.
  options.num_threads = 1;
  EXPECT_EQ(bayes::mc_predict(model, x, options).max_abs_diff(reference), 0.0f);

  // ... and IC off keeps the bit-exact result at any thread count.
  options.use_intermediate_caching = false;
  options.num_threads = 8;
  EXPECT_EQ(bayes::mc_predict(model, x, options).max_abs_diff(reference), 0.0f);
}

TEST(ParallelMcPredict, ReseedChangesTheResult) {
  util::Rng rng(18);
  nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
  model.set_bayesian_last(model.num_sites());
  nn::Tensor x = nn::Tensor::randn({1, 1, 12, 12}, rng);
  bayes::PredictiveOptions options;
  options.num_samples = 4;

  model.reseed_sites(1);
  const nn::Tensor a = bayes::mc_predict(model, x, options);
  model.reseed_sites(2);
  const nn::Tensor b = bayes::mc_predict(model, x, options);
  EXPECT_GT(a.max_abs_diff(b), 0.0f);
}

struct AcceleratorFixture {
  AcceleratorFixture() {
    util::Rng rng(71);
    nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
    util::Rng data_rng(72);
    data::Dataset digits = data::make_synth_digits(96, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);

    model.set_bayesian_last(0);
    train::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 16;
    train::fit(model, *dataset, config);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(model, *dataset));
  }

  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
};

AcceleratorFixture& accel_fixture() {
  static AcceleratorFixture instance;
  return instance;
}

core::AcceleratorConfig small_config(int num_threads, bool use_ic = true) {
  core::AcceleratorConfig config;
  config.nne.pc = 16;
  config.nne.pf = 8;
  config.nne.pv = 4;
  config.sampler_seed = 1234;
  config.use_intermediate_caching = use_ic;
  config.num_threads = num_threads;
  return config;
}

TEST(ParallelAccelerator, BitIdenticalAcrossThreadCounts) {
  auto& fx = accel_fixture();
  const data::Batch batch = fx.dataset->batch(0, 2);

  core::Accelerator reference(*fx.qnet, small_config(1));
  const auto expected = reference.predict(batch.images, 2, 12);
  const std::int64_t expected_cycles = reference.last_functional_compute_cycles();

  for (int threads : {2, 8, 0 /* auto */}) {
    core::Accelerator accelerator(*fx.qnet, small_config(threads));
    const auto prediction = accelerator.predict(batch.images, 2, 12);
    EXPECT_EQ(prediction.probs.max_abs_diff(expected.probs), 0.0f)
        << "threads=" << threads;
    EXPECT_EQ(accelerator.last_functional_compute_cycles(), expected_cycles)
        << "threads=" << threads;
  }

  // Without IC the parallel path recomputes everything per sample and must
  // still land on the same distribution bit-for-bit.
  core::Accelerator without_ic(*fx.qnet, small_config(8, /*use_ic=*/false));
  const auto no_ic = without_ic.predict(batch.images, 2, 12);
  EXPECT_EQ(no_ic.probs.max_abs_diff(expected.probs), 0.0f);
}

TEST(ParallelAccelerator, SamplerSeedSelectsTheStreamFamily) {
  auto& fx = accel_fixture();
  const data::Batch batch = fx.dataset->batch(0, 1);

  core::AcceleratorConfig config_a = small_config(4);
  core::AcceleratorConfig config_b = small_config(4);
  config_b.sampler_seed = 999;
  core::Accelerator a(*fx.qnet, config_a);
  core::Accelerator b(*fx.qnet, config_b);
  EXPECT_GT(a.predict(batch.images, 2, 8)
                .probs.max_abs_diff(b.predict(batch.images, 2, 8).probs),
            0.0f);

  // Distinct (image, sample) lanes get distinct seeds.
  EXPECT_NE(core::Accelerator::sample_stream_seed(1, 0, 0),
            core::Accelerator::sample_stream_seed(1, 0, 1));
  EXPECT_NE(core::Accelerator::sample_stream_seed(1, 0, 0),
            core::Accelerator::sample_stream_seed(1, 1, 0));
}

}  // namespace
}  // namespace bnn
