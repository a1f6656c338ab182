// Stress and property tests over the serving layer's concurrency surface:
//   - N concurrent submitters x mixed shapes x random {S, L, router} x
//     shutdown-while-queued: every accepted request resolves exactly once
//     with a value that matches a single-threaded replay bit-for-bit,
//   - backpressure properties: the queue never exceeds max_queue_depth,
//     fail-fast rejections carry the distinct QueueFullError, blocked
//     submitters are released by shutdown, and the ServerStats counters
//     stay consistent (requests + rejected == submitted) under replicas.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/accelerator.h"
#include "data/synth.h"
#include "nn/models.h"
#include "train/trainer.h"

namespace bnn {
namespace {

// Tiny quantized CNN on 12x12 synthetic digits (the shared test workload;
// trained once per process).
struct StressCnnFixture {
  StressCnnFixture() {
    util::Rng rng(71);
    nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
    util::Rng data_rng(72);
    dataset = std::make_unique<data::Dataset>(data::make_synth_digits_small(96, data_rng));

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

StressCnnFixture& cnn_fixture() {
  static StressCnnFixture instance;
  return instance;
}

// Linear-first network: two (C,H,W) views of equal numel are both valid
// inputs, which is what makes genuinely mixed-shape waves possible.
struct StressMlpFixture {
  StressMlpFixture() {
    util::Rng rng(91);
    nn::Model model = nn::make_mlp3(rng, 49, 24, 10, nn::MlpActivation::relu,
                                    /*with_mcd_sites=*/true);
    util::Rng data_rng(92);
    data::Dataset digits = data::make_synth_digits(96, data_rng);
    nn::Tensor small({digits.size(), 49, 1, 1});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 7; ++y)
        for (int x = 0; x < 7; ++x)
          small.v4(n, y * 7 + x, 0, 0) = digits.images().v4(n, 0, 4 * y + 2, 4 * x + 2);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);

    train::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 16;
    train::fit(model, *dataset, config);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(model, *dataset));
  }

  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
};

StressMlpFixture& mlp_fixture() {
  static StressMlpFixture instance;
  return instance;
}

core::AcceleratorConfig accel_config(int num_threads) {
  core::AcceleratorConfig config;
  config.nne.pc = 16;
  config.nne.pf = 8;
  config.nne.pv = 4;
  config.sampler_seed = 4321;
  config.num_threads = num_threads;
  return config;
}

// Deterministic per-submitter request generator: random-ish {S, L, router}
// knobs drawn from a seeded Rng, stream id pinned to a globally unique
// ticket so the single-threaded replay reproduces the exact response.
serve::Request random_request(const data::Dataset& dataset, util::Rng& rng,
                              std::uint64_t stream_id, int max_sites) {
  serve::Request request;
  request.image = dataset.images().batch_row(rng.uniform_int(0, dataset.size() - 1));
  request.options.num_samples = rng.uniform_int(1, 6);
  request.options.bayes_layers = rng.uniform_int(0, max_sites);
  if (rng.uniform_int(0, 2) == 0) {
    request.options.use_uncertainty_router = true;
    request.options.screening_samples = rng.uniform_int(1, 3);
    // Below 0 escalates everything, above ln(10) nothing, 0.9 splits.
    const double thresholds[3] = {-1.0, 0.9, 100.0};
    request.options.entropy_threshold_nats =
        thresholds[rng.uniform_int(0, 2)];
  }
  request.stream_id = stream_id;
  return request;
}

// --- concurrent submitters vs single-threaded replay ------------------------

TEST(ServeStress, ConcurrentRandomTrafficMatchesSingleThreadedReplay) {
  auto& fx = cnn_fixture();
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 8;

  struct Issued {
    serve::Request request;  // image/options copy for the replay
    std::future<serve::Response> future;
  };
  std::vector<std::vector<Issued>> issued(kSubmitters);

  {
    serve::ServerConfig config;
    config.max_batch = 4;
    config.num_replicas = 2;
    config.max_queue_depth = 16;
    config.overload_policy = serve::OverloadPolicy::block;  // nothing rejected
    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        util::Rng rng(1000 + static_cast<std::uint64_t>(t));
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t stream_id =
              static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
          serve::Request request = random_request(*fx.dataset, rng, stream_id, 2);
          Issued entry;
          entry.request.image = request.image;  // keep a copy for the replay
          entry.request.options = request.options;
          entry.request.stream_id = request.stream_id;
          entry.future = server.submit(std::move(request));
          issued[static_cast<std::size_t>(t)].push_back(std::move(entry));
        }
      });
    }
    for (std::thread& submitter : submitters) submitter.join();
    // Destructor drains: every accepted request is served before join.
  }

  // Single-threaded replay: one replica, one-request batches, sequential
  // pair loop. Same stream ids -> bit-identical responses required.
  serve::ServerConfig replay_config;
  replay_config.max_batch = 1;
  replay_config.num_threads = 1;
  serve::Server replay(bench::single_model_registry(*fx.qnet), accel_config(1), replay_config);

  int resolved = 0;
  for (auto& thread_issued : issued) {
    for (Issued& entry : thread_issued) {
      ASSERT_EQ(entry.future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const serve::Response live = entry.future.get();  // exactly-once: get() after ready
      ++resolved;
      const serve::Response ref = replay.infer(std::move(entry.request));
      EXPECT_EQ(live.probs.max_abs_diff(ref.probs), 0.0f)
          << "stream " << live.stream_id;
      EXPECT_EQ(live.escalated, ref.escalated) << "stream " << live.stream_id;
      EXPECT_EQ(live.samples_used, ref.samples_used) << "stream " << live.stream_id;
      EXPECT_EQ(live.predicted_class, ref.predicted_class)
          << "stream " << live.stream_id;
    }
  }
  EXPECT_EQ(resolved, kSubmitters * kPerThread);
}

TEST(ServeStress, MixedShapeConcurrentWaveWithShutdownWhileQueued) {
  auto& fx = mlp_fixture();
  constexpr int kSubmitters = 3;

  struct Issued {
    serve::Request request;
    std::future<serve::Response> future;
  };
  std::mutex issued_mutex;
  std::vector<Issued> issued;
  std::atomic<int> shutdown_rejections{0};

  auto server = std::make_unique<serve::Server>(
      bench::single_model_registry(*fx.qnet), accel_config(1), [] {
        serve::ServerConfig config;
        config.max_batch = 8;
        config.num_replicas = 2;
        config.batch_linger = std::chrono::milliseconds(5);  // keep a queue alive
        return config;
      }());

  // Submitters push mixed flat/square views until the server shuts down
  // under them; a submit() racing shutdown must throw, never hang or leak.
  std::atomic<bool> go{true};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      util::Rng rng(500 + static_cast<std::uint64_t>(t));
      // Bounded wave: enough traffic to keep the queue populated when the
      // shutdown lands, small enough that the replay stays cheap.
      for (int i = 0; i < 40 && go.load(); ++i) {
        const std::uint64_t stream_id =
            static_cast<std::uint64_t>(t) * 10000 + static_cast<std::uint64_t>(i);
        serve::Request request = random_request(*fx.dataset, rng, stream_id, 2);
        if (rng.uniform_int(0, 1) == 1) {
          // Same pixels under the square view: a genuinely mixed-shape wave.
          request.image = request.image.reshaped({1, 1, 7, 7});
        }
        Issued entry;
        entry.request.image = request.image;
        entry.request.options = request.options;
        entry.request.stream_id = request.stream_id;
        try {
          entry.future = server->submit(std::move(request));
        } catch (const std::runtime_error&) {
          shutdown_rejections.fetch_add(1);  // shutdown raced the submit
          break;
        }
        std::lock_guard<std::mutex> lock(issued_mutex);
        issued.push_back(std::move(entry));
      }
    });
  }

  // Let traffic build up, then shut down with requests still queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->shutdown();
  go.store(false);
  for (std::thread& submitter : submitters) submitter.join();

  const serve::ServerStats stats = server->stats();
  ASSERT_FALSE(issued.empty());
  EXPECT_EQ(stats.requests, issued.size());  // every accepted request served
  EXPECT_EQ(stats.submitted, issued.size());
  EXPECT_EQ(stats.rejected, 0u);

  // Every accepted future resolves exactly once with a value matching the
  // single-threaded replay (flat and square views of the same pixels are
  // the same request to a linear-first network).
  serve::ServerConfig replay_config;
  replay_config.max_batch = 1;
  replay_config.num_threads = 1;
  serve::Server replay(bench::single_model_registry(*fx.qnet), accel_config(1), replay_config);
  for (Issued& entry : issued) {
    ASSERT_EQ(entry.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const serve::Response live = entry.future.get();
    const serve::Response ref = replay.infer(std::move(entry.request));
    EXPECT_EQ(live.probs.max_abs_diff(ref.probs), 0.0f) << "stream " << live.stream_id;
    EXPECT_EQ(live.escalated, ref.escalated) << "stream " << live.stream_id;
  }

  // Submitting after shutdown keeps throwing.
  serve::Request late;
  late.image = fx.dataset->images().batch_row(0);
  EXPECT_THROW(server->submit(std::move(late)), std::runtime_error);
}

// --- backpressure properties ------------------------------------------------

serve::Request slow_request(const data::Dataset& dataset, int n, int num_samples,
                            std::uint64_t stream_id) {
  serve::Request request;
  request.image = dataset.images().batch_row(n);
  request.options.num_samples = num_samples;
  request.options.bayes_layers = 2;
  request.stream_id = stream_id;
  return request;
}

TEST(ServeBackpressure, FailFastRejectsWithDistinctErrorAndConsistentCounters) {
  auto& fx = cnn_fixture();
  serve::ServerConfig config;
  config.max_batch = 1;
  config.num_threads = 1;
  config.max_queue_depth = 2;
  config.overload_policy = serve::OverloadPolicy::fail_fast;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  // A slow head request keeps the single replica busy while the rest of
  // the wave lands: at most max_queue_depth of them can be queued, the
  // remainder must fail fast with the distinct QueueFullError.
  std::vector<std::future<serve::Response>> futures;
  futures.push_back(server.submit(slow_request(*fx.dataset, 0, 400, 0)));
  for (int i = 1; i <= 6; ++i)
    futures.push_back(server.submit(slow_request(*fx.dataset, i, 400, i)));

  int served = 0;
  int rejected = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const serve::QueueFullError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, 7);
  // The head request was in flight (or about to be) while the wave of six
  // arrived, so at least 6 - max_queue_depth - 1 of them had no room.
  EXPECT_GE(rejected, 3);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 7u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(served));
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.requests + stats.rejected, stats.submitted);
  EXPECT_LE(stats.peak_queue_depth, 2u);

  // A rejection is not a failure state: later traffic still serves.
  EXPECT_EQ(server.infer(slow_request(*fx.dataset, 0, 2, 99)).probs.shape(),
            (std::vector<int>{1, 10}));
}

TEST(ServeBackpressure, BlockPolicyBoundsQueueAndNeverDeadlocks) {
  auto& fx = cnn_fixture();
  serve::ServerConfig config;
  config.max_batch = 2;
  config.num_replicas = 2;
  config.max_queue_depth = 2;
  config.overload_policy = serve::OverloadPolicy::block;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  // More submitters than queue slots: every submission eventually lands
  // (blocking, never rejecting) and the queue bound holds throughout.
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> served{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t stream_id =
            static_cast<std::uint64_t>(t) * 100 + static_cast<std::uint64_t>(i);
        (void)server.infer(slow_request(*fx.dataset, (t + i) % fx.dataset->size(), 3,
                                        stream_id));
        served.fetch_add(1);
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();

  EXPECT_EQ(served.load(), kSubmitters * kPerThread);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kSubmitters * kPerThread));
  EXPECT_EQ(stats.requests, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_LE(stats.peak_queue_depth, 2u);
}

TEST(ServeBackpressure, ShutdownReleasesBlockedSubmitters) {
  auto& fx = cnn_fixture();
  serve::ServerConfig config;
  config.max_batch = 1;
  config.num_threads = 1;
  config.max_queue_depth = 1;
  config.overload_policy = serve::OverloadPolicy::block;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  // Occupy the replica and fill the queue, then point extra submitters at
  // the full queue; shutdown must release every blocked one with the
  // shutdown error (or serve it, if a replica freed space first) — never
  // leave it waiting forever.
  std::vector<std::future<serve::Response>> accepted;
  accepted.push_back(server.submit(slow_request(*fx.dataset, 0, 400, 0)));
  accepted.push_back(server.submit(slow_request(*fx.dataset, 1, 400, 1)));

  std::atomic<int> blocked_outcomes{0};
  std::atomic<int> wrong_error{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      try {
        (void)server.infer(slow_request(*fx.dataset, 2 + t, 400,
                                        static_cast<std::uint64_t>(10 + t)));
      } catch (const serve::ShutdownError&) {
        // shutdown released this submitter with the DISTINCT error — a
        // woken submitter must fail this way, never enqueue post-stop.
      } catch (const std::exception&) {
        wrong_error.fetch_add(1);  // any other failure type is a bug
      }
      blocked_outcomes.fetch_add(1);
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.shutdown();
  for (std::thread& submitter : submitters) submitter.join();
  EXPECT_EQ(blocked_outcomes.load(), 2);
  EXPECT_EQ(wrong_error.load(), 0);

  // Accepted-before-shutdown requests were drained, not dropped.
  for (auto& future : accepted)
    EXPECT_EQ(future.get().probs.shape(), (std::vector<int>{1, 10}));

  // Post-shutdown submissions carry the same distinct error.
  EXPECT_THROW((void)server.submit(slow_request(*fx.dataset, 0, 2, 99)),
               serve::ShutdownError);
}

// Shutdown racing an ADAPTIVE-policy wave: every submission must land in
// exactly one of {served, QueueFullError (shed), ShutdownError at submit},
// the counters must balance, and the decision log must replay exactly —
// even with the shutdown arriving mid-flood.
TEST(ServeBackpressure, AdaptiveShutdownRaceResolvesEveryOutcomeExactlyOnce) {
  auto& fx = cnn_fixture();
  serve::ServerConfig config;
  config.max_batch = 2;
  config.num_threads = 1;
  config.num_replicas = 2;
  config.max_queue_depth = 3;
  config.overload_policy = serve::OverloadPolicy::adaptive;
  config.latency_target_ms = 1e-9;  // sheds as soon as the window is warm
  config.calibrate_cost_model = false;
  config.admission_log_capacity = 256;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  // Warm the window so the shedding path is live during the race.
  (void)server.infer(slow_request(*fx.dataset, 0, 2, 1000));

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 12;
  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> shutdown_errors{0};
  std::atomic<int> wrong_outcome{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t stream_id =
            static_cast<std::uint64_t>(t) * 100 + static_cast<std::uint64_t>(i);
        serve::Request request =
            slow_request(*fx.dataset, (t + i) % fx.dataset->size(), 12, stream_id);
        if (i % 2 == 0) {
          request.options.use_uncertainty_router = true;  // downgrade-eligible
          request.options.screening_samples = 2;
        }
        try {
          (void)server.submit(std::move(request)).get();
          served.fetch_add(1);
        } catch (const serve::QueueFullError&) {
          shed.fetch_add(1);
        } catch (const serve::ShutdownError&) {
          shutdown_errors.fetch_add(1);
          break;  // server is gone; later submits would throw the same
        } catch (const std::exception&) {
          wrong_outcome.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.shutdown();
  for (std::thread& submitter : submitters) submitter.join();

  EXPECT_EQ(wrong_outcome.load(), 0);
  const serve::ServerStats stats = server.stats();
  // Everything accepted was served (+1 for the warm request), everything
  // shed got its QueueFullError, and the books balance.
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(served.load()) + 1);
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(stats.requests + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.submitted,
            (stats.requests - stats.shed_downgraded) + stats.shed_downgraded +
                stats.rejected);
  EXPECT_LE(stats.peak_queue_depth, 3u);

  // Single-threaded replay of the recorded admission inputs reproduces
  // every decision the adaptive policy made during the race.
  for (const serve::AdmissionRecord& record : server.admission_log())
    EXPECT_EQ(serve::adaptive_admission(record.inputs), record.action);
}

}  // namespace
}  // namespace bnn
