// Serving front end + flattened (image, sample) pair loop:
//   - predict_batch with per-image {L, S, stream_id} knobs is bit-identical
//     to one-image-at-a-time prediction for every thread count,
//   - mc_predict's flattened float path has the same batching-independence,
//   - serve::Server responses are pure functions of (image, options,
//     stream id) — independent of batch composition and submission order,
//   - the uncertainty router never escalates below threshold, always above,
//     and an escalated response equals a direct full-S request bit-exactly.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "bayes/predictive.h"
#include "bench/serve_fixture.h"
#include "core/accelerator.h"
#include "data/synth.h"
#include "metrics/metrics.h"
#include "nn/models.h"
#include "runtime/thread_pool.h"
#include "train/trainer.h"

namespace bnn {
namespace {

// Tiny quantized CNN on 12x12 synthetic digits (mirrors the runtime-test
// fixture; trained once per process).
struct ServeFixture {
  ServeFixture() {
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

ServeFixture& fixture() {
  static ServeFixture instance;
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

using ImageRequest = core::Accelerator::ImageRequest;

// --- flattened accelerator pair loop --------------------------------------

TEST(PredictBatch, BatchedEqualsOneImageAtATimeAcrossThreadCounts) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 4);

  // Heterogeneous per-image knobs (different L, S and stream ids), then
  // every image at one S: S = 9 splits into two sample blocks, S = 8 fills
  // one, and with 8 lanes an image's samples split into more blocks.
  std::vector<std::vector<ImageRequest>> cases{{{2, 9, 100}, {1, 3, 17}, {2, 1, 100}, {0, 5, 2}}};
  for (const int samples : {1, 2, 3, 7, 8, 9})
    cases.push_back({{2, samples, 100}, {1, samples, 17}, {2, samples, 5}, {0, samples, 2}});

  for (const std::vector<ImageRequest>& requests : cases) {
    // One-image-at-a-time reference, sequential.
    core::Accelerator reference(*fx.qnet, accel_config(1));
    std::vector<nn::Tensor> rows;
    for (int n = 0; n < 4; ++n) {
      rows.push_back(reference
                         .predict_batch(batch.images.batch_row(n),
                                        {requests[static_cast<std::size_t>(n)]})
                         .probs);
    }

    for (int threads : {1, 2, 8}) {
      core::Accelerator accelerator(*fx.qnet, accel_config(threads));
      const auto prediction = accelerator.predict_batch(batch.images, requests);
      ASSERT_EQ(prediction.probs.shape(), (std::vector<int>{4, 10}));
      ASSERT_EQ(prediction.stats.size(), 4u);
      for (int n = 0; n < 4; ++n) {
        EXPECT_EQ(prediction.probs.batch_row(n).max_abs_diff(
                      rows[static_cast<std::size_t>(n)]),
                  0.0f)
            << "image " << n << ", S=" << requests[static_cast<std::size_t>(n)].num_samples
            << ", threads=" << threads;
      }
    }
  }
}

TEST(PredictBatch, WrapperIsUniformBatchWithBatchIndexStreams) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 3);

  core::Accelerator a(*fx.qnet, accel_config(2));
  const auto via_predict = a.predict(batch.images, 2, 6);
  const std::int64_t cycles = a.last_functional_compute_cycles();

  core::Accelerator b(*fx.qnet, accel_config(2));
  std::vector<ImageRequest> uniform;
  for (int n = 0; n < 3; ++n)
    uniform.push_back({2, 6, static_cast<std::uint64_t>(n)});
  const auto via_batch = b.predict_batch(batch.images, uniform);

  EXPECT_EQ(via_predict.probs.max_abs_diff(via_batch.probs), 0.0f);
  EXPECT_EQ(b.last_functional_compute_cycles(), cycles);
}

TEST(PredictBatch, RejectsMismatchedRequestCount) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 2);
  core::Accelerator accelerator(*fx.qnet, accel_config(1));
  EXPECT_THROW(accelerator.predict_batch(batch.images, {{2, 3, 0}}),
               std::invalid_argument);
}

// --- flattened float pair loop --------------------------------------------

TEST(McPredictFlattened, BatchedEqualsOneImageAtATimeAcrossThreadCounts) {
  util::Rng rng(17);
  nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
  model.set_bayesian_last(2);
  model.reseed_sites(4242);
  nn::Tensor x = nn::Tensor::randn({4, 1, 12, 12}, rng);

  // One-image-at-a-time reference: image n served alone with stream base n.
  std::vector<nn::Tensor> rows;
  for (int n = 0; n < 4; ++n) {
    bayes::PredictiveOptions options;
    options.num_samples = 5;
    options.image_stream_base = static_cast<std::uint64_t>(n);
    rows.push_back(bayes::mc_predict(model, x.batch_row(n), options));
  }

  for (int threads : {1, 2, 8}) {
    bayes::PredictiveOptions options;
    options.num_samples = 5;
    options.num_threads = threads;
    const nn::Tensor probs = bayes::mc_predict(model, x, options);
    for (int n = 0; n < 4; ++n) {
      EXPECT_EQ(probs.batch_row(n).max_abs_diff(rows[static_cast<std::size_t>(n)]), 0.0f)
          << "image " << n << ", threads=" << threads;
    }
  }
}

// --- serving front end ----------------------------------------------------

serve::Request request_for(const data::Batch& batch, int n, serve::RequestOptions options,
                           std::optional<std::uint64_t> stream_id = std::nullopt) {
  serve::Request request;
  request.image = batch.images.batch_row(n);
  request.options = options;
  request.stream_id = stream_id;
  return request;
}

TEST(Server, ResponsesMatchDirectPredictBatchAndIgnoreBatchingOrder) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 4);

  serve::RequestOptions options;
  options.num_samples = 6;
  options.bayes_layers = 2;

  // Direct reference rows, one image at a time.
  core::Accelerator reference(*fx.qnet, accel_config(1));
  std::vector<nn::Tensor> rows;
  for (int n = 0; n < 4; ++n)
    rows.push_back(reference
                       .predict_batch(batch.images.batch_row(n),
                                      {{2, 6, static_cast<std::uint64_t>(10 + n)}})
                       .probs);

  // Coalesced into one batch...
  {
    serve::ServerConfig config;
    config.max_batch = 4;
    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);
    std::vector<std::future<serve::Response>> futures;
    for (int n = 0; n < 4; ++n)
      futures.push_back(server.submit(
          request_for(batch, n, options, static_cast<std::uint64_t>(10 + n))));
    for (int n = 0; n < 4; ++n) {
      const serve::Response response = futures[static_cast<std::size_t>(n)].get();
      EXPECT_EQ(response.probs.max_abs_diff(rows[static_cast<std::size_t>(n)]), 0.0f);
      EXPECT_FALSE(response.escalated);
      EXPECT_EQ(response.samples_used, 6);
      EXPECT_EQ(response.bayes_layers, 2);
      EXPECT_EQ(response.stream_id, static_cast<std::uint64_t>(10 + n));
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_GE(stats.batches, 1u);
  }

  // ...or forced one-per-batch in reverse submission order: same responses.
  {
    serve::ServerConfig config;
    config.max_batch = 1;
    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);
    for (int n = 3; n >= 0; --n) {
      const serve::Response response = server.infer(
          request_for(batch, n, options, static_cast<std::uint64_t>(10 + n)));
      EXPECT_EQ(response.probs.max_abs_diff(rows[static_cast<std::size_t>(n)]), 0.0f)
          << "image " << n;
    }
    EXPECT_EQ(server.stats().batches, 4u);
  }
}

TEST(Server, RouterNeverEscalatesBelowThresholdAlwaysAbove) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 3);

  // Threshold above ln(K): screening entropy can never cross it.
  {
    serve::RequestOptions options;
    options.num_samples = 8;
    options.bayes_layers = 2;
    options.use_uncertainty_router = true;
    options.screening_samples = 2;
    options.entropy_threshold_nats = 100.0;
    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0));
    for (int n = 0; n < 3; ++n) {
      const serve::Response response = server.infer(request_for(batch, n, options));
      EXPECT_FALSE(response.escalated);
      EXPECT_EQ(response.samples_used, 2);  // screening pass answered
    }
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.screened, 3u);
    EXPECT_EQ(stats.escalations, 0u);
  }

  // Threshold below 0: entropy is always positive, everything escalates,
  // and the escalated response is bit-identical to a direct full-S request
  // with the same stream id.
  {
    serve::RequestOptions routed;
    routed.num_samples = 8;
    routed.bayes_layers = 2;
    routed.use_uncertainty_router = true;
    routed.screening_samples = 2;
    routed.entropy_threshold_nats = -1.0;

    serve::RequestOptions direct;
    direct.num_samples = 8;
    direct.bayes_layers = 2;

    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0));
    for (int n = 0; n < 3; ++n) {
      const serve::Response escalated =
          server.infer(request_for(batch, n, routed, 55u + n));
      const serve::Response reference =
          server.infer(request_for(batch, n, direct, 55u + n));
      EXPECT_TRUE(escalated.escalated);
      EXPECT_EQ(escalated.samples_used, 8);
      EXPECT_EQ(escalated.probs.max_abs_diff(reference.probs), 0.0f) << "image " << n;
      EXPECT_EQ(escalated.predicted_class, reference.predicted_class);
    }
    EXPECT_EQ(server.stats().escalations, 3u);
  }
}

TEST(Server, EscalationReuseMergesScreeningWithTheTailSampleWindow) {
  auto& fx = fixture();
  EXPECT_FALSE(serve::ServerConfig{}.reuse_screening_samples);  // opt-in knob
  const data::Batch batch = fx.dataset->batch(0, 3);

  serve::RequestOptions routed;
  routed.num_samples = 8;
  routed.bayes_layers = 2;
  routed.use_uncertainty_router = true;
  routed.screening_samples = 3;
  routed.entropy_threshold_nats = -1.0;  // always escalate

  serve::ServerConfig config;
  config.reuse_screening_samples = true;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);

  core::Accelerator direct(*fx.qnet, accel_config(1));
  for (int n = 0; n < 3; ++n) {
    const std::uint64_t stream = 70u + static_cast<std::uint64_t>(n);
    const serve::Response response = server.infer(request_for(batch, n, routed, stream));
    EXPECT_TRUE(response.escalated);
    EXPECT_EQ(response.samples_used, 8);
    EXPECT_EQ(response.bayes_layers, 2);

    // The escalation pass must run only the 8 - 3 NEW samples, at
    // sample_offset 3 of the same lane family, and merge with the server's
    // exact float weights: p = screen * (3/8) + tail * (5/8).
    const auto screening =
        direct.predict_batch(batch.images.batch_row(n), {{2, 3, stream, 0}});
    const auto tail =
        direct.predict_batch(batch.images.batch_row(n), {{2, 5, stream, 3}});
    const float screen_weight = static_cast<float>(3) / static_cast<float>(8);
    const float tail_weight = static_cast<float>(5) / static_cast<float>(8);
    for (int k = 0; k < 10; ++k) {
      const float expected = screening.probs.data()[k] * screen_weight +
                             tail.probs.data()[k] * tail_weight;
      EXPECT_EQ(response.probs.data()[k], expected) << "image " << n << " class " << k;
    }
    // Reported hardware cost = screening pass + tail pass (not a full S).
    EXPECT_EQ(response.stats.macs, screening.stats[0].macs + tail.stats[0].macs);
    EXPECT_DOUBLE_EQ(response.stats.total_cycles,
                     screening.stats[0].total_cycles + tail.stats[0].total_cycles);

    // Deterministic: repeating the request reproduces the response bit for
    // bit (merged windows are a pure function of image, options, stream).
    const serve::Response again = server.infer(request_for(batch, n, routed, stream));
    EXPECT_EQ(response.probs.max_abs_diff(again.probs), 0.0f);
    EXPECT_EQ(response.predicted_class, again.predicted_class);
  }
  EXPECT_EQ(server.stats().escalations, 6u);
}

TEST(Server, RouterPartitionsExactlyByScreeningEntropy) {
  auto& fx = fixture();
  const int count = 6;
  const data::Batch batch = fx.dataset->batch(0, count);

  // Screening entropies straight from the accelerator.
  core::Accelerator probe(*fx.qnet, accel_config(1));
  std::vector<double> entropy(count);
  for (int n = 0; n < count; ++n) {
    const nn::Tensor probs =
        probe
            .predict_batch(batch.images.batch_row(n),
                           {{2, 3, static_cast<std::uint64_t>(n)}})
            .probs;
    entropy[static_cast<std::size_t>(n)] = metrics::average_predictive_entropy(probs);
  }
  // A threshold between the observed min and max splits the batch.
  const auto [lo, hi] = std::minmax_element(entropy.begin(), entropy.end());
  ASSERT_LT(*lo, *hi) << "fixture images should differ in screening entropy";
  const double threshold = 0.5 * (*lo + *hi);

  serve::RequestOptions options;
  options.num_samples = 10;
  options.bayes_layers = 2;
  options.use_uncertainty_router = true;
  options.screening_samples = 3;
  options.entropy_threshold_nats = threshold;

  serve::ServerConfig config;
  config.max_batch = count;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);
  std::vector<std::future<serve::Response>> futures;
  for (int n = 0; n < count; ++n)
    futures.push_back(
        server.submit(request_for(batch, n, options, static_cast<std::uint64_t>(n))));
  for (int n = 0; n < count; ++n) {
    const serve::Response response = futures[static_cast<std::size_t>(n)].get();
    EXPECT_EQ(response.escalated, entropy[static_cast<std::size_t>(n)] > threshold)
        << "image " << n;
  }
}

// --- replica scale-out ------------------------------------------------------

TEST(Server, ReplicasBitIdenticalAcrossCountsAndThreadCounts) {
  auto& fx = fixture();
  const int count = 6;
  const data::Batch batch = fx.dataset->batch(0, count);

  // Heterogeneous traffic: direct requests and always-escalating routed
  // ones (threshold < 0), so replicas exercise both passes. Stream ids are
  // pinned, making every response a pure function of its own request.
  std::vector<serve::RequestOptions> options(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    serve::RequestOptions& o = options[static_cast<std::size_t>(n)];
    o.num_samples = 3 + n % 3;
    o.bayes_layers = n % 2 == 0 ? 2 : 1;
    if (n % 3 == 0) {
      o.use_uncertainty_router = true;
      o.screening_samples = 2;
      o.entropy_threshold_nats = -1.0;  // always escalate to full S
    }
  }

  // Direct one-image-at-a-time reference (an escalated routed response is
  // bit-identical to a direct full-S request by the router contract).
  core::Accelerator reference(*fx.qnet, accel_config(1));
  std::vector<nn::Tensor> rows;
  for (int n = 0; n < count; ++n) {
    const serve::RequestOptions& o = options[static_cast<std::size_t>(n)];
    rows.push_back(reference
                       .predict_batch(batch.images.batch_row(n),
                                      {{o.bayes_layers, o.num_samples,
                                        static_cast<std::uint64_t>(40 + n)}})
                       .probs);
  }

  for (int replicas : {1, 2, 4}) {
    for (int threads : {1, 2, 8}) {
      serve::ServerConfig config;
      config.max_batch = 3;  // forces several batch groups per wave
      config.num_replicas = replicas;
      config.num_threads = threads;
      serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);
      std::vector<std::future<serve::Response>> futures;
      for (int n = 0; n < count; ++n)
        futures.push_back(server.submit(request_for(
            batch, n, options[static_cast<std::size_t>(n)],
            static_cast<std::uint64_t>(40 + n))));
      for (int n = 0; n < count; ++n) {
        const serve::Response response = futures[static_cast<std::size_t>(n)].get();
        EXPECT_EQ(response.probs.max_abs_diff(rows[static_cast<std::size_t>(n)]), 0.0f)
            << "image " << n << ", replicas=" << replicas << ", threads=" << threads;
        EXPECT_EQ(response.escalated,
                  options[static_cast<std::size_t>(n)].use_uncertainty_router)
            << "image " << n << ", replicas=" << replicas << ", threads=" << threads;
      }
      const serve::ServerStats stats = server.stats();
      EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(count));
      EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(count));
      EXPECT_EQ(stats.rejected, 0u);
    }
  }
}

// Dispatcher determinism suite: mixed S/L traffic (cheap shallow, heavy
// full-depth, and always-escalating routed requests) served under BOTH
// dispatch modes at R in {1,2,4} x threads in {1,2,8} must be bit-identical
// to direct single-threaded evaluation at the same stream ids — cost-aware
// LPT group selection changes which replica serves a group and when, never
// what any request's response is.
TEST(Server, CostAwareDispatchBitIdenticalAcrossModesReplicasAndThreads) {
  auto& fx = fixture();
  const int count = 8;
  const data::Batch batch = fx.dataset->batch(0, count);

  // Mixed S/L: heavy {4S-ish, all sites} every fourth request, routed
  // always-escalate every third, cheap {S=2, L=1} otherwise.
  std::vector<serve::RequestOptions> options(static_cast<std::size_t>(count));
  for (int n = 0; n < count; ++n) {
    serve::RequestOptions& o = options[static_cast<std::size_t>(n)];
    if (n % 4 == 3) {
      o.num_samples = 8;
      o.bayes_layers = -1;  // every site
    } else {
      o.num_samples = 2;
      o.bayes_layers = 1;
    }
    if (n % 3 == 0) {
      o.use_uncertainty_router = true;
      o.screening_samples = 2;
      o.entropy_threshold_nats = -1.0;  // always escalate to full S
    }
  }

  // Direct one-image-at-a-time reference (an escalated routed response is
  // bit-identical to a direct full-S request by the router contract).
  core::Accelerator reference(*fx.qnet, accel_config(1));
  const int num_sites = fx.qnet->num_sites;
  std::vector<nn::Tensor> rows;
  for (int n = 0; n < count; ++n) {
    const serve::RequestOptions& o = options[static_cast<std::size_t>(n)];
    const int resolved = o.bayes_layers < 0 ? num_sites : o.bayes_layers;
    rows.push_back(reference
                       .predict_batch(batch.images.batch_row(n),
                                      {{resolved, o.num_samples,
                                        static_cast<std::uint64_t>(70 + n)}})
                       .probs);
  }

  for (const serve::DispatchMode mode :
       {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
    for (int replicas : {1, 2, 4}) {
      for (int threads : {1, 2, 8}) {
        serve::ServerConfig config;
        config.max_batch = 3;  // several groups per wave
        config.num_replicas = replicas;
        config.num_threads = threads;
        config.dispatch_mode = mode;
        serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);
        EXPECT_EQ(server.cost_model() != nullptr,
                  mode == serve::DispatchMode::cost_aware);
        std::vector<std::future<serve::Response>> futures;
        for (int n = 0; n < count; ++n)
          futures.push_back(server.submit(request_for(
              batch, n, options[static_cast<std::size_t>(n)],
              static_cast<std::uint64_t>(70 + n))));
        for (int n = 0; n < count; ++n) {
          const serve::Response response = futures[static_cast<std::size_t>(n)].get();
          EXPECT_EQ(response.probs.max_abs_diff(rows[static_cast<std::size_t>(n)]), 0.0f)
              << "image " << n << ", dispatch "
              << (mode == serve::DispatchMode::fifo ? "fifo" : "cost") << ", replicas "
              << replicas << ", threads " << threads;
          EXPECT_FALSE(response.shed_downgraded);
        }
        const serve::ServerStats stats = server.stats();
        EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(count));
        EXPECT_EQ(stats.rejected, 0u);
      }
    }
  }
}

TEST(Server, ReplicasShareOneNetworkCopy) {
  auto& fx = fixture();
  serve::ServerConfig config;
  config.num_replicas = 4;
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);
  const std::shared_ptr<const quant::QuantNetwork> network =
      server.registry()->current("")->network;
  const long before = network.use_count();
  // The replica bind that serves shares the registry's network HANDLE: one
  // more shared reference, never a duplicated weight set.
  serve::Request request;
  request.image = fx.dataset->images().batch_row(0);
  request.options.num_samples = 4;
  (void)server.infer(std::move(request));
  EXPECT_EQ(network.use_count(), before + 1);
}

TEST(Server, ValidatesReplicaAndQueueDepthConfig) {
  auto& fx = fixture();
  {
    serve::ServerConfig config;
    config.num_replicas = 0;
    EXPECT_THROW(serve::Server(bench::single_model_registry(*fx.qnet), accel_config(1), config),
                 std::invalid_argument);
  }
  {
    serve::ServerConfig config;
    config.max_queue_depth = -1;
    EXPECT_THROW(serve::Server(bench::single_model_registry(*fx.qnet), accel_config(1), config),
                 std::invalid_argument);
  }
}

TEST(Server, ValidatesRequestsAndRejectsAfterShutdown) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 1);
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1));

  serve::RequestOptions bad_samples;
  bad_samples.num_samples = 0;
  EXPECT_THROW(server.submit(request_for(batch, 0, bad_samples)), std::invalid_argument);

  serve::RequestOptions bad_layers;
  bad_layers.bayes_layers = fx.qnet->num_sites + 1;
  EXPECT_THROW(server.submit(request_for(batch, 0, bad_layers)), std::invalid_argument);

  // A sampler window past INT_MAX would overflow the lane index.
  serve::RequestOptions past_int_max;
  past_int_max.sample_offset = std::numeric_limits<int>::max();
  EXPECT_THROW(server.submit(request_for(batch, 0, past_int_max)), std::invalid_argument);

  serve::Request wrong_shape;
  wrong_shape.image = nn::Tensor({1, 1, 5, 5});
  EXPECT_THROW(server.submit(std::move(wrong_shape)), std::invalid_argument);

  server.shutdown();
  EXPECT_THROW(server.submit(request_for(batch, 0, serve::RequestOptions{})),
               std::runtime_error);
}

// --- mixed-shape traffic and dispatcher survival ---------------------------

// Linear-first network: submit() can only constrain the element count, so
// two different (C,H,W) shapes with equal numel are both accepted — the
// regression scenario for the dispatcher-killing mixed-shape batch.
struct MlpServeFixture {
  MlpServeFixture() {
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

MlpServeFixture& mlp_fixture() {
  static MlpServeFixture instance;
  return instance;
}

TEST(Server, MixedShapeWaveIsSplitPerShapeAndEveryRequestResolves) {
  auto& fx = mlp_fixture();

  serve::ServerConfig config;
  config.max_batch = 8;
  config.batch_linger = std::chrono::milliseconds(20);  // force coalescing
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

  serve::RequestOptions options;
  options.num_samples = 3;
  options.bayes_layers = 1;

  // The same flat pixels under two different (C,H,W) views with equal
  // numel, interleaved so both land in one linger window. With fixed
  // stream ids the responses must be identical pairwise: the linear-first
  // network flattens its input, so only the batch split differs.
  std::vector<std::future<serve::Response>> futures;
  for (int n = 0; n < 4; ++n) {
    serve::Request flat;
    flat.image = fx.dataset->images().batch_row(n);  // (1, 49, 1, 1)
    flat.options = options;
    flat.stream_id = static_cast<std::uint64_t>(n);
    futures.push_back(server.submit(std::move(flat)));

    serve::Request square;
    square.image = fx.dataset->images().batch_row(n).reshaped({1, 1, 7, 7});
    square.options = options;
    square.stream_id = static_cast<std::uint64_t>(n);
    futures.push_back(server.submit(std::move(square)));
  }
  for (int n = 0; n < 4; ++n) {
    const serve::Response flat = futures[static_cast<std::size_t>(2 * n)].get();
    const serve::Response square = futures[static_cast<std::size_t>(2 * n + 1)].get();
    EXPECT_EQ(flat.probs.shape(), (std::vector<int>{1, 10}));
    EXPECT_EQ(flat.probs.max_abs_diff(square.probs), 0.0f) << "image " << n;
  }

  // The dispatcher survived the mixed wave: a later request still serves.
  serve::Request after;
  after.image = fx.dataset->images().batch_row(5);
  after.options = options;
  EXPECT_EQ(server.infer(std::move(after)).probs.shape(), (std::vector<int>{1, 10}));
  EXPECT_EQ(server.stats().requests, 9u);
}

// Mixed-SHAPE mixed-cost traffic (the linear-first MLP accepts flat and
// square views of equal numel): cost-aware group selection ranks real
// multi-shape groups, and both modes still serve every request bit-equal
// to a single-threaded one-at-a-time replay at the same stream id.
TEST(Server, CostAwareDispatchHandlesMixedShapeGroups) {
  auto& fx = mlp_fixture();

  for (const serve::DispatchMode mode :
       {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
    serve::ServerConfig config;
    config.max_batch = 4;
    config.num_replicas = 2;
    config.batch_linger = std::chrono::milliseconds(10);  // force coalescing
    config.dispatch_mode = mode;
    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

    // Flat/square views of the same pixels, with the square half heavy
    // (S=6, L=2) and the flat half cheap (S=2, L=1): the cost-aware
    // dispatcher ranks the heavy shape group first without ever changing a
    // response.
    std::vector<std::future<serve::Response>> futures;
    for (int n = 0; n < 4; ++n) {
      serve::Request flat;
      flat.image = fx.dataset->images().batch_row(n);  // (1, 49, 1, 1)
      flat.options.num_samples = 2;
      flat.options.bayes_layers = 1;
      flat.stream_id = static_cast<std::uint64_t>(n);
      futures.push_back(server.submit(std::move(flat)));

      serve::Request square;
      square.image = fx.dataset->images().batch_row(n).reshaped({1, 1, 7, 7});
      square.options.num_samples = 6;
      square.options.bayes_layers = 2;
      square.stream_id = static_cast<std::uint64_t>(n);
      futures.push_back(server.submit(std::move(square)));
    }
    // Reference: single-threaded one-at-a-time replay of the same requests.
    serve::ServerConfig replay_config;
    replay_config.max_batch = 1;
    replay_config.num_threads = 1;
    serve::Server replay(bench::single_model_registry(*fx.qnet), accel_config(1), replay_config);
    for (int n = 0; n < 4; ++n) {
      const serve::Response flat = futures[static_cast<std::size_t>(2 * n)].get();
      const serve::Response square = futures[static_cast<std::size_t>(2 * n + 1)].get();
      serve::Request ref_flat;
      ref_flat.image = fx.dataset->images().batch_row(n);
      ref_flat.options.num_samples = 2;
      ref_flat.options.bayes_layers = 1;
      ref_flat.stream_id = static_cast<std::uint64_t>(n);
      serve::Request ref_square;
      ref_square.image = fx.dataset->images().batch_row(n).reshaped({1, 1, 7, 7});
      ref_square.options.num_samples = 6;
      ref_square.options.bayes_layers = 2;
      ref_square.stream_id = static_cast<std::uint64_t>(n);
      EXPECT_EQ(flat.probs.max_abs_diff(replay.infer(std::move(ref_flat)).probs), 0.0f)
          << "flat image " << n;
      EXPECT_EQ(square.probs.max_abs_diff(replay.infer(std::move(ref_square)).probs),
                0.0f)
          << "square image " << n;
    }
  }
}

// The queue holds one FIFO per batch group. Whatever groups hold it, the
// pull order must be the one the full-queue scan it replaced picks: FIFO
// takes the group of the oldest request; cost-aware takes the group whose
// first max_batch members cost most plus aging, ties going to the group
// with the older member. A blocker pins the one replica while five shape
// groups queue up (two of them tie exactly), so every later pull sees the
// same queue, and Response::dispatch_seq numbers the pulls.
TEST(Server, GroupedQueuePullsInTheOrderOfAFullQueueScan) {
  auto& fx = mlp_fixture();
  const std::vector<std::vector<int>> views{
      {1, 49, 1, 1}, {1, 1, 7, 7}, {1, 7, 7, 1}, {1, 1, 49, 1}, {1, 7, 1, 7}};
  struct Queued {
    int view, layers, samples;
  };
  // Views 1 and 2 hold the same options in the same counts: equal costs.
  const std::vector<Queued> queued{{0, 1, 2}, {1, 2, 6}, {2, 2, 6}, {3, 1, 1}, {0, 1, 2},
                                   {4, 2, 3}, {1, 2, 6}, {2, 2, 6}, {0, 1, 2}, {3, 1, 1},
                                   {4, 2, 3}, {1, 2, 6}, {2, 2, 6}, {4, 2, 5}};
  const int max_batch = 2;
  const auto request = [&](int view, int layers, int samples, std::uint64_t stream) {
    serve::Request r;
    r.image = fx.dataset->images().batch_row(0).reshaped(views[static_cast<std::size_t>(view)]);
    r.options.bayes_layers = layers;
    r.options.num_samples = samples;
    r.stream_id = stream;
    return r;
  };

  std::vector<std::uint64_t> cost_aware_orders[2];
  for (const serve::DispatchMode mode :
       {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
    for (const double aging : {0.0, 1e6}) {
      serve::ServerConfig config;
      config.max_batch = max_batch;
      config.num_replicas = 1;
      config.num_threads = 1;
      config.dispatch_mode = mode;
      config.aging_weight = aging;
      serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1), config);

      // The blocker has a shape of its own and outranks every group in both
      // modes (oldest, and costliest by far), so it is the first pull
      // whenever the replica takes it.
      serve::Request blocker_request = request(0, 2, 60000, 999);
      blocker_request.image = blocker_request.image.reshaped({1, 1, 1, 49});
      auto blocker = server.submit(std::move(blocker_request));
      std::vector<std::future<serve::Response>> futures;
      for (std::size_t i = 0; i < queued.size(); ++i)
        futures.push_back(server.submit(
            request(queued[i].view, queued[i].layers, queued[i].samples, i)));
      const serve::Response blocked = blocker.get();
      std::vector<serve::Response> responses;
      for (auto& future : futures) responses.push_back(future.get());

      // The reference: the full-queue scan over requests in ticket order
      // (the blocker took ticket 0, so the queue's next ticket is n + 1).
      const std::uint64_t next_ticket = queued.size() + 1;
      std::vector<std::size_t> queue(queued.size());
      for (std::size_t i = 0; i < queued.size(); ++i) queue[i] = i;
      std::vector<std::uint64_t> expected(queued.size(), 0);
      std::uint64_t seq = blocked.dispatch_seq;
      while (!queue.empty()) {
        int view = queued[queue.front()].view;
        if (mode == serve::DispatchMode::cost_aware) {
          const serve::CostModel& cost = *server.cost_model();
          std::vector<int> group_view;
          std::vector<double> group_cost;
          std::vector<int> group_count;
          std::vector<std::uint64_t> group_oldest;
          for (const std::size_t i : queue) {
            std::size_t g = 0;
            while (g < group_view.size() && group_view[g] != queued[i].view) ++g;
            if (g == group_view.size()) {
              group_view.push_back(queued[i].view);
              group_cost.push_back(0.0);
              group_count.push_back(0);
              group_oldest.push_back(i + 1);
            }
            if (group_count[g] < max_batch) {
              serve::RequestOptions options;
              options.bayes_layers = queued[i].layers;
              options.num_samples = queued[i].samples;
              group_cost[g] += cost.wall_ms(cost.first_pass_ms(blocked.model_key, options));
              ++group_count[g];
            }
          }
          const auto score = [&](std::size_t g) {
            return group_cost[g] + aging * static_cast<double>(next_ticket - group_oldest[g]);
          };
          std::size_t best = 0;
          for (std::size_t g = 1; g < group_view.size(); ++g)
            if (score(g) > score(best)) best = g;
          view = group_view[best];
        }
        int taken = 0;
        ++seq;
        for (auto it = queue.begin(); it != queue.end() && taken < max_batch;) {
          if (queued[*it].view == view) {
            expected[*it] = seq;
            it = queue.erase(it);
            ++taken;
          } else {
            ++it;
          }
        }
      }
      std::vector<std::uint64_t> order;
      for (std::size_t i = 0; i < queued.size(); ++i) {
        EXPECT_EQ(responses[i].dispatch_seq, expected[i])
            << "request " << i << (mode == serve::DispatchMode::fifo ? " fifo" : " cost-aware")
            << " aging " << aging;
        order.push_back(responses[i].dispatch_seq);
      }
      if (mode == serve::DispatchMode::cost_aware) cost_aware_orders[aging > 0.0] = order;
    }
  }
  // Aging changes which group leaves first, so both scores were exercised.
  EXPECT_NE(cost_aware_orders[0], cost_aware_orders[1]);
}

TEST(Server, KeepsServingAfterARejectedSubmission) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 2);
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1));

  serve::Request wrong_shape;
  wrong_shape.image = nn::Tensor({1, 1, 5, 5});
  EXPECT_THROW(server.submit(std::move(wrong_shape)), std::invalid_argument);

  // The bad request failed on the caller thread; the dispatcher never saw
  // it and keeps serving.
  for (int n = 0; n < 2; ++n) {
    const serve::Response response =
        server.infer(request_for(batch, n, serve::RequestOptions{}));
    EXPECT_EQ(response.probs.shape(), (std::vector<int>{1, 10}));
  }
  EXPECT_EQ(server.stats().requests, 2u);
}

// --- latency percentiles ---------------------------------------------------

TEST(LatencyPercentile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(serve::latency_percentile({5.0}, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({5.0}, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({5.0}, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({1.0, 2.0, 3.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75);
  // Unsorted input is sorted internally.
  EXPECT_DOUBLE_EQ(serve::latency_percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(serve::latency_percentile({10.0, 0.0}, 95.0), 9.5);
  EXPECT_THROW(serve::latency_percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(serve::latency_percentile({1.0}, 101.0), std::invalid_argument);
  EXPECT_THROW(serve::latency_percentile({1.0}, -1.0), std::invalid_argument);
}

TEST(Server, StatsReportOrderedLatencyPercentiles) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 3);
  serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(1));

  EXPECT_EQ(server.stats().latency_p50_ms, 0.0);  // no traffic yet

  for (int n = 0; n < 3; ++n)
    server.infer(request_for(batch, n, serve::RequestOptions{}));

  const serve::ServerStats stats = server.stats();
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
}

TEST(Server, DestructorDrainsAcceptedRequests) {
  auto& fx = fixture();
  const data::Batch batch = fx.dataset->batch(0, 3);
  std::vector<std::future<serve::Response>> futures;
  {
    serve::ServerConfig config;
    config.max_batch = 2;
    serve::Server server(bench::single_model_registry(*fx.qnet), accel_config(0), config);
    for (int n = 0; n < 3; ++n)
      futures.push_back(server.submit(request_for(batch, n, serve::RequestOptions{})));
  }  // destructor joins after serving everything accepted
  for (auto& future : futures) {
    const serve::Response response = future.get();
    EXPECT_EQ(response.probs.shape(), (std::vector<int>{1, 10}));
  }
}

}  // namespace
}  // namespace bnn
