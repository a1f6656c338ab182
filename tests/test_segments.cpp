// Per-layer plan segments and the residency state machine threaded through
// quant/qplan -> serve/model_registry -> serve/cost_model:
//   - segment byte accounting sums to the whole-plan footprint,
//   - forced partial-residency states (evict_segments) stay bit-identical
//     across replicas x threads x dispatch — the extension of the
//     R x threads x dispatch acceptance matrix,
//   - concurrent resolve() of one evicted tenant builds its segment set
//     EXACTLY once (counter-pinned),
//   - CostModel::streamed_reload_ms charges only the non-overlapped reload
//     remainder and never exceeds the flat whole-plan price,
//   - size-rotated trace segments are each independently valid and
//     replayable, and ticket aging never changes a served bit.
#include "quant/qplan.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/accelerator.h"
#include "serve/cost_model.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/scenario.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace bnn {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + std::to_string(::getpid()) +
         "_" + name;
}

core::AcceleratorConfig accel_config(int num_threads = 1) {
  core::AcceleratorConfig config = bench::serve_accel_config();
  config.num_threads = num_threads;
  return config;
}

// --- qplan: segment accounting ------------------------

// cnn12's segments: each layer's resident weight rows, plus the conv GEMM's
// 4-byte zero-point correction per filter on the two conv layers (conv1
// 8 x 9 terms, conv2 16 x 72 on a 6 x 6 map, so neither carries a K-major
// copy), then fc1 144 -> 32 and fc2 32 -> 10.
TEST(PlanSegments, AccountingSumsToWholePlanFootprint) {
  const bench::ServeFixture& fixture = bench::shared_cnn12_fixture();
  const quant::NetworkExecPlan plan = quant::build_network_exec_plan(fixture.qnet);
  // Every layer carries a 4-byte zero-point correction per filter; the two
  // linear layers also carry the grouped K-major copy the filter tile reads,
  // [ceil(terms / 4)][out_c rounded up to 16][4] bytes.
  const std::uint64_t expected[] = {8 * 9 + 8 * 4, 16 * 72 + 16 * 4,
                                    144 * 32 + 32 * 4 + 36 * 32 * 4,
                                    32 * 10 + 10 * 4 + 8 * 16 * 4};
  ASSERT_EQ(plan.num_layers(), 4);
  ASSERT_EQ(static_cast<int>(fixture.qnet.layers.size()), 4);
  std::uint64_t summed = 0;
  for (int i = 0; i < plan.num_layers(); ++i) {
    const quant::QLayer& layer = fixture.qnet.layers[static_cast<std::size_t>(i)];
    const std::uint64_t kmajor_bytes = plan.layer(i).weights_kmajor.size();
    EXPECT_EQ(kmajor_bytes == 0, layer.geom.op == nn::HwLayer::Op::conv) << "layer " << i;
    EXPECT_EQ(plan.layer(i).weight_bytes, expected[i]) << "layer " << i;
    EXPECT_EQ(plan.layer(i).weight_bytes,
              layer.resident_weight_bytes() + 4u * layer.geom.out_c + kmajor_bytes)
        << "layer " << i;
    summed += plan.layer(i).weight_bytes;
  }
  EXPECT_EQ(summed, plan.weight_bytes());
  EXPECT_EQ(summed,
            fixture.qnet.resident_weight_bytes() + (8 + 16 + 32 + 10) * 4 + (36 * 32 + 8 * 16) * 4);

  // An independently rebuilt segment accounts identically — rebuilds are
  // pure functions of the layer constants.
  const quant::PlanSegment rebuilt = quant::build_plan_segment(fixture.qnet.layers[0]);
  EXPECT_EQ(rebuilt->weight_bytes, plan.layer(0).weight_bytes);
}

// --- registry: segment-granular residency ------------------------------------

TEST(SegmentResidency, ForcedEvictionWalksResidentPartialColdAndRebuilds) {
  serve::ModelRegistry registry;
  registry.publish("m", bench::shared_cnn12_fixture().qnet);
  const auto version = registry.current("m");
  const int num_layers = static_cast<int>(version->segment_bytes.size());
  ASSERT_GT(num_layers, 2);
  EXPECT_TRUE(registry.hot("m"));
  EXPECT_EQ(registry.stats().resident_segments,
            static_cast<std::uint64_t>(num_layers));

  // RESIDENT -> PARTIAL: drop the back half.
  const int keep = num_layers / 2;
  EXPECT_EQ(registry.evict_segments("m", keep), num_layers - keep);
  EXPECT_FALSE(registry.hot("m"));
  EXPECT_EQ(registry.stats().resident_segments, static_cast<std::uint64_t>(keep));
  EXPECT_EQ(registry.stats().segment_evictions,
            static_cast<std::uint64_t>(num_layers - keep));
  EXPECT_EQ(registry.stats().evictions, 1u);  // one fully->partial transition

  // PARTIAL -> COLD.
  EXPECT_EQ(registry.evict_segments("m"), keep);
  EXPECT_EQ(registry.stats().resident_segments, 0u);

  // COLD -> RESIDENT via resolve: the missing list names every layer, the
  // resolve counts as a reload, and the plan is usable.
  const auto bound = registry.resolve("m");
  EXPECT_TRUE(bound.cold_start);
  EXPECT_EQ(bound.missing.size(), static_cast<std::size_t>(num_layers));
  ASSERT_NE(bound.plan, nullptr);
  EXPECT_EQ(bound.plan->weight_bytes(), version->weight_bytes);
  EXPECT_TRUE(registry.hot("m"));
  EXPECT_EQ(registry.stats().reloads, 1u);
  EXPECT_EQ(registry.stats().segment_builds,
            static_cast<std::uint64_t>(2 * num_layers));  // publish + rebuild
}

TEST(SegmentResidency, ConcurrentColdResolveBuildsSegmentSetExactlyOnce) {
  serve::ModelRegistry registry;
  registry.publish("m", bench::shared_cnn12_fixture().qnet);
  const int num_layers = static_cast<int>(registry.current("m")->segment_bytes.size());
  registry.evict_segments("m");
  const std::uint64_t builds_before = registry.stats().segment_builds;

  // A start barrier so every thread's resolve races the same cold state.
  constexpr int kThreads = 6;
  std::promise<void> go;
  std::shared_future<void> start = go.get_future().share();
  std::vector<std::thread> threads;
  std::vector<serve::ModelRegistry::Bound> bounds(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.wait();
      bounds[static_cast<std::size_t>(t)] = registry.resolve("m");
    });
  }
  go.set_value();
  for (std::thread& thread : threads) thread.join();

  // The counter-pinned guarantee: N racing replicas, one build per layer.
  EXPECT_EQ(registry.stats().segment_builds - builds_before,
            static_cast<std::uint64_t>(num_layers));
  EXPECT_TRUE(registry.hot("m"));
  // Whoever resolved first saw the cold state; racers arriving after the
  // rebuild legitimately resolve warm. Everyone gets a servable plan.
  int cold_resolves = 0;
  for (const auto& bound : bounds) {
    if (bound.cold_start) ++cold_resolves;
    ASSERT_NE(bound.plan, nullptr);
  }
  EXPECT_GT(cold_resolves, 0);

  // The rebuilt segments serve bit-identically to a never-evicted net.
  core::Accelerator reference(bench::shared_cnn12_fixture().qnet, accel_config());
  core::Accelerator rebuilt(bounds[0].version->network, bounds[0].plan, accel_config());
  const nn::Tensor image = bench::shared_cnn12_fixture().dataset.images().batch_row(0);
  const int sites = bench::shared_cnn12_fixture().qnet.num_sites;
  EXPECT_EQ(reference.predict(image, sites, 3)
                .probs.max_abs_diff(rebuilt.predict(image, sites, 3).probs),
            0.0f);
}

// --- the partial-residency acceptance matrix ---------------------------------

TEST(SegmentResidency, PartialResidencyMatrixStaysBitIdentical) {
  const bench::MultiTenantFixture multi = bench::make_multi_tenant_fixture(3);
  const int num_requests = 12;
  const int num_samples = 3;

  struct Stimulus {
    nn::Tensor image;
    std::uint64_t stream_id;
    int tenant;
  };
  std::vector<Stimulus> stimuli;
  for (int r = 0; r < num_requests; ++r) {
    serve::ScenarioEvent event;
    event.image_index = r;
    stimuli.push_back({bench::fixture_image(
                           multi.fixtures[static_cast<std::size_t>(r % 3)], event),
                       static_cast<std::uint64_t>(r), r % 3});
  }

  // Per-tenant single-model baselines at R=1 / max_batch=1.
  std::vector<std::vector<serve::Response>> baselines(3);
  for (int m = 0; m < 3; ++m) {
    serve::ServerConfig config;
    config.max_batch = 1;
    serve::Server server(
        bench::single_model_registry(multi.fixtures[static_cast<std::size_t>(m)].qnet),
        accel_config(1), config);
    for (const Stimulus& stimulus : stimuli) {
      if (stimulus.tenant != m) continue;
      serve::Request request;
      request.image = stimulus.image;
      request.options.num_samples = num_samples;
      request.stream_id = stimulus.stream_id;
      baselines[static_cast<std::size_t>(m)].push_back(
          server.infer(std::move(request)));
    }
  }

  enum class Residency { full, partial, cold };
  for (const Residency residency :
       {Residency::full, Residency::partial, Residency::cold}) {
    for (const int replicas : {1, 2}) {
      for (const int threads : {1, 2}) {
        for (const serve::DispatchMode mode :
             {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
          auto registry = std::make_shared<serve::ModelRegistry>();
          for (int m = 0; m < 3; ++m) {
            serve::ModelConfig model_config;
            model_config.workload_id =
                multi.fixtures[static_cast<std::size_t>(m)].workload_id;
            registry->publish(multi.names[static_cast<std::size_t>(m)],
                              multi.fixtures[static_cast<std::size_t>(m)].qnet,
                              model_config);
          }
          serve::ServerConfig server_config;
          server_config.max_batch = 4;
          server_config.num_replicas = replicas;
          server_config.num_threads = threads;
          server_config.dispatch_mode = mode;
          server_config.default_model = multi.names[0];
          serve::Server server(registry, accel_config(threads), server_config);

          // Pin the forced residency state AFTER server construction so
          // the wave itself crosses it.
          if (residency != Residency::full) {
            for (const std::string& name : multi.names) {
              const int num_layers =
                  static_cast<int>(registry->current(name)->segment_bytes.size());
              registry->evict_segments(
                  name, residency == Residency::partial ? num_layers / 2 : 0);
            }
            EXPECT_GT(registry->stats().segment_evictions, 0u);
          }

          std::vector<std::future<serve::Response>> futures;
          for (const Stimulus& stimulus : stimuli) {
            serve::Request request;
            request.image = stimulus.image;
            request.options.num_samples = num_samples;
            request.model = multi.names[static_cast<std::size_t>(stimulus.tenant)];
            request.stream_id = stimulus.stream_id;
            futures.push_back(server.submit(std::move(request)));
          }
          int cold_responses = 0;
          for (int r = 0; r < num_requests; ++r) {
            const serve::Response response = futures[static_cast<std::size_t>(r)].get();
            if (response.cold_start) ++cold_responses;
            const serve::Response& reference =
                baselines[static_cast<std::size_t>(r % 3)][static_cast<std::size_t>(r / 3)];
            EXPECT_EQ(response.probs.max_abs_diff(reference.probs), 0.0f)
                << "request " << r << " residency " << static_cast<int>(residency)
                << " R=" << replicas << " threads=" << threads
                << " dispatch=" << static_cast<int>(mode);
          }
          if (residency != Residency::full) {
            EXPECT_GT(cold_responses, 0);
          }
        }
      }
    }
  }
}

// --- cost model: non-overlapped reload charging ------------------------------

TEST(StreamedReloadCost, ChargesOnlyTheNonOverlappedRemainder) {
  const bench::ServeFixture& fixture = bench::shared_cnn12_fixture();
  serve::ModelRegistry probe;
  const auto version = probe.publish("m", fixture.qnet);
  ASSERT_GT(version->segment_bytes.size(), 1u);

  const core::AcceleratorConfig config = accel_config();
  serve::CostModel cost(core::PerfConfig{config.nne, config.ddr},
                        config.use_intermediate_caching);
  cost.bind_model(0, version->network->describe(), version->weight_bytes, nullptr,
                  version->segment_bytes);
  // Key 1: same model bound WITHOUT segment accounting — the flat fallback.
  cost.bind_model(1, version->network->describe(), version->weight_bytes);

  std::vector<int> all;
  for (int i = 0; i < static_cast<int>(version->segment_bytes.size()); ++i)
    all.push_back(i);

  EXPECT_EQ(cost.streamed_reload_ms(0, {}), 0.0);
  // Layer 0 has no compute window ahead of it: its reload charges in full.
  EXPECT_GT(cost.streamed_reload_ms(0, {0}), 0.0);
  // Monotone in the missing set, and the overlap makes the full-missing
  // streamed price STRICTLY cheaper than the flat whole-plan reload.
  EXPECT_LE(cost.streamed_reload_ms(0, {0}), cost.streamed_reload_ms(0, all));
  EXPECT_LT(cost.streamed_reload_ms(0, all), cost.cold_reload_ms(0));
  // Without per-segment bytes the streamed price degrades to the flat one.
  EXPECT_DOUBLE_EQ(cost.streamed_reload_ms(1, all), cost.cold_reload_ms(1));
  // Out-of-range segment indices are a caller bug, not a silent zero.
  EXPECT_ANY_THROW(cost.streamed_reload_ms(
      0, {static_cast<int>(version->segment_bytes.size())}));
}

// --- trace rotation ----------------------------------------------------------

TEST(TraceRotation, SegmentsAreIndependentlyValidAndReplayable) {
  const bench::ServeFixture& fixture = bench::shared_cnn12_fixture();
  const std::string base = temp_path("rotated.trace");
  const int num_requests = 10;

  serve::ScenarioSpec spec;
  spec.kind = serve::ScenarioKind::uniform;
  spec.num_requests = num_requests;
  spec.num_samples = 3;
  {
    serve::ServerConfig config;
    config.max_batch = 2;
    config.trace_path = base;
    // Small enough that a handful of ~700-byte records overflows it: the
    // recorder must roll several times across the wave.
    config.trace_max_bytes = 2048;
    serve::Server server(bench::single_model_registry(fixture.qnet, {fixture.workload_id}),
                         accel_config(), config);
    (void)serve::play_scenario(
        server, serve::generate_scenario(spec),
        [&fixture](const serve::ScenarioEvent& event) {
          return bench::fixture_image(fixture, event);
        },
        /*as_fast_as_possible=*/true);
  }  // shutdown finalizes the open segment

  // Collect foo.trace.000, .001, ... in rotation order.
  std::vector<std::string> segment_paths;
  for (int i = 0;; ++i) {
    char suffix[16];
    std::snprintf(suffix, sizeof suffix, ".%03d", i);
    const std::string path = base + suffix;
    if (!std::ifstream(path).good()) break;
    segment_paths.push_back(path);
  }
  ASSERT_GE(segment_paths.size(), 2u) << "trace_max_bytes never rolled";

  const auto replayer = bench::single_model_registry(fixture.qnet);
  std::size_t total_records = 0;
  std::uint64_t last_seq = 0;
  for (std::size_t s = 0; s < segment_paths.size(); ++s) {
    const serve::Trace trace = serve::read_trace(segment_paths[s]);  // valid alone
    EXPECT_EQ(trace.meta.workload_id, fixture.workload_id);
    EXPECT_FALSE(trace.records.empty()) << segment_paths[s];
    for (const serve::TraceRecord& record : trace.records) {
      if (total_records > 0) {
        EXPECT_GT(record.seq, last_seq);  // global order
      }
      last_seq = record.seq;
      ++total_records;
    }
    // Each segment replays checksum-clean on its own.
    const serve::ReplayReport report =
        serve::replay_trace(trace, replayer, accel_config());
    EXPECT_TRUE(report.ok()) << segment_paths[s] << ": "
                             << serve::replay_summary(report);
  }
  EXPECT_EQ(total_records, static_cast<std::size_t>(num_requests));
}

// --- ticket aging ------------------------------------------------------------

TEST(TicketAging, NeverChangesAServedBit) {
  const bench::ServeFixture& fixture = bench::shared_mlp49_fixture();
  serve::ScenarioSpec spec;
  spec.kind = serve::ScenarioKind::mixed_shapes;
  spec.num_requests = 12;
  spec.num_samples = 4;
  const std::vector<serve::ScenarioEvent> events = serve::generate_scenario(spec);
  const auto image_for = [&fixture](const serve::ScenarioEvent& event) {
    return bench::fixture_image(fixture, event);
  };

  serve::ServerConfig reference_config;
  reference_config.max_batch = 1;
  serve::Server reference_server(bench::single_model_registry(fixture.qnet),
                                 accel_config(1), reference_config);
  const auto reference =
      serve::play_scenario(reference_server, events, image_for, true);

  // aging_weight 0 is pure LPT; a huge weight makes queue age dominate any
  // cost difference (effectively FIFO-by-ticket). Neither may change a bit
  // — aging reorders WHEN a group is served, never WHAT it computes.
  for (const double aging_weight : {0.0, 1e6}) {
    serve::ServerConfig config;
    config.max_batch = 4;
    config.num_replicas = 2;
    config.num_threads = 2;
    config.dispatch_mode = serve::DispatchMode::cost_aware;
    config.aging_weight = aging_weight;
    serve::Server server(bench::single_model_registry(fixture.qnet), accel_config(2),
                         config);
    const auto responses = serve::play_scenario(server, events, image_for, true);
    ASSERT_EQ(responses.size(), reference.size());
    for (std::size_t r = 0; r < responses.size(); ++r) {
      ASSERT_TRUE(responses[r].has_value());
      ASSERT_TRUE(reference[r].has_value());
      EXPECT_EQ(responses[r]->probs.max_abs_diff(reference[r]->probs), 0.0f)
          << "request " << r << " aging_weight " << aging_weight;
    }
  }
}

}  // namespace
}  // namespace bnn
