// Multi-tenant model registry (serve/model_registry.h) and the registry-
// backed serve::Server:
//   - publish/resolve versioning, hot-swap stats, and residency eviction at
//     the registry level,
//   - a 3-tenant mixed workload (one tenant residency-forced cold, plus a
//     mid-run hot-swap of an uninvolved tenant) is bit-identical to each
//     tenant's own single-model baseline across R x threads x dispatch,
//   - a hot-swap under concurrent load drains in-flight requests on the OLD
//     weights bit-identically while every later submit sees the new version
//     exactly once,
//   - eviction/reload thrash never changes a bit and is counted,
//   - per-tenant queue quotas reject with QuotaExceededError and count in
//     ServerStats::quota_rejected,
//   - a cold tenant's DDR-reload-inflated cost reorders cost-aware dispatch
//     ahead of a cheaper hot group (exactly, by Response::dispatch_seq).
#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/accelerator.h"
#include "data/synth.h"
#include "nn/models.h"
#include "quant/qplan.h"
#include "serve/cost_model.h"
#include "serve/server.h"
#include "train/trainer.h"

namespace bnn {
namespace {

quant::QuantNetwork train_variant(std::uint64_t model_seed, std::uint64_t data_seed) {
  util::Rng rng(model_seed);
  nn::Model model = nn::make_tiny_cnn(rng, 10, 1, 12);
  util::Rng data_rng(data_seed);
  data::Dataset dataset = data::make_synth_digits_small(64, data_rng);
  train::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  train::fit(model, dataset, config);
  return quant::quantize_model(model, dataset);
}

data::Dataset make_stimulus() {
  util::Rng data_rng(52);
  return data::make_synth_digits_small(64, data_rng);
}

// Three weight sets on the SAME 12x12 CNN topology: distinct tenants (or
// distinct versions of one tenant for the hot-swap tests).
struct RegistryFixture {
  RegistryFixture()
      : net_a(train_variant(51, 52)),
        net_b(train_variant(61, 62)),
        net_c(train_variant(81, 82)),
        dataset(make_stimulus()) {}

  quant::QuantNetwork net_a, net_b, net_c;
  data::Dataset dataset;  // stimulus images
};

RegistryFixture& fixture() {
  static RegistryFixture instance;
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

serve::Request make_request(int image_index, std::uint64_t stream_id,
                            int num_samples = 3, const std::string& model = "") {
  auto& fx = fixture();
  serve::Request request;
  request.image = fx.dataset.images().batch_row(image_index % fx.dataset.size());
  request.options.num_samples = num_samples;
  request.model = model;
  request.stream_id = stream_id;
  return request;
}

// Single-model reference responses at R=1/max_batch=1 — the gold each
// tenant of a multi-tenant server must reproduce bit-exactly.
std::vector<serve::Response> single_model_baseline(
    const quant::QuantNetwork& net, const std::vector<serve::Request>& requests) {
  serve::ServerConfig config;
  config.max_batch = 1;
  serve::Server server(bench::single_model_registry(net), accel_config(1), config);
  std::vector<serve::Response> responses;
  for (const serve::Request& request : requests) {
    serve::Request copy = request;
    copy.model.clear();  // baseline server knows only its default tenant
    responses.push_back(server.infer(std::move(copy)));
  }
  return responses;
}

// Published weight footprints of the fixture nets, via a throwaway registry.
std::uint64_t published_bytes(const quant::QuantNetwork& net) {
  serve::ModelRegistry probe;
  return probe.publish("probe", net)->weight_bytes;
}

// --- registry unit behaviour -------------------------------------------------

// One set of weights gets one modelled cost and one residency, whichever
// entry point takes it. cnn12's layer 1 gets weights from {-3, 0, 3}, rows
// a ternary datapath could take; at PV1 the pass is compute-bound, so a
// cycle charge that depended on the entry point would show in estimate()
// (at PV4 the memory bound hides it).
TEST(ModelRegistry, TernaryWeightsCostAndResideTheSameAtEveryEntryPoint) {
  quant::QuantNetwork net = bench::shared_cnn12_fixture().qnet;
  for (std::int8_t& w : net.layers[1].weights)
    w = static_cast<std::int8_t>(w > 0 ? 3 : w < 0 ? -3 : 0);
  core::AcceleratorConfig config = bench::serve_accel_config();
  config.nne.pv = 1;
  const auto expect_same_estimates = [&net](const core::Accelerator& a,
                                            const core::Accelerator& b, const char* label) {
    for (const int samples : {1, 8}) {
      const core::RunStats x = a.estimate(net.num_sites, samples);
      const core::RunStats y = b.estimate(net.num_sites, samples);
      EXPECT_EQ(x.total_cycles, y.total_cycles) << label << ", S = " << samples;
      EXPECT_EQ(x.latency_ms, y.latency_ms) << label << ", S = " << samples;
      EXPECT_EQ(x.ddr_bytes, y.ddr_bytes) << label << ", S = " << samples;
      EXPECT_EQ(x.macs, y.macs) << label << ", S = " << samples;
    }
  };

  const core::Accelerator by_value(net, config);
  const core::Accelerator shared(std::make_shared<const quant::QuantNetwork>(net), config);
  expect_same_estimates(by_value, shared, "Accelerator by value vs shared_ptr");

  serve::ModelRegistry registry;
  const auto value_version = registry.publish("by_value", net);
  const auto shared_version =
      registry.publish("shared", std::make_shared<const quant::QuantNetwork>(net));
  EXPECT_EQ(value_version->weight_bytes, shared_version->weight_bytes);
  EXPECT_EQ(value_version->weight_bytes, quant::build_network_exec_plan(net).weight_bytes());
  EXPECT_EQ(value_version->fingerprint, shared_version->fingerprint);
  const serve::ModelRegistry::Bound value_bound = registry.resolve("by_value");
  const serve::ModelRegistry::Bound shared_bound = registry.resolve("shared");
  const core::Accelerator from_value(value_bound.version->network, value_bound.plan, config);
  const core::Accelerator from_shared(shared_bound.version->network, shared_bound.plan, config);
  expect_same_estimates(from_value, from_shared, "publish by value vs shared_ptr");
  expect_same_estimates(from_value, by_value, "registry vs direct Accelerator");
}

TEST(ModelRegistry, PublishResolveVersioningAndSwapStats) {
  auto& fx = fixture();
  serve::ModelRegistry registry;
  EXPECT_FALSE(registry.has("a"));
  EXPECT_THROW(registry.resolve("a"), std::invalid_argument);

  const auto v1 = registry.publish("a", fx.net_a);
  EXPECT_EQ(v1->name, "a");
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->key, 0u);
  EXPECT_NE(v1->fingerprint, 0u);
  EXPECT_GT(v1->weight_bytes, 0u);
  EXPECT_TRUE(registry.has("a"));
  EXPECT_TRUE(registry.hot("a"));

  const auto bound = registry.resolve("a");
  EXPECT_EQ(bound.version.get(), v1.get());
  EXPECT_NE(bound.plan, nullptr);
  EXPECT_FALSE(bound.cold_start);

  // Hot-swap: same key, version + 1, different fingerprint, one swap
  // counted; the old snapshot stays alive through our shared_ptr.
  const auto v2 = registry.publish("a", fx.net_b);
  EXPECT_EQ(v2->key, v1->key);
  EXPECT_EQ(v2->version, 2u);
  EXPECT_NE(v2->fingerprint, v1->fingerprint);
  EXPECT_EQ(registry.resolve("a").version->version, 2u);
  EXPECT_EQ(v1->version, 1u);

  const auto other = registry.publish("b", fx.net_c);
  EXPECT_EQ(other->key, 1u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"a", "b"}));

  const serve::RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.models, 2u);
  EXPECT_EQ(stats.hot_models, 2u);
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ModelRegistry, VersionsCarryTheirPublishTimeConfig) {
  auto& fx = fixture();
  serve::ModelRegistry registry;
  serve::ModelConfig strict;
  strict.workload_id = 7;
  strict.max_queued = 1;
  const auto v1 = registry.publish("a", fx.net_a, strict);
  const auto v2 = registry.publish("a", fx.net_b);  // hot-swap, default config
  // Each snapshot keeps its own knobs: a request that resolved v1 is
  // admitted under v1's quota even after the swap.
  EXPECT_EQ(v1->config.max_queued, 1);
  EXPECT_EQ(v1->config.workload_id, 7u);
  EXPECT_EQ(v2->config.max_queued, 0);
  EXPECT_EQ(registry.resolve("a").version->config.max_queued, 0);
}

TEST(ModelRegistry, RejectsADropoutRateTheSamplerCannotRealize) {
  auto& fx = fixture();
  serve::ModelRegistry registry;
  registry.publish("ok", fx.net_a);
  quant::QuantNetwork bad = fx.net_b;
  bad.dropout_p = 0.3;  // not 2^-k: no AND-tree of LFSRs draws it
  // Rejected at publish, before the table changes: neither a new tenant
  // nor a hot-swap of an existing one.
  EXPECT_THROW(registry.publish("bad", bad), std::invalid_argument);
  EXPECT_FALSE(registry.has("bad"));
  EXPECT_THROW(registry.publish("ok", bad), std::invalid_argument);
  EXPECT_EQ(registry.current("ok")->version, 1u);
  EXPECT_EQ(registry.stats().models, 1u);
  EXPECT_EQ(registry.stats().swaps, 0u);
}

TEST(ModelRegistry, ResidencyBudgetEvictsLruAndReloadsCold) {
  auto& fx = fixture();
  const std::uint64_t bytes_a = published_bytes(fx.net_a);
  const std::uint64_t bytes_b = published_bytes(fx.net_b);

  // Budget fits only the larger tenant: publishing the second evicts the
  // first, and every resolve of a cold tenant reloads it (evicting the
  // other right back — deliberate thrash).
  serve::RegistryConfig config;
  config.residency_budget_bytes = std::max(bytes_a, bytes_b);
  serve::ModelRegistry registry(config);
  registry.publish("a", fx.net_a);
  registry.publish("b", fx.net_b);
  EXPECT_FALSE(registry.hot("a"));
  EXPECT_TRUE(registry.hot("b"));

  const auto cold = registry.resolve("a");
  EXPECT_TRUE(cold.cold_start);
  EXPECT_NE(cold.plan, nullptr);
  EXPECT_TRUE(registry.hot("a"));
  EXPECT_FALSE(registry.hot("b"));

  const auto warm = registry.resolve("a");
  EXPECT_FALSE(warm.cold_start);

  const serve::RegistryStats stats = registry.stats();
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.hot_models, 1u);
  EXPECT_LE(stats.resident_bytes, config.residency_budget_bytes);
}

// --- the multi-tenant acceptance matrix --------------------------------------

TEST(RegistryServer, MixedTenantsMatchSingleModelBaselinesAcrossTheMatrix) {
  auto& fx = fixture();
  const int num_requests = 18;
  const std::vector<const quant::QuantNetwork*> nets = {&fx.net_a, &fx.net_b,
                                                        &fx.net_c};
  const std::vector<std::string> names = {"a", "b", "c"};

  // Round-robin mixed workload, stream id pinned to the request index.
  std::vector<serve::Request> requests;
  for (int r = 0; r < num_requests; ++r)
    requests.push_back(make_request(r, static_cast<std::uint64_t>(r), 3,
                                    names[static_cast<std::size_t>(r % 3)]));

  // Per-tenant single-model baselines.
  std::vector<std::vector<serve::Response>> baselines;
  for (int m = 0; m < 3; ++m) {
    std::vector<serve::Request> mine;
    for (int r = m; r < num_requests; r += 3)
      mine.push_back(requests[static_cast<std::size_t>(r)]);
    baselines.push_back(
        single_model_baseline(*nets[static_cast<std::size_t>(m)], mine));
  }

  const std::uint64_t total_bytes = published_bytes(fx.net_a) +
                                    published_bytes(fx.net_b) +
                                    published_bytes(fx.net_c);
  for (const int replicas : {1, 2, 4}) {
    for (const int threads : {1, 2, 8}) {
      for (const serve::DispatchMode mode :
           {serve::DispatchMode::fifo, serve::DispatchMode::cost_aware}) {
        // One byte short of "all three hot": the LRU tenant is forced
        // cold, so the cell also crosses eviction/reload states. A spare
        // tenant exists solely to be hot-swapped mid-run.
        serve::RegistryConfig registry_config;
        registry_config.residency_budget_bytes = total_bytes - 1;
        auto registry = std::make_shared<serve::ModelRegistry>(registry_config);
        for (int m = 0; m < 3; ++m)
          registry->publish(names[static_cast<std::size_t>(m)],
                            *nets[static_cast<std::size_t>(m)]);
        registry->publish("spare", fx.net_c);

        serve::ServerConfig server_config;
        server_config.max_batch = 4;
        server_config.num_replicas = replicas;
        server_config.num_threads = threads;
        server_config.dispatch_mode = mode;
        server_config.default_model = names[0];
        serve::Server server(registry, accel_config(threads), server_config);

        std::vector<std::future<serve::Response>> futures;
        for (int r = 0; r < num_requests; ++r) {
          if (r == num_requests / 2)
            registry->publish("spare", fx.net_a);  // uninvolved mid-run swap
          futures.push_back(server.submit(requests[static_cast<std::size_t>(r)]));
        }
        for (int r = 0; r < num_requests; ++r) {
          const serve::Response response =
              futures[static_cast<std::size_t>(r)].get();
          const serve::Response& reference =
              baselines[static_cast<std::size_t>(r % 3)]
                       [static_cast<std::size_t>(r / 3)];
          EXPECT_EQ(response.probs.max_abs_diff(reference.probs), 0.0f)
              << "request " << r << " R=" << replicas << " threads=" << threads
              << " dispatch=" << static_cast<int>(mode);
          EXPECT_EQ(response.model_key, static_cast<serve::ModelKey>(r % 3));
          EXPECT_EQ(response.model_version, 1u);
        }
        EXPECT_GE(registry->stats().evictions, 1u);
        EXPECT_EQ(registry->stats().swaps, 1u);
      }
    }
  }
}

// --- hot-swap under concurrent load ------------------------------------------

TEST(RegistryServer, HotSwapDrainsInFlightOnOldWeightsAndRoutesNewExactlyOnce) {
  auto& fx = fixture();
  const int half = 4;
  std::vector<serve::Request> requests;
  for (int r = 0; r < 2 * half; ++r)
    requests.push_back(make_request(r, static_cast<std::uint64_t>(r), 8, "m"));

  const std::vector<serve::Response> baseline_v1 =
      single_model_baseline(fx.net_a, requests);
  const std::vector<serve::Response> baseline_v2 =
      single_model_baseline(fx.net_b, requests);

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish("m", fx.net_a);
  serve::ServerConfig config;
  config.max_batch = 1;
  config.default_model = "m";
  serve::Server server(registry, accel_config(1), config);

  // Queue the first half, swap while they are in flight, queue the rest.
  std::vector<std::future<serve::Response>> futures;
  for (int r = 0; r < half; ++r)
    futures.push_back(server.submit(requests[static_cast<std::size_t>(r)]));
  registry->publish("m", fx.net_b);
  for (int r = half; r < 2 * half; ++r)
    futures.push_back(server.submit(requests[static_cast<std::size_t>(r)]));

  for (int r = 0; r < 2 * half; ++r) {
    const serve::Response response = futures[static_cast<std::size_t>(r)].get();
    const bool pre_swap = r < half;
    EXPECT_EQ(response.model_version, pre_swap ? 1u : 2u) << "request " << r;
    const serve::Response& reference =
        pre_swap ? baseline_v1[static_cast<std::size_t>(r)]
                 : baseline_v2[static_cast<std::size_t>(r)];
    EXPECT_EQ(response.probs.max_abs_diff(reference.probs), 0.0f)
        << "request " << r << (pre_swap ? " (old weights)" : " (new weights)");
  }
  EXPECT_EQ(registry->stats().swaps, 1u);
}

// --- eviction/reload bit-identity --------------------------------------------

TEST(RegistryServer, EvictionThrashStaysBitIdenticalAndCountsReloads) {
  auto& fx = fixture();
  const int num_requests = 12;
  std::vector<serve::Request> requests;
  for (int r = 0; r < num_requests; ++r)
    requests.push_back(make_request(r, static_cast<std::uint64_t>(r), 3,
                                    r % 2 == 0 ? "a" : "b"));

  std::vector<serve::Request> requests_a, requests_b;
  for (int r = 0; r < num_requests; ++r)
    (r % 2 == 0 ? requests_a : requests_b)
        .push_back(requests[static_cast<std::size_t>(r)]);
  const auto baseline_a = single_model_baseline(fx.net_a, requests_a);
  const auto baseline_b = single_model_baseline(fx.net_b, requests_b);

  // Budget fits one tenant: alternating a/b traffic reloads on every flip.
  serve::RegistryConfig registry_config;
  registry_config.residency_budget_bytes =
      std::max(published_bytes(fx.net_a), published_bytes(fx.net_b));
  auto registry = std::make_shared<serve::ModelRegistry>(registry_config);
  registry->publish("a", fx.net_a);
  registry->publish("b", fx.net_b);

  serve::ServerConfig config;
  config.max_batch = 1;
  config.default_model = "a";
  serve::Server server(registry, accel_config(1), config);

  bool saw_cold_response = false;
  for (int r = 0; r < num_requests; ++r) {
    const serve::Response response =
        server.infer(requests[static_cast<std::size_t>(r)]);
    saw_cold_response = saw_cold_response || response.cold_start;
    const serve::Response& reference =
        r % 2 == 0 ? baseline_a[static_cast<std::size_t>(r / 2)]
                   : baseline_b[static_cast<std::size_t>(r / 2)];
    EXPECT_EQ(response.probs.max_abs_diff(reference.probs), 0.0f)
        << "request " << r << " (tenant " << (r % 2 == 0 ? "a" : "b") << ")";
  }
  EXPECT_TRUE(saw_cold_response);
  EXPECT_GT(server.stats().cold_starts, 0u);
  const serve::RegistryStats stats = registry->stats();
  EXPECT_GT(stats.reloads, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// --- per-tenant quotas -------------------------------------------------------

TEST(RegistryServer, TenantQuotaRejectsBeyondMaxQueued) {
  auto& fx = fixture();
  auto registry = std::make_shared<serve::ModelRegistry>();
  serve::ModelConfig model_config;
  model_config.max_queued = 1;
  registry->publish("a", fx.net_a, model_config);

  serve::ServerConfig config;
  config.max_batch = 1;
  config.default_model = "a";
  serve::Server server(registry, accel_config(1), config);

  // One heavy request occupies the single replica; the light flood behind
  // it can hold at most max_queued=1 slot, so the rest must be rejected
  // with QuotaExceededError (never blocked, whatever the overload policy).
  std::vector<std::future<serve::Response>> futures;
  futures.push_back(server.submit(make_request(0, 0, 192)));
  for (int r = 1; r <= 6; ++r)
    futures.push_back(server.submit(make_request(r, static_cast<std::uint64_t>(r))));

  std::uint64_t served = 0, quota_rejected = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const serve::QuotaExceededError&) {
      ++quota_rejected;
    }
  }
  EXPECT_GE(quota_rejected, 1u);
  EXPECT_EQ(served + quota_rejected, 7u);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.quota_rejected, quota_rejected);
  EXPECT_EQ(stats.rejected, quota_rejected);
  bool found_row = false;
  for (const serve::ModelServeStats& row : server.model_stats()) {
    if (row.name != "a") continue;
    found_row = true;
    EXPECT_EQ(row.quota_rejected, quota_rejected);
    EXPECT_EQ(row.served, served);
  }
  EXPECT_TRUE(found_row);
}

// --- cold-cost-aware dispatch ------------------------------------------------

TEST(RegistryServer, ColdReloadCostInflatesCostAwareDispatchOrdering) {
  auto& fx = fixture();
  // A crawling DDR makes the modelled reload of a few-KB tenant seconds
  // long — a decisive margin between otherwise equal-cost groups. (It also
  // slows every modelled compute pass; the reload is a tiebreaker, not a
  // dominator.)
  core::AcceleratorConfig config = accel_config(1);
  config.ddr.effective_gbytes_per_s = 1e-6;

  const std::uint64_t bytes_hot = published_bytes(fx.net_a);
  const std::uint64_t bytes_cold = published_bytes(fx.net_b);

  // The quantitative premise first: the two tenants share one topology, so
  // an equal-S pass has EXACTLY equal modelled cost; only the cold reload
  // separates the groups.
  serve::CostModel cost(core::PerfConfig{config.nne, config.ddr},
                        config.use_intermediate_caching);
  serve::ModelRegistry sizing;
  cost.bind_model(0, sizing.publish("hot", fx.net_a)->network->describe(), bytes_hot);
  cost.bind_model(1, sizing.publish("cold", fx.net_b)->network->describe(),
                  bytes_cold);
  EXPECT_GT(cost.cold_reload_ms(1), 0.0);
  serve::RequestOptions contender;
  contender.num_samples = 64;
  EXPECT_DOUBLE_EQ(cost.first_pass_ms(0, contender),
                   cost.first_pass_ms(1, contender));
  // The blocker outranks even the reload-inflated cold group, so it leaves
  // the queue first whether or not the replica took it before the
  // contenders arrived.
  serve::RequestOptions blocking;
  blocking.num_samples = 128;
  EXPECT_GT(cost.first_pass_ms(0, blocking),
            cost.first_pass_ms(1, contender) + cost.cold_reload_ms(1));

  // The serving-order consequence: with the replica pinned by a blocker,
  // a later-submitted equal-S request on the COLD tenant must jump the
  // earlier hot-tenant request under cost-aware LPT, because its group
  // cost carries the DDR reload.
  serve::RegistryConfig registry_config;
  registry_config.residency_budget_bytes = std::max(bytes_hot, bytes_cold);
  auto registry = std::make_shared<serve::ModelRegistry>(registry_config);
  registry->publish("hot", fx.net_a);
  registry->publish("cold", fx.net_b);  // evicts "hot"... so warm it back:
  (void)registry->resolve("hot");       // now "cold" is the evicted one
  ASSERT_TRUE(registry->hot("hot"));
  ASSERT_FALSE(registry->hot("cold"));

  serve::ServerConfig server_config;
  server_config.max_batch = 1;
  server_config.dispatch_mode = serve::DispatchMode::cost_aware;
  server_config.default_model = "hot";
  serve::Server server(registry, config, server_config);

  auto blocker = server.submit(make_request(0, 0, blocking.num_samples, "hot"));
  auto hot_contender = server.submit(make_request(1, 1, contender.num_samples, "hot"));
  auto cold_contender = server.submit(make_request(2, 2, contender.num_samples, "cold"));

  const serve::Response blocked = blocker.get();
  const serve::Response cold_response = cold_contender.get();
  const serve::Response hot_response = hot_contender.get();
  EXPECT_TRUE(cold_response.cold_start);
  // The replica pulled the blocker first; the reload-inflated cold group
  // must then leave the queue before the hot contender submitted ahead of
  // it (equal S). dispatch_seq numbers the pulls, so the order is exact.
  EXPECT_LT(blocked.dispatch_seq, cold_response.dispatch_seq);
  EXPECT_LT(cold_response.dispatch_seq, hot_response.dispatch_seq);
}

}  // namespace
}  // namespace bnn
