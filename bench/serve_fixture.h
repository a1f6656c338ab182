// Shared serving fixtures for bench/tools/examples: the tiny quantized CNN
// on 12x12 synthetic digits and the linear-first MLP on flattened 7x7
// digits, trained deterministically from pinned seeds. Every binary that
// records or replays traces builds its weights HERE, so a trace header's
// workload id names one reproducible network: a trace recorded by
// scenario_gen replays bit-clean in trace_replay (or any other consumer)
// because both processes derive the identical QuantNetwork.
#ifndef BNN_BENCH_SERVE_FIXTURE_H
#define BNN_BENCH_SERVE_FIXTURE_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/accelerator.h"
#include "data/synth.h"
#include "nn/models.h"
#include "quant/qnetwork.h"
#include "serve/model_registry.h"
#include "serve/scenario.h"
#include "train/trainer.h"

namespace bnn::bench {

/// TraceMeta::workload_id values of the shared fixtures.
inline constexpr std::uint32_t kWorkloadCnn12 = 1;
inline constexpr std::uint32_t kWorkloadMlp49 = 2;
inline constexpr std::uint32_t kWorkloadCnn12b = 3;

struct ServeFixture {
  quant::QuantNetwork qnet;
  data::Dataset dataset;  ///< stimulus images (indexed modulo size)
  std::uint32_t workload_id = 0;
};

/// The serving benchmark accelerator configuration (PC=16 PF=8 PV=4,
/// sampler seed 5, all shared-pool lanes) — identical across recorder and
/// replayer processes by construction.
inline core::AcceleratorConfig serve_accel_config() {
  core::AcceleratorConfig config;
  config.nne.pc = 16;
  config.nne.pf = 8;
  config.nne.pv = 4;
  config.sampler_seed = 5;
  config.num_threads = 0;
  return config;
}

/// A fixture's float half: the trained model and its stimulus images,
/// before quantization.
struct FloatFixture {
  nn::Model model;
  data::Dataset dataset;
};

/// The float half of a fixture workload, trained for one epoch from its
/// pinned seeds:
///  - cnn12: tiny CNN on 12x12 synthetic digits (the fast test workload);
///  - mlp49: linear-first MLP on flattened 7x7 digits, whose equal-numel
///    flat/square views are both valid inputs, so mixed_shapes scenarios
///    carry two shape groups;
///  - cnn12b: cnn12's topology from different seeds. The multi-tenant
///    scenarios serve it as a third tenant, and hot-swap tests publish it as
///    "version 2" of a cnn12-shaped tenant.
inline FloatFixture make_float_fixture(std::uint32_t workload_id) {
  FloatFixture fixture = [workload_id] {
    switch (workload_id) {
      case kWorkloadCnn12:
      case kWorkloadCnn12b: {
        const bool second = workload_id == kWorkloadCnn12b;
        util::Rng rng(second ? 31 : 21);
        util::Rng data_rng(second ? 32 : 22);
        return FloatFixture{nn::make_tiny_cnn(rng, 10, 1, 12),
                            data::make_synth_digits_small(96, data_rng)};
      }
      case kWorkloadMlp49: {
        util::Rng rng(91);
        util::Rng data_rng(92);
        data::Dataset digits = data::make_synth_digits(96, data_rng);
        nn::Tensor small({digits.size(), 49, 1, 1});
        for (int n = 0; n < digits.size(); ++n)
          for (int y = 0; y < 7; ++y)
            for (int x = 0; x < 7; ++x)
              small.v4(n, y * 7 + x, 0, 0) = digits.images().v4(n, 0, 4 * y + 2, 4 * x + 2);
        return FloatFixture{nn::make_mlp3(rng, 49, 24, 10, nn::MlpActivation::relu,
                                          /*with_mcd_sites=*/true),
                            data::Dataset(std::move(small), digits.labels(), 10)};
      }
      default:
        throw std::invalid_argument("serve_fixture: unknown workload id " +
                                    std::to_string(workload_id) +
                                    " (trace recorded against a caller-supplied network?)");
    }
  }();
  train::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  train::fit(fixture.model, fixture.dataset, config);
  return fixture;
}

/// Fixture for a trace header's workload id (standalone replay tools).
inline ServeFixture make_workload_fixture(std::uint32_t workload_id) {
  FloatFixture fixture = make_float_fixture(workload_id);
  quant::QuantNetwork qnet = quant::quantize_model(fixture.model, fixture.dataset);
  return ServeFixture{std::move(qnet), std::move(fixture.dataset), workload_id};
}

inline ServeFixture make_cnn12_fixture() { return make_workload_fixture(kWorkloadCnn12); }
inline ServeFixture make_mlp49_fixture() { return make_workload_fixture(kWorkloadMlp49); }
inline ServeFixture make_cnn12b_fixture() { return make_workload_fixture(kWorkloadCnn12b); }

/// Process-wide shared instances (tests): train each fixture at most once
/// per binary however many test suites touch it.
inline const ServeFixture& shared_cnn12_fixture() {
  static const ServeFixture fixture = make_cnn12_fixture();
  return fixture;
}
inline const ServeFixture& shared_mlp49_fixture() {
  static const ServeFixture fixture = make_mlp49_fixture();
  return fixture;
}
inline const ServeFixture& shared_cnn12b_fixture() {
  static const ServeFixture fixture = make_cnn12b_fixture();
  return fixture;
}

/// The canonical registry tenant name of a fixture workload — the name
/// multi-model traces and benches publish the fixture under, so a trace's
/// model table round-trips to the identical registry across processes.
inline const char* workload_model_name(std::uint32_t workload_id) {
  switch (workload_id) {
    case kWorkloadCnn12: return "cnn12";
    case kWorkloadMlp49: return "mlp49";
    case kWorkloadCnn12b: return "cnn12b";
    default:
      throw std::invalid_argument("serve_fixture: unknown workload id " +
                                  std::to_string(workload_id));
  }
}

/// A one-entry registry holding `network` under the empty name — the
/// default ServerConfig::default_model — for callers that serve a single
/// model: `serve::Server server(single_model_registry(net), accel, config)`.
inline std::shared_ptr<serve::ModelRegistry> single_model_registry(
    quant::QuantNetwork network, serve::ModelConfig model_config = {}) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->publish("", std::move(network), model_config);
  return registry;
}

/// A multi-tenant serving fixture: N fixtures (cnn12, mlp49, cnn12b — in
/// that order) published into one ModelRegistry under their canonical
/// names. Scenario event model_index i routes to names[i]; stimulus images
/// come from fixtures[i] (tenants have different input geometries on
/// purpose — the server resolves the tenant before checking geometry).
struct MultiTenantFixture {
  std::vector<ServeFixture> fixtures;  ///< index = scenario model_index
  std::vector<std::string> names;      ///< registry tenant names, same order
  std::shared_ptr<serve::ModelRegistry> registry;
};

inline MultiTenantFixture make_multi_tenant_fixture(
    int num_models, serve::RegistryConfig registry_config = {}) {
  if (num_models < 1 || num_models > 3)
    throw std::invalid_argument("serve_fixture: num_models must be in [1, 3]");
  MultiTenantFixture multi;
  multi.registry = std::make_shared<serve::ModelRegistry>(registry_config);
  const std::uint32_t workloads[] = {kWorkloadCnn12, kWorkloadMlp49, kWorkloadCnn12b};
  for (int m = 0; m < num_models; ++m) {
    ServeFixture fixture = make_workload_fixture(workloads[m]);
    serve::ModelConfig model_config;
    model_config.workload_id = fixture.workload_id;
    multi.names.emplace_back(workload_model_name(fixture.workload_id));
    multi.registry->publish(multi.names.back(), fixture.qnet, model_config);
    multi.fixtures.push_back(std::move(fixture));
  }
  return multi;
}

/// ScenarioImageFn over a fixture's dataset: image r modulo the dataset
/// size. shape_variant 1 (mixed_shapes, MLP-49 only) reshapes the flat
/// (49,1,1) view to the equal-numel square (1,7,7) view, giving the
/// dispatcher a second batch-group shape.
inline nn::Tensor fixture_image(const ServeFixture& fixture,
                                const serve::ScenarioEvent& event) {
  nn::Tensor image =
      fixture.dataset.images().batch_row(event.image_index % fixture.dataset.size());
  if (event.shape_variant == 1) image = image.reshaped({1, 1, 7, 7});
  return image;
}

/// ScenarioImageFn over a multi-tenant fixture: events index their own
/// tenant's dataset.
inline nn::Tensor multi_fixture_image(const MultiTenantFixture& multi,
                                      const serve::ScenarioEvent& event) {
  return fixture_image(multi.fixtures[static_cast<std::size_t>(event.model_index)],
                       event);
}

}  // namespace bnn::bench

#endif  // BNN_BENCH_SERVE_FIXTURE_H
