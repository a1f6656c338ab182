#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <thread>

#include "core/nne.h"
#include "core/perf_model.h"
#include "nn/activations.h"
#include "quant/qnetwork.h"
#include "quant/qplan.h"
#include "serve/cost_model.h"

namespace perfbench {

namespace bc = bnn::core;
namespace bq = bnn::quant;
namespace bs = bnn::serve;

namespace {

int wide_lanes() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 2 ? hw - 1 : 1;
}

// Repetitions filling about `budget_ms` of work costing `one_ms` each.
int reps_for(double one_ms, double budget_ms, int lo, int hi) {
  const int reps = one_ms > 0.0 ? static_cast<int>(budget_ms / one_ms) : hi;
  return std::clamp(reps, lo, hi);
}

std::string quoted(const std::string& key, const std::string& value) {
  return "\"" + key + "\":\"" + value + "\"";
}

std::string numeric(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "\"%s\":%.6g", key.c_str(), value);
  return buffer;
}

// --- quant --------------------------------------------------------------------

void time_quant(Workload& workload, const Deployment& d, SpanLog& log,
                std::vector<Metric>& metrics) {
  double quantize_ms = 0.0;
  double plan_us = 0.0;
  for (std::size_t n = 0; n < workload.networks.size(); ++n) {
    Network& network = workload.networks[n];
    const std::string args = quoted("net", network.name);
    std::vector<double> q;
    for (int r = 0; r < 3; ++r)
      q.push_back(timed(&log, "quant.quantize", "", [&] {
        (void)bq::quantize_model(network.model, network.images);
      }, args) / 1e3);
    quantize_ms += median(q);
    std::vector<double> p;
    for (int r = 0; r < 5; ++r)
      p.push_back(timed(&log, "quant.plan", "", [&] {
        (void)bq::build_network_exec_plan(*d.qnets[n]);
      }, args));
    plan_us += median(p);
  }
  metrics.push_back({"quant.quantize_ms", quantize_ms, "ms"});
  metrics.push_back({"quant.plan_us", plan_us, "us"});
}

// --- serve.registry -----------------------------------------------------------

void time_registry(const Workload& workload, const Deployment& d, SpanLog& log,
                   std::vector<Metric>& metrics) {
  bs::ModelRegistry registry;  // private: the serving registry is left as served
  double publish_ms = 0.0;
  std::vector<double> hot, cold;
  for (const Tenant& tenant : workload.tenants) {
    const bq::QuantNetwork& net = *d.qnets[static_cast<std::size_t>(tenant.network)];
    const std::string args = quoted("tenant", tenant.name);
    std::vector<double> publish;
    for (int r = 0; r < 4; ++r)
      publish.push_back(timed(&log, "serve.registry.publish", "", [&] {
        (void)registry.publish(tenant.name, net);
      }, args) / 1e3);
    publish_ms += median(publish);
    std::vector<double> h, c;
    for (int r = 0; r < 20; ++r)
      h.push_back(timed(&log, "serve.registry.resolve", "", [&] {
        (void)registry.resolve(tenant.name);
      }, args + ",\"state\":\"hot\""));
    for (int r = 0; r < 5; ++r) {
      registry.evict_segments(tenant.name, 0);
      c.push_back(timed(&log, "serve.registry.resolve", "", [&] {
        (void)registry.resolve(tenant.name);
      }, args + ",\"state\":\"cold\""));
    }
    hot.push_back(median(h));
    cold.push_back(median(c));
  }
  metrics.push_back({"serve.registry.publish_ms", publish_ms, "ms"});
  metrics.push_back({"serve.registry.resolve_us.hot", median(hot), "us"});
  metrics.push_back({"serve.registry.resolve_us.cold", median(cold), "us"});
}

// --- core.pass and serve.cost ----------------------------------------------------

// (network, L, S) of every pass the workload's requests trigger: the first
// pass of each class, plus the escalation pass of routed classes.
using PassKey = std::tuple<int, int, int>;

std::set<PassKey> workload_passes(const Workload& workload) {
  std::set<PassKey> keys;
  for (const Tenant& tenant : workload.tenants) {
    const int n = tenant.network;
    for (const RequestClass& cls : tenant.classes) {
      keys.insert({n, cls.bayes_layers, cls.routed ? cls.screening_samples : cls.num_samples});
      if (cls.routed) keys.insert({n, cls.bayes_layers, cls.num_samples});
    }
  }
  return keys;
}

// Median ms of direct one-image passes at `lanes` lanes (first call warms).
double time_pass(const Workload& workload, const Deployment& d, const PassKey& key, int lanes,
                 bnn::runtime::ThreadPool& pool, SpanLog& log) {
  const auto [net, layers, samples] = key;
  bc::AcceleratorConfig config = workload.networks.front().accel;
  config.num_threads = lanes;
  config.pool = &pool;
  bc::Accelerator accelerator(d.qnets[static_cast<std::size_t>(net)], config);
  const Network& network = workload.networks[static_cast<std::size_t>(net)];
  const bnn::nn::Tensor image = network.images.images().batch_row(0);
  const std::vector<bc::Accelerator::ImageRequest> request{{layers, samples, 7, 0}};
  const std::string args = quoted("net", network.name) + "," + numeric("L", layers) + "," +
                           numeric("S", samples) + "," + numeric("lanes", lanes);
  const double warm = timed(nullptr, "", "", [&] { (void)accelerator.predict_batch(image, request); });
  std::vector<double> ms;
  const int reps = reps_for(warm / 1e3, 150.0, 3, 50);
  for (int r = 0; r < reps; ++r)
    ms.push_back(timed(&log, "core.pass", "", [&] {
      (void)accelerator.predict_batch(image, request);
    }, args) / 1e3);
  return median(ms);
}

void time_passes(const Workload& workload, const Deployment& d, SpanLog& log,
                 DirectResults& out) {
  const std::set<PassKey> keys = workload_passes(workload);
  // One-lane passes on a fresh thread: its lane arena starts empty, so the
  // grow count covers this workload's passes alone.
  std::uint64_t grows = 0;
  std::exception_ptr error;
  std::thread one_lane([&] {
    try {
      bnn::runtime::ThreadPool pool(1);
      const std::uint64_t before = bc::Accelerator::lane_arena_grow_events();
      for (const PassKey& key : keys)
        out.passes[key].one_lane_ms = time_pass(workload, d, key, 1, pool, log);
      grows = bc::Accelerator::lane_arena_grow_events() - before;
    } catch (...) {
      error = std::current_exception();
    }
  });
  one_lane.join();
  if (error) std::rethrow_exception(error);
  bnn::runtime::ThreadPool wide(wide_lanes());
  for (const PassKey& key : keys)
    out.passes[key].wide_ms = time_pass(workload, d, key, wide_lanes(), wide, log);
  out.metrics.push_back({"core.arena_grows", static_cast<double>(grows), "count"});

  // serve.cost: measured first-pass ms over the cost model's first_pass_ms,
  // per request class; its max / min shows how well the model ranks them.
  const bc::AcceleratorConfig& accel = workload.networks.front().accel;
  bs::CostModel cost(bc::PerfConfig{accel.nne, accel.ddr}, accel.use_intermediate_caching);
  for (std::size_t n = 0; n < workload.networks.size(); ++n)
    cost.bind_model(static_cast<bs::ModelKey>(n), d.qnets[n]->describe(),
                    d.qnets[n]->resident_weight_bytes());
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const Tenant& tenant : workload.tenants)
    for (const RequestClass& cls : tenant.classes) {
      bs::RequestOptions options;
      options.bayes_layers = cls.bayes_layers;
      options.num_samples = cls.num_samples;
      options.use_uncertainty_router = cls.routed;
      if (cls.routed) options.screening_samples = cls.screening_samples;
      const PassTimes& t = out.passes.at(
          {tenant.network, cls.bayes_layers, cls.routed ? cls.screening_samples : cls.num_samples});
      const double measured = workload.lanes_per_replica > 1 ? t.wide_ms : t.one_lane_ms;
      const double ratio =
          measured / cost.first_pass_ms(static_cast<bs::ModelKey>(tenant.network), options);
      lo = first ? ratio : std::min(lo, ratio);
      hi = first ? ratio : std::max(hi, ratio);
      first = false;
    }
  out.metrics.push_back({"serve.cost.ratio_spread", hi / lo, "ratio"});
}

// --- core.nne: one span per layer of a deterministic pass ------------------------

struct LayerRow {
  std::string label;
  double us = 0.0;
  bc::LayerTiming modelled;
  bool bitpack = false;
};

// Times every layer of one deterministic (L = 0) pass through
// nne_run_layer_into, checks the layer-by-layer result against the
// accelerator's own pass, and prints the table. Returns false when the
// results differ.
bool time_network_layers(Network& network, SpanLog& log, std::vector<Metric>& metrics,
                         int& packed_layers, int& total_layers) {
  auto net = std::make_shared<const bq::QuantNetwork>(
      bq::quantize_model(network.model, network.images));
  bnn::runtime::ThreadPool pool(1);
  bc::AcceleratorConfig config = network.accel;
  config.num_threads = 1;
  config.pool = &pool;
  bc::Accelerator accelerator(net, config);
  const bq::NetworkExecPlan& plan = *accelerator.shared_plan();
  const int layers = net->num_layers();
  const bc::RunStats modelled = bc::estimate_pass(
      net->describe(), bc::PerfConfig{config.nne, config.ddr}, 0, layers - 1, false, false);

  const bnn::nn::Tensor image = network.images.images().batch_row(0);
  const std::vector<bc::Accelerator::ImageRequest> deterministic{{0, 1, 0, 0}};
  const bq::QTensor qimage = bq::quantize_image(image, 0, net->input);
  std::vector<bq::QTensor> outputs(static_cast<std::size_t>(layers));
  bc::NneScratch scratch;
  std::vector<LayerRow> rows(static_cast<std::size_t>(layers));
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(layers));

  const auto run = [&](bool record) {
    for (int l = 0; l < layers; ++l) {
      const bq::QLayer& layer = net->layers[static_cast<std::size_t>(l)];
      const bq::QTensor& input =
          layer.input_source < 0 ? qimage : outputs[static_cast<std::size_t>(layer.input_source)];
      const bq::QTensor* shortcut =
          layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                  : nullptr;
      const auto start = Clock::now();
      (void)bc::nne_run_layer_into(layer, plan.layer(l), input, shortcut, false, nullptr,
                                   net->dropout_keep, config.nne, config.kernel_tier, scratch,
                                   outputs[static_cast<std::size_t>(l)]);
      const auto end = Clock::now();
      LayerRow& row = rows[static_cast<std::size_t>(l)];
      if (!record) {
        // The tier nne_run_layer_into takes under the configured cap.
        std::int8_t lo = 0, hi = 0;
        row.bitpack = config.kernel_tier == bnn::nn::kernels::Tier::bitpack &&
                      plan.layer(l).weights_binarizable &&
                      bq::two_valued_activations(input, &lo, &hi);
        row.label = layer.geom.label;
        row.modelled = modelled.per_layer[static_cast<std::size_t>(l)];
        continue;
      }
      const bc::LayerTiming& m = row.modelled;
      log.add(Span{"core.nne.layer", start, end, 0, false, "core.nne.pass",
                   quoted("net", network.name) + "," + numeric("layer", l) + "," +
                       quoted("label", row.label) + "," + numeric("macs", static_cast<double>(m.macs)) +
                       "," + numeric("compute_cycles", m.compute_cycles) + "," +
                       numeric("memory_cycles", m.memory_cycles) + "," +
                       quoted("bound", m.compute_cycles >= m.memory_cycles ? "compute" : "memory") +
                       "," + quoted("tier", row.bitpack ? "bitpack" : "int8")});
      samples[static_cast<std::size_t>(l)].push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
  };

  const double warm_us = timed(nullptr, "", "", [&] { run(false); });
  const int reps = reps_for(warm_us / 1e3, 150.0, 5, 200);
  std::vector<double> pass_us;
  for (int r = 0; r < reps; ++r) {
    timed(&log, "core.nne.pass", "", [&] { run(true); }, quoted("net", network.name));
    pass_us.push_back(timed(&log, "core.pass", "", [&] {
      (void)accelerator.predict_batch(image, deterministic);
    }, quoted("net", network.name) + ",\"L\":0,\"S\":1,\"lanes\":1"));
  }

  // The layer-by-layer result must be the accelerator's own pass.
  const bq::QTensor& last = outputs.back();
  bnn::nn::Tensor probs({1, net->num_classes});
  for (int k = 0; k < net->num_classes; ++k)
    probs.data()[k] = last.params.scale *
                      static_cast<float>(last.data[static_cast<std::size_t>(k)] - last.params.zero_point);
  bnn::nn::softmax_row(probs.data(), probs.data(), net->num_classes);
  const bnn::nn::Tensor expected = accelerator.predict_batch(image, deterministic).probs;
  const bool same = std::memcmp(probs.data(), expected.data(),
                                static_cast<std::size_t>(net->num_classes) * sizeof(float)) == 0;

  double sum_us = 0.0;
  std::printf("\n%s: deterministic pass, %d layers, %d reps (PC=%d PF=%d PV=%d)\n",
              network.name.c_str(), layers, reps, config.nne.pc, config.nne.pf, config.nne.pv);
  std::printf("  %-5s %-14s %10s %12s %12s %12s %-8s %-7s\n", "layer", "label", "host_us",
              "MACs", "compute_cyc", "memory_cyc", "bound", "tier");
  for (int l = 0; l < layers; ++l) {
    LayerRow& row = rows[static_cast<std::size_t>(l)];
    row.us = median(samples[static_cast<std::size_t>(l)]);
    sum_us += row.us;
    const bc::LayerTiming& m = row.modelled;
    std::printf("  %-5d %-14s %10.2f %12lld %12.0f %12.0f %-8s %-7s\n", l, row.label.c_str(),
                row.us, static_cast<long long>(m.macs), m.compute_cycles, m.memory_cycles,
                m.compute_cycles >= m.memory_cycles ? "compute" : "memory",
                row.bitpack ? "bitpack" : "int8");
    metrics.push_back({"core.nne." + network.name + ".L" + std::to_string(l) + ".us", row.us, "us"});
    packed_layers += row.bitpack ? 1 : 0;
    ++total_layers;
  }
  const double coverage = sum_us / median(pass_us);
  std::printf("  sum of layers %.1f us, whole pass %.1f us, coverage %.3f, bit-identical: %s\n",
              sum_us, median(pass_us), coverage, same ? "yes" : "NO");
  metrics.push_back({"core.nne." + network.name + ".coverage", coverage, "ratio"});
  return same;
}

}  // namespace

DirectResults run_direct_calls(Workload& workload, const Deployment& d, SpanLog& log) {
  DirectResults out;
  time_quant(workload, d, log, out.metrics);
  time_registry(workload, d, log, out.metrics);
  time_passes(workload, d, log, out);
  int packed = 0, total = 0;
  for (Network& network : all_networks())
    out.reproduced &= time_network_layers(network, log, out.metrics, packed, total);
  out.metrics.push_back(
      {"core.nne.packed_share", total ? static_cast<double>(packed) / total : 0.0, "fraction"});
  return out;
}

double direct_pass_ms(const DirectResults& direct, const Workload& workload,
                      const Arrival& arrival, bool escalated) {
  const Tenant& tenant = workload.tenants[static_cast<std::size_t>(arrival.tenant)];
  const RequestClass& cls = tenant.classes[static_cast<std::size_t>(arrival.cls)];
  const auto pass = [&](int samples) {
    const PassTimes& t = direct.passes.at({tenant.network, cls.bayes_layers, samples});
    return workload.lanes_per_replica > 1 ? t.wide_ms : t.one_lane_ms;
  };
  if (!cls.routed) return pass(cls.num_samples);
  return pass(cls.screening_samples) + (escalated ? pass(cls.num_samples) : 0.0);
}

}  // namespace perfbench
