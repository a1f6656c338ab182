#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "bench/serve_fixture.h"
#include "data/synth.h"
#include "train/trainer.h"

namespace perfbench {

namespace bn = bnn::nn;
namespace bd = bnn::data;
using bnn::util::Rng;

namespace {

// --- networks ---------------------------------------------------------------
// Paper networks: bench/common.h's make_* calls at its pinned seeds (101/201/301
// for weights, 102/202/302 for data), UNTRAINED — host cost does not depend
// on weight values for these layers, and training VGG-11 / ResNet-18 takes
// minutes. 64 images each: the calibration set and the stimulus pool.
constexpr int kPaperImages = 64;

Network paper_lenet5() {
  Rng rng(101);
  Rng data_rng(102);
  return {"lenet5", bn::make_lenet5(rng), bd::make_synth_digits(kPaperImages, data_rng), {}};
}

Network paper_vgg11() {
  Rng rng(201);
  Rng data_rng(202);
  return {"vgg11", bn::make_vgg11(rng, 10, /*width_divisor=*/8),
          bd::make_synth_svhn(kPaperImages, data_rng), {}};
}

Network paper_resnet18() {
  Rng rng(301);
  Rng data_rng(302);
  return {"resnet18", bn::make_resnet18(rng, 10, /*base_width=*/8),
          bd::make_synth_objects(kPaperImages, data_rng), {}};
}

// Serving fixtures: the float halves of bench/serve_fixture.h's recipes
// (same make_* calls, seeds and one-epoch training), kept as float models so the
// benchmark can time quantize_model itself.
void train_fixture(bn::Model& model, const bd::Dataset& images) {
  bnn::train::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  bnn::train::fit(model, images, config);
}

Network fixture_tiny_cnn(const char* name, std::uint64_t seed, std::uint64_t data_seed) {
  Rng rng(seed);
  Rng data_rng(data_seed);
  Network network{name, bn::make_tiny_cnn(rng, 10, 1, 12),
                  bd::make_synth_digits_small(96, data_rng),
                  bnn::bench::serve_accel_config()};
  train_fixture(network.model, network.images);
  return network;
}

Network fixture_mlp49() {
  Rng rng(91);
  bn::Model mlp = bn::make_mlp3(rng, 49, 24, 10, bn::MlpActivation::relu,
                                /*with_mcd_sites=*/true);
  Rng data_rng(92);
  bd::Dataset digits = bd::make_synth_digits(96, data_rng);
  bn::Tensor small({digits.size(), 49, 1, 1});
  for (int n = 0; n < digits.size(); ++n)
    for (int y = 0; y < 7; ++y)
      for (int x = 0; x < 7; ++x)
        small.v4(n, y * 7 + x, 0, 0) = digits.images().v4(n, 0, 4 * y + 2, 4 * x + 2);
  Network network{"mlp49", std::move(mlp), bd::Dataset(std::move(small), digits.labels(), 10),
                  bnn::bench::serve_accel_config()};
  train_fixture(network.model, network.images);
  return network;
}

std::vector<Network> fixture_networks() {
  std::vector<Network> networks;
  networks.push_back(fixture_tiny_cnn("cnn12", 21, 22));
  networks.push_back(fixture_mlp49());
  networks.push_back(fixture_tiny_cnn("cnn12b", 31, 32));
  return networks;
}

std::vector<Network> paper_networks() {
  std::vector<Network> networks;
  networks.push_back(paper_lenet5());
  networks.push_back(paper_vgg11());
  networks.push_back(paper_resnet18());
  return networks;
}

RequestClass direct(int bayes_layers, int num_samples) {
  RequestClass cls;
  cls.label = "L" + std::to_string(bayes_layers) + "S" + std::to_string(num_samples);
  cls.bayes_layers = bayes_layers;
  cls.num_samples = num_samples;
  return cls;
}

RequestClass routed(int bayes_layers, int screening, int num_samples, double threshold) {
  RequestClass cls = direct(bayes_layers, num_samples);
  cls.label += "r" + std::to_string(screening);
  cls.routed = true;
  cls.screening_samples = screening;
  cls.entropy_threshold_nats = threshold;
  return cls;
}

// --- the workloads ------------------------------------------------------------

// Compute-bound: the paper's networks, each under its own tenant, with
// shallow / two-thirds / full Bayesian depth. Router off (escalation would
// depend on the untrained weights). nproc - 1 replicas of one lane each: one
// replica spreading each request over nproc - 1 lanes makes every request
// wait for its slowest lane and queues the whole stream behind one
// dispatcher, so a host stall of one vCPU stretches the latency of every
// request behind it (its p50 moved 1.6x between back-to-back runs on a quiet
// host); with one lane per replica a stall delays only the request on that
// vCPU. Thread-pool scaling is still measured by the traced run's direct
// passes (core.lane_scaling). VGG-11, the middle of the three in cost, is
// three times as popular as the others, and each tenant's two-thirds class
// four times as frequent as its shallow and full ones, so the median request
// falls in the middle of one class's narrow band of service times (VGG-11 at
// two-thirds L holds 30-70% of the requests by cost) rather than at the edge
// between two bands: when a host stall pushes some requests into the tail,
// the median moves up within that band instead of jumping to the next one.
// lo / hi are 14-19% / 19-26% of the offline drain this layout measured over
// ten runs on a 4-vCPU x86 VM (172-237 req/s), hi about a quarter of the
// slowest; at the benchmark's 55 s runs each phase holds over 1000 requests.
Workload paper_nets() {
  Workload w;
  w.name = "paper_nets";
  w.lo_rps = 32.0;
  w.hi_rps = 45.0;
  w.limit_ms = 400.0;
  w.drain_per_second = 10.0;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  w.replicas = hw > 2 ? hw - 1 : 1;
  w.lanes_per_replica = 1;
  w.networks = paper_networks();
  for (int i = 0; i < static_cast<int>(w.networks.size()); ++i) {
    Tenant tenant;
    tenant.name = w.networks[static_cast<std::size_t>(i)].name;
    tenant.network = i;
    tenant.popularity = i == 1 ? 3.0 : 1.0;
    const int sites = w.networks[static_cast<std::size_t>(i)].model.num_sites();
    tenant.classes = {direct(1, 4), direct((2 * sites + 2) / 3, 2), direct(sites, 2)};
    tenant.classes[1].weight = 4.0;
    w.tenants.push_back(std::move(tenant));
  }
  return w;
}

// Serving-overhead-bound: the tiny fixtures, all resident, bursty arrivals,
// a third of the classes routed with the threshold inside the fixtures'
// screening-entropy band. Two replicas x one lane. lo / hi are 5-7% / 9-14%
// of the offline drain measured over twenty runs on a 4-vCPU x86 VM
// (4460-6450 req/s) and under a quarter of the slowest drain seen there
// (2680 req/s): a host stall of a few ms holds up every request queued
// behind it, so the lower the load, the fewer requests one stall moves.
constexpr double kScreeningThresholdNats = 2.25;

std::vector<RequestClass> fixture_classes(int sites) {
  return {direct(1, 4), direct(sites, 4), routed(sites, 2, 8, kScreeningThresholdNats)};
}

Workload fixture_burst() {
  Workload w;
  w.name = "fixture_burst";
  w.lo_rps = 300.0;
  w.hi_rps = 600.0;
  w.limit_ms = 50.0;
  w.drain_per_second = 200.0;
  w.burst_mean = 6.0;
  w.replicas = 2;
  w.lanes_per_replica = 1;
  w.networks = fixture_networks();
  for (int i = 0; i < static_cast<int>(w.networks.size()); ++i) {
    Tenant tenant;
    tenant.name = w.networks[static_cast<std::size_t>(i)].name;
    tenant.network = i;
    tenant.classes = fixture_classes(w.networks[static_cast<std::size_t>(i)].model.num_sites());
    tenant.square_view = tenant.name == "mlp49";
    w.tenants.push_back(std::move(tenant));
  }
  return w;
}

// The request mix is dealt from a shuffled deck holding every (tenant,
// class) pair in proportion to its tenant's popularity and its class's
// weight (about kDeckSize
// cards, at least one per pair). Dealing instead of drawing each request
// independently keeps every run's mix at the workload's proportions: runs
// on different seeds differ in order, images and arrival times, not in how
// much of each class they hold.
constexpr double kDeckSize = 60.0;

class Deck {
 public:
  explicit Deck(const Workload& workload) {
    double total = 0.0;
    for (const Tenant& tenant : workload.tenants) total += tenant.popularity;
    for (int t = 0; t < static_cast<int>(workload.tenants.size()); ++t) {
      const Tenant& tenant = workload.tenants[static_cast<std::size_t>(t)];
      double weights = 0.0;
      for (const RequestClass& cls : tenant.classes) weights += cls.weight;
      for (int c = 0; c < static_cast<int>(tenant.classes.size()); ++c) {
        const double share = tenant.popularity / total *
                             tenant.classes[static_cast<std::size_t>(c)].weight / weights;
        const long copies = std::max(1L, std::lround(kDeckSize * share));
        for (long k = 0; k < copies; ++k) cards_.emplace_back(t, c);
      }
    }
    next_ = cards_.size();
  }

  std::pair<int, int> deal(Rng& rng) {
    if (next_ == cards_.size()) {
      for (int i = static_cast<int>(cards_.size()) - 1; i > 0; --i)
        std::swap(cards_[static_cast<std::size_t>(i)],
                  cards_[static_cast<std::size_t>(rng.uniform_int(0, i))]);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<std::pair<int, int>> cards_;
  std::size_t next_ = 0;
};

// Deals tenant and class, then draws image and view.
Arrival draw(const Workload& workload, Deck& deck, Rng& rng) {
  Arrival a;
  std::tie(a.tenant, a.cls) = deck.deal(rng);
  const Tenant& tenant = workload.tenants[static_cast<std::size_t>(a.tenant)];
  const Network& network = workload.networks[static_cast<std::size_t>(tenant.network)];
  a.image = rng.uniform_int(0, network.images.size() - 1);
  a.square = tenant.square_view && rng.bernoulli(0.5);
  return a;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_nets", "fixture_burst"};
  return names;
}

Workload make_workload(const std::string& name) {
  if (name == "paper_nets") return paper_nets();
  if (name == "fixture_burst") return fixture_burst();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<Network> all_networks() {
  std::vector<Network> networks = paper_networks();
  for (Network& network : fixture_networks()) networks.push_back(std::move(network));
  return networks;
}

std::vector<Arrival> open_loop_stream(const Workload& workload, double rps, std::size_t count,
                                      Rng& rng, std::uint64_t first_stream) {
  Deck deck(workload);
  // Bursts arrive as a Poisson process at rps / burst_mean; a burst holds a
  // geometric number of requests (mean burst_mean) submitted back to back.
  const double burst_rate = rps / workload.burst_mean;
  const double continue_p = 1.0 - 1.0 / workload.burst_mean;
  std::vector<Arrival> stream;
  stream.reserve(count);
  double t = 0.0;
  while (stream.size() < count) {
    t += -std::log(1.0 - rng.uniform()) / burst_rate;
    do {
      Arrival a = draw(workload, deck, rng);
      a.due_s = t;
      a.stream_id = first_stream + stream.size();
      stream.push_back(a);
    } while (stream.size() < count && rng.bernoulli(continue_p));
  }
  return stream;
}

std::vector<Arrival> drain_stream(const Workload& workload, int count, Rng& rng,
                                  std::uint64_t first_stream) {
  Deck deck(workload);
  std::vector<Arrival> stream;
  stream.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Arrival a = draw(workload, deck, rng);
    a.stream_id = first_stream + static_cast<std::uint64_t>(i);
    stream.push_back(a);
  }
  return stream;
}

bnn::serve::Request make_request(const Workload& workload, const Arrival& arrival) {
  const Tenant& tenant = workload.tenants[static_cast<std::size_t>(arrival.tenant)];
  const RequestClass& cls = tenant.classes[static_cast<std::size_t>(arrival.cls)];
  const Network& network = workload.networks[static_cast<std::size_t>(tenant.network)];
  bnn::serve::Request request;
  request.image = network.images.images().batch_row(arrival.image);
  if (arrival.square) {
    const int side = static_cast<int>(std::lround(std::sqrt(request.image.numel())));
    request.image = request.image.reshaped({1, 1, side, side});
  }
  request.model = tenant.name;
  request.stream_id = arrival.stream_id;
  request.options.bayes_layers = cls.bayes_layers;
  request.options.num_samples = cls.num_samples;
  request.options.use_uncertainty_router = cls.routed;
  if (cls.routed) {
    request.options.screening_samples = cls.screening_samples;
    request.options.entropy_threshold_nats = cls.entropy_threshold_nats;
  }
  return request;
}

}  // namespace perfbench
