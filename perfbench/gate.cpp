#include "gate.h"

#include <cmath>
#include <cstring>

#include "metrics/metrics.h"

namespace perfbench {

namespace bs = bnn::serve;
using bnn::core::Accelerator;

Gate::Gate(const Workload& workload) : workload_(workload) {}

void Gate::fail(const std::string& message) {
  // Keep the report readable: the first few failures say what broke.
  if (failures_.size() < 20) failures_.push_back(message);
  else if (failures_.size() == 20) failures_.push_back("... (further failures omitted)");
}

Accelerator& Gate::reference(const std::shared_ptr<const bnn::quant::QuantNetwork>& net) {
  auto& slot = refs_[net.get()];
  if (!slot) {
    bnn::core::AcceleratorConfig config = workload_.networks.front().accel;
    config.num_threads = 1;
    config.pool = &pool_;
    slot = std::make_unique<Accelerator>(net, config);
  }
  return *slot;
}

namespace {

bool same_stats(const bnn::core::RunStats& a, const bnn::core::RunStats& b) {
  return a.total_cycles == b.total_cycles && a.latency_ms == b.latency_ms && a.macs == b.macs &&
         a.ddr_bytes == b.ddr_bytes && a.mask_bits == b.mask_bits &&
         a.per_layer.size() == b.per_layer.size();
}

bool same_bits(const bnn::nn::Tensor& a, const bnn::nn::Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

}  // namespace

std::string Gate::verify(const Record& record, const Deployment& deployment, bool sampled,
                         bool perturb) {
  const Arrival& a = record.arrival;
  const Tenant& tenant = workload_.tenants[static_cast<std::size_t>(a.tenant)];
  const RequestClass& cls = tenant.classes[static_cast<std::size_t>(a.cls)];
  const std::string where = "stream " + std::to_string(a.stream_id) + " (" + tenant.name + " " +
                            cls.label + "): ";
  const bs::Response& r = *record.response;
  const auto found = deployment.versions.find({r.model_key, r.model_version});
  if (found == deployment.versions.end() || found->second->name != tenant.name)
    return where + "served by an unknown tenant version";
  const auto& network = found->second->network;
  const int samples = cls.routed && !r.escalated ? cls.screening_samples : cls.num_samples;
  if (r.stream_id != a.stream_id || r.bayes_layers != cls.bayes_layers ||
      r.samples_used != samples || (!cls.routed && r.escalated))
    return where + "response knobs do not match the request";

  Accelerator& ref = reference(network);
  const auto key = std::make_tuple(network.get(), cls.bayes_layers, samples);
  auto estimate = estimates_.find(key);
  if (estimate == estimates_.end())
    estimate = estimates_.emplace(key, ref.estimate(cls.bayes_layers, samples)).first;
  ++stats_checked_;
  if (!same_stats(r.stats, estimate->second))
    return where + "RunStats differ from Accelerator::estimate(L, S)";
  if (!sampled) return "";

  const bnn::nn::Tensor image = make_request(workload_, a).image;  // (1, C, H, W)
  const auto pass = [&](int s) {
    return ref.predict_batch(image, {{cls.bayes_layers, s, a.stream_id, 0}}).probs;
  };
  bnn::nn::Tensor expected = pass(cls.routed ? cls.screening_samples : cls.num_samples);
  if (cls.routed) {
    const bool escalate =
        bnn::metrics::average_predictive_entropy(expected) > cls.entropy_threshold_nats;
    if (escalate != r.escalated) return where + "escalation decision differs from reference";
    if (escalate) expected = pass(cls.num_samples);
  }
  if (perturb) expected.data()[0] = std::nextafter(expected.data()[0], 2.0f);
  ++bits_checked_;
  if (!same_bits(r.probs, expected)) return where + "probabilities differ from the reference";
  return "";
}

void Gate::check(const Phase& phase, const Deployment& deployment) {
  std::uint64_t responses = 0;
  for (const Record& record : phase.records) {
    if (!record.response) continue;
    ++responses;
    const Arrival& a = record.arrival;
    int& taken = sampled_[{phase.name, a.tenant, a.cls, a.square}];
    const bool sample = taken < kSamplePerClass;
    if (sample) ++taken;
    const std::string problem = verify(record, deployment, sample, /*perturb=*/false);
    if (!problem.empty()) fail(std::string(phase.name) + ": " + problem);
    else if (sample && witness_ == nullptr) witness_ = &record;
  }
  const bs::ServerStats& b = phase.server_before;
  const bs::ServerStats& e = phase.server_after;
  if (e.submitted - b.submitted != (e.requests - b.requests) + (e.rejected - b.rejected))
    fail(std::string(phase.name) + ": submitted != requests + rejected");
  if (e.requests - b.requests != responses)
    fail(std::string(phase.name) + ": server counted " + std::to_string(e.requests - b.requests) +
         " responses, the generator received " + std::to_string(responses));
}

bool Gate::self_check(const Deployment& deployment) {
  if (witness_ == nullptr) {
    fail("self-check: no sampled response verified");
    return false;
  }
  if (verify(*witness_, deployment, /*sampled=*/true, /*perturb=*/true).empty()) {
    fail("self-check: the gate accepted a perturbed reference");
    return false;
  }
  return true;
}

}  // namespace perfbench
