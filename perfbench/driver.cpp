// Benchmark driver: runs one workload of the repository benchmark and prints
// a raw JSON record as its last line of output; perfbench/run.py turns that
// record into the benchmark's named metrics.
//
// A workload is a closed loop: round r+1 is issued only after round r has
// returned. A run measures `distinct` instances, each drawing its own inputs
// from the seed and running set-up, a fixed number of timed rounds with
// their scheduled evaluations, then its checks. Every instance is run
// `repeats` times, the repeats interleaved across the run; the count is set
// by --seconds and does not depend on machine speed. A repeat is the same
// computation bit for bit (its digests must match), so run.py can take each
// round's fastest repeat: on a shared host the speed of the machine swings
// by tens of percent over seconds, and that noise only ever adds time.
// Set-up is sampled at least min_setups times. Between rounds the driver
// also times a fixed calibration kernel of its own, by which run.py scales
// the run's times to the speed of the reference machine.
//
// Timed instances run with obs timing off and no trace sink attached, so the
// program's own TraceScopes cost two relaxed atomic loads. With --trace 1 the
// run times half the repeats that way, then runs as many again with timing
// histograms and a Chrome trace sink on, records the per-layer registry
// deltas over their timed loops, and requires each traced instance to
// reproduce its untraced twin's digests.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/reference.hpp"
#include "core/simulation.hpp"
#include "data/femnist_synth.hpp"
#include "nn/model_zoo.hpp"
#include "nn/params.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/sha256.hpp"
#include "support/stopwatch.hpp"
#include "tangle/invariants.hpp"
#include "tangle/milestones.hpp"
#include "tangle/model_store.hpp"
#include "tangle/payload_codec.hpp"
#include "tangle/tip_selection.hpp"
#include "tangle/view_cache.hpp"

namespace {

using namespace tanglefl;

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Kind { kEngine, kLedger };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kEngine;
  std::size_t rounds = 100;  // timed rounds per instance
  std::size_t distinct = 2;  // instances with their own inputs per run
  // Seconds one instance takes on the reference machine (see README.md);
  // each distinct instance is repeated --seconds / (distinct x
  // instance_seconds) times.
  double instance_seconds = 2.5;
  std::size_t min_setups = 7;  // set-up-only samples top up to this many
  std::size_t calibrate_every = 1;  // rounds per calibration sample

  // Engine workloads (TangleSimulation).
  std::size_t users = 0;
  double mean_user_size = 0.0;  // FEMNIST samples per writer
  std::size_t nodes_per_round = 10;
  std::size_t tip_sample_size = 2;
  std::size_t reference_models = 10;
  std::size_t eval_every = 50;
  std::uint64_t attack_start = 0;  // 0: no attack
  double malicious_fraction = 0.0;
  std::string codec = "off";
  std::size_t threads = 2;
  double accuracy_floor = 0.0;

  // Ledger workload (benchmark-side driver, 2-float payloads).
  std::size_t lambda = 0;            // publishers per round
  std::size_t bootstrap_rounds = 0;  // set-up growth into the stationary regime
  // Every 8th round is a prune tick: 12.5% of the timed rounds, so the
  // round-time p90 falls among them and moves with the prune cost.
  std::size_t prune_interval = 8;
  std::size_t keep_recent = 512;
  std::size_t accuracy_points = 4000;
};

// Workloads at full scale; `tiny` shrinks them for the smoke tests only.
// Consensus accuracy is the final evaluation of an averaged 10-model
// reference on every user's test data, which keeps its seed-to-seed spread
// small.
std::vector<WorkloadSpec> workload_specs(bool tiny) {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec robust;  // fig5 shape: read-heavy probe path
  robust.name = "femnist_robust";
  robust.users = 500;
  robust.mean_user_size = 25.0;
  robust.tip_sample_size = 10;  // Section III-E: sample size = active nodes
  robust.instance_seconds = 2.5;
  robust.attack_start = 71;
  // At p = 0.2 the random-weight poison overtook the consensus of this
  // 500-writer tangle (accuracy at chance) on 4 of 6 seeds, and at p = 0.1
  // on 1 of 10 instances; p = 0.05 held on all 30 instances tried. A
  // collapse makes the accuracy bimodal across seeds (README.md).
  robust.malicious_fraction = 0.05;
  robust.accuracy_floor = 0.3;
  specs.push_back(robust);

  WorkloadSpec codec = robust;  // write path: lossless codec, plain tips
  codec.name = "femnist_codec";
  codec.tip_sample_size = 2;
  codec.attack_start = 0;
  codec.malicious_fraction = 0.0;
  codec.codec = "default";
  // Four instances of 5 nodes per round: at 50 rounds the consensus
  // accuracy of this plain-tip tangle varies by seed (the mean of two
  // instances of 10 nodes spread 22% over three seeds), and four instances
  // of 10 nodes would leave a run no time to repeat them.
  codec.nodes_per_round = 5;
  codec.rounds = 50;
  codec.distinct = 4;
  codec.instance_seconds = 3.75;
  specs.push_back(codec);

  WorkloadSpec ledger;  // tangle walks, cones and prune; no NN, no pool
  ledger.name = "ledger_growth";
  ledger.kind = Kind::kLedger;
  ledger.lambda = 8;
  ledger.bootstrap_rounds = 700;
  ledger.rounds = 1000;
  ledger.distinct = 1;
  ledger.instance_seconds = 4.2;
  ledger.min_setups = 0;  // every instance's bootstrap is a set-up sample
  ledger.calibrate_every = 8;  // a sample costs about a quarter of a round
  ledger.threads = 1;
  ledger.reference_models = 8;
  ledger.accuracy_floor = 0.9;
  specs.push_back(ledger);

  if (tiny) {
    for (WorkloadSpec& spec : specs) {
      spec.instance_seconds = 0.25;
      spec.min_setups = 2;
      spec.accuracy_floor = 0.0;
      if (spec.kind == Kind::kEngine) {
        spec.users = 40;
        spec.nodes_per_round = 4;
        spec.tip_sample_size = std::min<std::size_t>(spec.tip_sample_size, 4);
        spec.rounds = 6;
        spec.eval_every = 3;
        if (spec.attack_start > 0) spec.attack_start = 4;
      } else {
        spec.bootstrap_rounds = 40;
        spec.rounds = 40;
        spec.keep_recent = 64;
        spec.accuracy_points = 200;
      }
    }
  }
  return specs;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around the calls it makes into each layer.
// TraceScope feeds the attached Chrome trace sink and, with timing enabled,
// these histograms; untimed it costs two relaxed atomic loads.

obs::Histogram& span_histogram(const char* name) {
  return obs::MetricsRegistry::global().histogram(
      name, obs::BucketLayout::exponential(1.0, 4.0, 14), /*timing=*/true);
}

struct Spans {
  obs::Histogram& evaluate = span_histogram("perfbench.evaluate_us");
  obs::Histogram& choose_reference =
      span_histogram("perfbench.choose_reference_us");
  obs::Histogram& select_tips = span_histogram("perfbench.select_tips_us");
  obs::Histogram& view_cache = span_histogram("perfbench.view_cache_get_us");
  obs::Histogram& add_transaction =
      span_histogram("perfbench.add_transaction_us");
  obs::Histogram& prune = span_histogram("perfbench.prune_us");
};

Spans& spans() {
  static Spans instance;
  return instance;
}

// ---------------------------------------------------------------------------
// Speed calibration. On a shared host the same computation runs up to twice
// as slow in some minutes as in others, for longer than a run lasts, and
// vector arithmetic such as the NN layers' GEMMs swings most. The kernel is a
// 128 x 128 x 128 single-precision matrix product of the benchmark's own, so
// no change to the program moves it. Timed between rounds on as many threads
// at once as the workload keeps busy (the pool threads plus the caller), it
// measures how fast the host runs that kind of arithmetic on that many cores
// at the moment. A sample is the lanes' mean time.

class Calibration {
 public:
  explicit Calibration(std::size_t lanes) : kernels_(lanes), times_(lanes, 0.0) {
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      helpers_.emplace_back([this, lane] { helper(lane); });
    }
  }

  ~Calibration() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  Calibration(const Calibration&) = delete;
  Calibration& operator=(const Calibration&) = delete;

  // Mean milliseconds one product takes on each lane, all lanes at once.
  double sample_ms() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++generation_;
      pending_ = helpers_.size();
    }
    wake_.notify_all();
    times_[0] = kernels_[0].run_ms();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
    double total = 0.0;
    for (const double t : times_) total += t;
    return total / static_cast<double>(times_.size());
  }

 private:
  struct Kernel {
    static constexpr std::size_t kN = 128;
    std::vector<float> a, b, c;
    volatile float sink = 0.0f;  // keeps the product from being optimised away

    Kernel() : a(kN * kN), b(kN * kN), c(kN * kN, 0.0f) {
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>(i % 7) * 0.125f;
        b[i] = static_cast<float>(i % 5) * 0.25f;
      }
    }

    double run_ms() {
      Stopwatch watch;
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t k = 0; k < kN; ++k) {
          const float x = a[i * kN + k];
          for (std::size_t j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
        }
      }
      const double ms = watch.seconds() * 1e3;
      sink = c[kN + 1];
      return ms;
    }
  };

  void helper(std::size_t lane) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
      }
      times_[lane] = kernels_[lane].run_ms();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --pending_;
      }
      done_.notify_one();
    }
  }

  std::vector<Kernel> kernels_;
  std::vector<double> times_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> helpers_;  // last: they start on the state above
};

// ---------------------------------------------------------------------------
// Instance results.

// Registry state flattened to name -> value: counters as-is, histograms as
// `<name>.sum` / `<name>.count`, gauges as-is (and named in `gauges`).
struct RegistryValues {
  std::map<std::string, double> values;
  std::set<std::string> gauges;
};

struct Instance {
  double synth_s = 0.0;      // dataset / accuracy-set synthesis
  double construct_s = 0.0;  // engine or ledger construction
  double bootstrap_s = 0.0;  // growth into the stationary regime (ledger)
  std::size_t distinct = 0;  // which distinct instance this is a repeat of
  std::vector<double> round_ms;
  std::vector<double> eval_ms;  // per round: its scheduled evaluation, or 0
  std::vector<double> calibration_ms;
  std::uint64_t transactions = 0;
  std::uint64_t node_steps = 0;
  double wire_bytes_per_tx = 0.0;
  std::uint64_t ledger_bytes = 0;
  double consensus_acc = 0.0;
  double tip_mean = 0.0;  // ledger: mean tip count over the timed rounds
  std::string ledger_digest;
  std::string counters_digest;
  std::vector<std::string> failures;
  RegistryValues loop_metrics;  // registry deltas over the timed loop

  double setup_s() const { return synth_s + construct_s + bootstrap_s; }
};

RegistryValues registry_values() {
  RegistryValues out;
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot(obs::SnapshotKind::kFull);
  for (const auto& counter : snapshot.counters) {
    out.values[counter.name] = static_cast<double>(counter.value);
  }
  for (const auto& gauge : snapshot.gauges) {
    out.values[gauge.name] = gauge.value;
    out.gauges.insert(gauge.name);
  }
  for (const auto& hist : snapshot.histograms) {
    out.values[hist.name + ".sum"] = hist.sum;
    out.values[hist.name + ".count"] = static_cast<double>(hist.count);
  }
  return out;
}

// Counters and histograms: end - start. Gauges: end value.
RegistryValues registry_delta(const RegistryValues& start,
                              const RegistryValues& end) {
  RegistryValues delta;
  delta.gauges = end.gauges;
  for (const auto& [name, value] : end.values) {
    const auto it = start.values.find(name);
    const double base = it == start.values.end() ? 0.0 : it->second;
    delta.values[name] = end.gauges.count(name) ? value : value - base;
  }
  return delta;
}

std::string ledger_digest(const tangle::Tangle& tangle) {
  ByteWriter writer;
  tangle.serialize(writer);
  return to_hex(Sha256::hash(std::span<const std::uint8_t>(writer.bytes())));
}

// The deterministic registry snapshot, less the metrics that stayed at zero:
// reset() keeps every name an earlier instance registered, and such a name
// must not make two runs of the same instance differ.
std::string counters_digest() {
  obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot(obs::SnapshotKind::kDeterministic);
  std::erase_if(snapshot.counters, [](const auto& c) { return c.value == 0; });
  std::erase_if(snapshot.gauges, [](const auto& g) { return g.value == 0.0; });
  std::erase_if(snapshot.histograms, [](const auto& h) { return h.count == 0; });
  return to_hex(Sha256::hash(snapshot.to_json(0)));
}

// Every live payload must re-hash to the digest the store recorded for it.
void check_payload_hashes(const tangle::ModelStore& store,
                          std::vector<std::string>& failures) {
  for (tangle::PayloadId id = 0; id < store.size(); ++id) {
    if (store.is_released(id)) continue;
    if (tangle::ModelStore::hash_params(store.get(id)) != store.hash_of(id)) {
      failures.push_back("payload " + std::to_string(id) +
                         " does not re-hash to ModelStore::hash_of");
    }
  }
}

void check_invariants(const tangle::Tangle& tangle,
                      std::vector<std::string>& failures) {
  for (const std::string& violation :
       tangle::find_invariant_violations(tangle)) {
    failures.push_back("tangle invariant: " + violation);
  }
}

void check_accuracy(const WorkloadSpec& spec, Instance& instance) {
  if (!(instance.consensus_acc >= spec.accuracy_floor)) {
    instance.failures.push_back(
        "consensus_acc " + std::to_string(instance.consensus_acc) +
        " below the workload floor " + std::to_string(spec.accuracy_floor));
  }
}

// ---------------------------------------------------------------------------
// Engine workloads: TangleSimulation on a synthetic federated dataset.

struct EngineState {
  std::unique_ptr<data::FederatedDataset> dataset;
  nn::ModelFactory factory;
  std::unique_ptr<core::TangleSimulation> sim;
  std::size_t param_count = 0;
};

core::SimulationConfig engine_config(const WorkloadSpec& spec,
                                     std::uint64_t seed) {
  core::SimulationConfig config;
  config.rounds = spec.rounds;
  config.nodes_per_round = spec.nodes_per_round;
  config.eval_every = spec.eval_every;
  config.eval_nodes_fraction = 1.0;
  config.node.num_tips = 2;
  config.node.tip_sample_size = spec.tip_sample_size;
  config.node.reference.num_reference_models = spec.reference_models;
  config.node.training.epochs = 1;
  config.node.training.batch_size = 10;
  config.node.training.sgd.learning_rate = 0.06;  // Table I
  if (spec.attack_start > 0) {
    config.attack = core::AttackType::kRandomPoison;
    config.malicious_fraction = spec.malicious_fraction;
    config.attack_start_round = spec.attack_start;
  }
  config.seed = seed;
  config.threads = spec.threads;
  config.kernel_threads = 0;
  config.codec = tangle::parse_codec_spec(spec.codec);
  return config;
}

void engine_setup(const WorkloadSpec& spec, std::uint64_t seed,
                  Instance& instance, EngineState& state) {
  Stopwatch watch;
  data::FemnistSynthConfig config;
  config.num_users = spec.users;
  config.num_classes = 10;
  config.image_size = 12;
  config.mean_samples_per_user = spec.mean_user_size;
  config.train_fraction = 0.8;  // Table I
  config.seed = seed;
  state.dataset = std::make_unique<data::FederatedDataset>(
      data::make_femnist_synth(config));
  nn::ImageCnnConfig model;
  model.image_size = config.image_size;
  model.num_classes = config.num_classes;
  state.factory = [model] { return nn::make_image_cnn(model); };
  instance.synth_s = watch.seconds();
  watch.restart();
  state.sim = std::make_unique<core::TangleSimulation>(
      *state.dataset, state.factory, engine_config(spec, seed));
  instance.construct_s = watch.seconds();
  state.param_count = state.factory().parameter_count();
}

void engine_loop(const WorkloadSpec& spec, EngineState& state,
                 Calibration& calibration, Instance& instance) {
  core::TangleSimulation& sim = *state.sim;
  for (std::uint64_t round = 1; round <= spec.rounds; ++round) {
    if (round % spec.calibrate_every == 0) {
      instance.calibration_ms.push_back(calibration.sample_ms());
    }
    Stopwatch watch;
    std::size_t published = 0;
    {
      obs::TraceScope span("perfbench.round");
      published = sim.run_round(round);
    }
    instance.round_ms.push_back(watch.seconds() * 1e3);
    instance.transactions += published;
    instance.node_steps += std::min(spec.nodes_per_round, state.dataset->num_users());
    instance.eval_ms.push_back(0.0);
    if (round % spec.eval_every == 0 || round == spec.rounds) {
      watch.restart();
      obs::TraceScope span("perfbench.evaluate", &spans().evaluate);
      instance.consensus_acc = sim.evaluate(round).accuracy;
      instance.eval_ms.back() = watch.seconds() * 1e3;
    }
  }
}

void engine_finish(const WorkloadSpec& spec, EngineState& state,
                   Instance& instance) {
  const core::TangleSimulation& sim = *state.sim;
  const auto& metrics = instance.loop_metrics.values;
  const auto value = [&](const char* name) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  };
  if (tangle::parse_codec_spec(spec.codec).any_stage()) {
    const double payloads = value("ledger.codec.payloads");
    instance.wire_bytes_per_tx =
        payloads > 0 ? value("ledger.codec.encoded_bytes") / payloads : 0.0;
  } else {
    instance.wire_bytes_per_tx =
        static_cast<double>(state.param_count * sizeof(float));
  }
  instance.ledger_bytes = sim.store().live_bytes();
  instance.ledger_digest = ledger_digest(sim.tangle());
  check_payload_hashes(sim.store(), instance.failures);
  check_accuracy(spec, instance);
}

// ---------------------------------------------------------------------------
// Ledger workload: a benchmark-side driver grows a ledger of 2-float
// transactions with milestone pruning on. Each payload is a 2-weight linear
// separator; a publisher averages its two tips and steps toward the
// seed-drawn true separator, so the consensus has a measurable accuracy on
// a seed-drawn point set.

struct LedgerState {
  tangle::ModelStore store;
  std::unique_ptr<tangle::Tangle> tangle;
  std::unique_ptr<tangle::ViewCache> cache;
  std::unique_ptr<tangle::MilestoneTracker> pruner;
  Rng master;
  float target[2] = {0.0f, 0.0f};
  std::vector<float> points;  // x0, y0, x1, y1, ...
  core::ReferenceConfig reference;
  tangle::TipSelectionConfig walk;
  double tip_sum = 0.0;
  std::size_t tip_samples = 0;
  double reference_checksum = 0.0;
};

void ledger_round(const WorkloadSpec& spec, LedgerState& state,
                  std::uint64_t round) {
  tangle::Tangle& tangle = *state.tangle;
  // h = 1 round of delay: publishers of round r see what was published
  // strictly before r (the sync engine's visibility rule).
  const tangle::TangleView view =
      tangle.view_prefix(tangle.visible_count_for_round(round));
  std::shared_ptr<const tangle::ViewCacheEntry> cones;
  {
    obs::TraceScope span("perfbench.view_cache_get", &spans().view_cache);
    cones = state.cache->get(view);
  }
  state.tip_sum += static_cast<double>(cones->tips().size());
  ++state.tip_samples;

  Rng round_rng = state.master.split(round);
  std::vector<std::vector<tangle::TxIndex>> parents(spec.lambda);
  std::vector<nn::ParamVector> payloads(spec.lambda);
  for (std::size_t p = 0; p < spec.lambda; ++p) {
    Rng rng = round_rng.split(p + 1);
    core::ReferenceResult reference;
    {
      obs::TraceScope span("perfbench.choose_reference",
                           &spans().choose_reference);
      reference =
          core::choose_reference(view, state.store, *cones, rng, state.reference);
    }
    state.reference_checksum += reference.params[0] + reference.params[1];
    {
      obs::TraceScope span("perfbench.select_tips", &spans().select_tips);
      parents[p] = tangle::select_tips(*cones, 2, rng, state.walk);
    }
    const nn::ParamVector& a =
        state.store.get(tangle.transaction(parents[p][0]).payload);
    const nn::ParamVector& b =
        state.store.get(tangle.transaction(parents[p][1]).payload);
    nn::ParamVector next(2);
    for (std::size_t i = 0; i < 2; ++i) {
      const float base = 0.5f * (a[i] + b[i]);
      next[i] = base + 0.5f * (state.target[i] - base) +
                static_cast<float>(0.2 * rng.normal());
    }
    payloads[p] = std::move(next);
  }
  for (std::size_t p = 0; p < spec.lambda; ++p) {
    const tangle::ModelStore::AddResult added =
        state.store.add(std::move(payloads[p]));
    obs::TraceScope span("perfbench.add_transaction",
                         &spans().add_transaction);
    tangle.add_transaction(parents[p], added.id, added.hash, round);
  }
  if (state.pruner->tick()) {
    obs::TraceScope span("perfbench.prune", &spans().prune);
    state.pruner->advance(tangle, state.store,
                          *state.cache->get(tangle.view()));
  }
}

double ledger_accuracy(const LedgerState& state, const nn::ParamVector& w) {
  std::size_t correct = 0;
  const std::size_t n = state.points.size() / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = state.points[2 * i];
    const float y = state.points[2 * i + 1];
    const bool truth = state.target[0] * x + state.target[1] * y >= 0.0f;
    const bool predicted = w[0] * x + w[1] * y >= 0.0f;
    correct += truth == predicted ? 1 : 0;
  }
  return n > 0 ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
}

void ledger_setup(const WorkloadSpec& spec, std::uint64_t seed,
                  Instance& instance, LedgerState& state) {
  Stopwatch watch;
  Rng data_rng = Rng(seed).split(0xda7a);
  const double angle = data_rng.uniform(0.0, 2.0 * 3.14159265358979323846);
  state.target[0] = static_cast<float>(std::cos(angle));
  state.target[1] = static_cast<float>(std::sin(angle));
  state.points.resize(2 * spec.accuracy_points);
  for (float& coordinate : state.points) {
    coordinate = static_cast<float>(data_rng.normal());
  }
  instance.synth_s = watch.seconds();

  watch.restart();
  state.master = Rng(seed);
  const auto genesis = state.store.add({0.0f, 0.0f});
  state.tangle = std::make_unique<tangle::Tangle>(genesis.id, genesis.hash);
  state.cache = std::make_unique<tangle::ViewCache>(4);
  tangle::MilestoneConfig prune;
  prune.enabled = true;
  prune.interval = spec.prune_interval;
  prune.keep_recent = spec.keep_recent;
  state.pruner = std::make_unique<tangle::MilestoneTracker>(prune);
  state.reference.num_reference_models = spec.reference_models;
  state.reference.confidence.sample_rounds = spec.lambda;
  state.walk.alpha = 0.0;  // unbiased walk: the regime of the 2λh analysis
  instance.construct_s = watch.seconds();

  watch.restart();
  for (std::uint64_t round = 1; round <= spec.bootstrap_rounds; ++round) {
    ledger_round(spec, state, round);
  }
  state.tip_sum = 0.0;
  state.tip_samples = 0;
  instance.bootstrap_s = watch.seconds();
}

void ledger_loop(const WorkloadSpec& spec, LedgerState& state,
                 Calibration& calibration, Instance& instance) {
  const std::uint64_t first = spec.bootstrap_rounds + 1;
  for (std::uint64_t round = first; round < first + spec.rounds; ++round) {
    if (round % spec.calibrate_every == 0) {
      instance.calibration_ms.push_back(calibration.sample_ms());
    }
    Stopwatch watch;
    {
      obs::TraceScope span("perfbench.round");
      ledger_round(spec, state, round);
    }
    instance.round_ms.push_back(watch.seconds() * 1e3);
    instance.transactions += spec.lambda;
    instance.node_steps += spec.lambda;
    instance.eval_ms.push_back(0.0);
  }
  {
    Stopwatch watch;
    obs::TraceScope span("perfbench.evaluate", &spans().evaluate);
    Rng rng = state.master.split(0xc0f5).split(state.tangle->size());
    const tangle::TangleView view = state.tangle->view();
    const core::ReferenceResult consensus = core::choose_reference(
        view, state.store, *state.cache->get(view), rng, state.reference);
    instance.consensus_acc = ledger_accuracy(state, consensus.params);
    instance.eval_ms.back() = watch.seconds() * 1e3;
  }
}

void ledger_finish(const WorkloadSpec& spec, LedgerState& state,
                   Instance& instance) {
  instance.wire_bytes_per_tx = 2.0 * sizeof(float);
  instance.ledger_bytes = state.store.live_bytes();
  instance.tip_mean = state.tip_samples > 0
                         ? state.tip_sum / static_cast<double>(state.tip_samples)
                         : 0.0;
  // The reference checksum folds every publisher's Algorithm 1 result into
  // the ledger digest, so a change in reference selection shows there too.
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "%.17g", state.reference_checksum);
  instance.ledger_digest =
      to_hex(Sha256::hash(ledger_digest(*state.tangle) + checksum));
  check_payload_hashes(state.store, instance.failures);
  check_accuracy(spec, instance);
  // Kuśmierz et al.: the stationary tip count is L0 ≈ 2λh (h = 1 round).
  const double lambda = static_cast<double>(spec.lambda);
  if (instance.tip_mean < lambda || instance.tip_mean > 4.0 * lambda) {
    instance.failures.push_back(
        "stationary mean tip count " + std::to_string(instance.tip_mean) +
        " outside the Kusmierz band [lambda, 4 lambda]");
  }
}

// ---------------------------------------------------------------------------
// One instance: set-up, timed loop, registry delta, result checks. The final
// ledger is handed back for the once-per-run invariant audit.

struct InstanceState {
  std::unique_ptr<EngineState> engine;
  std::unique_ptr<LedgerState> ledger;

  const tangle::Tangle& tangle() const {
    return engine ? engine->sim->tangle() : *ledger->tangle;
  }
};

// Set-up of one instance: a fresh registry, dataset and engine (or ledger).
void setup(const WorkloadSpec& spec, std::uint64_t seed, Instance& instance,
           InstanceState& keep) {
  keep = InstanceState{};  // the previous instance's state goes first
  obs::MetricsRegistry::global().reset();
  if (spec.kind == Kind::kEngine) {
    keep.engine = std::make_unique<EngineState>();
    engine_setup(spec, seed, instance, *keep.engine);
  } else {
    keep.ledger = std::make_unique<LedgerState>();
    ledger_setup(spec, seed, instance, *keep.ledger);
  }
}

Instance run_instance(const WorkloadSpec& spec, std::uint64_t seed,
                      Calibration& calibration, InstanceState& keep) {
  Instance instance;
  setup(spec, seed, instance, keep);
  const RegistryValues start = registry_values();
  if (keep.engine) {
    engine_loop(spec, *keep.engine, calibration, instance);
  } else {
    ledger_loop(spec, *keep.ledger, calibration, instance);
  }
  instance.loop_metrics = registry_delta(start, registry_values());
  if (keep.engine) {
    engine_finish(spec, *keep.engine, instance);
  } else {
    ledger_finish(spec, *keep.ledger, instance);
  }
  instance.counters_digest = counters_digest();
  return instance;
}

// ---------------------------------------------------------------------------
// Output.

void write_array(obs::JsonWriter& json, const std::vector<double>& values) {
  json.begin_array();
  for (const double value : values) json.value(value);
  json.end_array();
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Accumulates the instances of one phase (timed or traced) of a run: every
// repeat of every distinct instance, repeat-major, so the first `distinct`
// entries are each instance's first run.
struct Phase {
  std::vector<Instance> instances;

  std::uint64_t node_steps() const {
    std::uint64_t total = 0;
    for (const Instance& e : instances) total += e.node_steps;
    return total;
  }
  // Counters and histograms sum over instances; gauges keep their maximum.
  std::map<std::string, double> loop_metrics() const {
    std::map<std::string, double> total;
    for (const Instance& e : instances) {
      for (const auto& [name, value] : e.loop_metrics.values) {
        double& slot = total[name];
        slot = e.loop_metrics.gauges.count(name) ? std::max(slot, value)
                                                 : slot + value;
      }
    }
    return total;
  }
};

// Instance i of a run draws its inputs from this seed, so a run averages
// over several independent inputs and the same --seed repeats them all.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t instance) {
  Rng rng = Rng(seed).split(instance + 1);
  return rng();
}

Phase run_instances(const WorkloadSpec& spec, std::uint64_t seed,
                    std::size_t repeats, Calibration& calibration,
                    InstanceState& keep) {
  Phase phase;
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < spec.distinct; ++i) {
      phase.instances.push_back(
          run_instance(spec, instance_seed(seed, i), calibration, keep));
      phase.instances.back().distinct = i;
    }
  }
  return phase;
}

std::string combined_digest(const Phase& phase, std::size_t distinct,
                            std::string Instance::*digest) {
  std::string all;
  for (std::size_t i = 0; i < distinct; ++i) all += phase.instances[i].*digest;
  return to_hex(Sha256::hash(all));
}

// Every run of the phase: its distinct instance, transactions and per-round
// times. run.py combines the repeats.
void write_runs(obs::JsonWriter& json, const Phase& phase) {
  json.key("runs");
  json.begin_array();
  for (const Instance& e : phase.instances) {
    json.begin_object();
    json.key("instance");
    json.value(static_cast<std::uint64_t>(e.distinct));
    json.key("transactions");
    json.value(e.transactions);
    json.key("round_ms");
    write_array(json, e.round_ms);
    json.key("eval_ms");
    write_array(json, e.eval_ms);
    json.key("calibration_ms");
    write_array(json, e.calibration_ms);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::string workload =
      args.get_string("workload", "", "workload name");
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "workload seed"));
  const double seconds = args.get_double(
      "seconds", 20.0,
      "measuring budget; sets the instance count, which does not depend on "
      "the machine's speed");
  const bool trace = args.get_int("trace", 0, "1: per-layer traced run") != 0;
  const std::string scale =
      args.get_string("scale", "full", "full | tiny (smoke tests only)");
  const std::string trace_path = args.get_string(
      "trace-out", "perfbench_trace.json", "Chrome trace output (--trace 1)");
  const std::string git =
      args.get_string("git", "unknown", "git revision of the program");
  if (args.should_exit()) return args.help_requested() ? 0 : 2;
  if (scale != "full" && scale != "tiny") {
    std::cerr << "--scale must be full or tiny\n";
    return 2;
  }
  const bool tiny = scale == "tiny";
  const std::vector<WorkloadSpec> specs = workload_specs(tiny);
  const auto found =
      std::find_if(specs.begin(), specs.end(),
                   [&](const WorkloadSpec& s) { return s.name == workload; });
  if (found == specs.end()) {
    std::cerr << "unknown workload '" << workload << "'; known:";
    for (const WorkloadSpec& s : specs) std::cerr << " " << s.name;
    std::cerr << "\n";
    return 2;
  }
  const WorkloadSpec& spec = *found;
  set_log_level(LogLevel::kWarn);

  // The work is a fixed function of --seconds: one instance per
  // instance_seconds of budget, so outputs never depend on machine speed. A
  // traced run times half the repeats untraced, then as many traced.
  const auto budgeted = static_cast<std::size_t>(std::llround(
      seconds / (spec.instance_seconds * static_cast<double>(spec.distinct))));
  const std::size_t repeats =
      std::max(trace ? (budgeted + 1) / 2 : budgeted, std::size_t{1});
  const std::size_t instances = repeats * spec.distinct;

  {
    obs::JsonWriter stamp(0);
    stamp.begin_object();
    stamp.key("workload");
    stamp.value(spec.name);
    stamp.key("seed");
    stamp.value(seed);
    stamp.key("scale");
    stamp.value(scale);
    stamp.key("distinct");
    stamp.value(static_cast<std::uint64_t>(spec.distinct));
    stamp.key("repeats");
    stamp.value(static_cast<std::uint64_t>(repeats));
    stamp.key("git");
    stamp.value(git);
    stamp.key("nproc");
    stamp.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    stamp.key("cpu");
    stamp.value(cpu_model());
    stamp.key("compiler");
    stamp.value(std::string("gcc ") + __VERSION__);
    stamp.key("build_type");
    stamp.value(PERFBENCH_BUILD_TYPE);
    stamp.key("pool_threads");
    stamp.value(static_cast<std::uint64_t>(spec.threads));
    stamp.key("kernel_threads");
    stamp.value(std::uint64_t{0});
    stamp.end_object();
    std::cout << "stamp " << stamp.str() << "\n";
  }

  // Timed phase: obs timing off, no trace sink. Set-up-only repetitions of
  // instance 0 come first, so setup_s is a median over at least
  // spec.min_setups set-ups.
  obs::set_timing_enabled(false);
  obs::set_trace_sink(nullptr);
  InstanceState last;
  std::vector<Instance> setups(
      spec.min_setups > instances ? spec.min_setups - instances : 0);
  for (Instance& instance : setups) {
    setup(spec, instance_seed(seed, 0), instance, last);
  }
  // The lanes the workload keeps busy: the pool threads plus the caller.
  Calibration calibration(spec.kind == Kind::kEngine ? spec.threads + 1 : 1);
  const Phase timed = run_instances(spec, seed, repeats, calibration, last);

  Phase traced;
  if (trace) {
    obs::TraceSink sink(trace_path);
    obs::set_timing_enabled(true);
    obs::set_trace_sink(&sink);
    traced = run_instances(spec, seed, repeats, calibration, last);
    obs::set_trace_sink(nullptr);
    obs::set_timing_enabled(false);
    if (!sink.flush()) {
      std::cerr << "failed to write " << trace_path << "\n";
      return 1;
    }
  }
  const double rss_mb = peak_rss_mb();

  // Checks. Each instance checked its payload hashes, accuracy floor and
  // (ledger) tip band; every repeat, traced or not, must reproduce the first
  // run of its instance bit for bit. The tangle invariants are audited on the last instance
  // only, after the peak RSS reading: the audit's cone matrices are larger
  // than the pruned ledger itself.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Phase& phase, const char* label) {
    for (std::size_t i = 0; i < phase.instances.size(); ++i) {
      const Instance& e = phase.instances[i];
      std::vector<std::string> instance_failures = e.failures;
      const Instance& first = timed.instances[e.distinct];
      if (e.ledger_digest != first.ledger_digest ||
          e.counters_digest != first.counters_digest) {
        instance_failures.push_back("digests differ from the first run");
      }
      attempted += e.round_ms.size();
      if (!instance_failures.empty()) failed += e.round_ms.size();
      for (const std::string& f : instance_failures) {
        failures.push_back(std::string(label) + " instance " +
                           std::to_string(i) + ": " + f);
      }
    }
  };
  account(timed, "timed");
  account(traced, "traced");
  check_invariants(last.tangle(), failures);
  if (!failures.empty() && failed == 0) failed = 1;

  // Deterministic outputs, averaged over the distinct instances.
  double wire_bytes = 0.0;
  double ledger_mb = 0.0;
  double accuracy = 0.0;
  double tip_mean = 0.0;
  for (std::size_t i = 0; i < spec.distinct; ++i) {
    const Instance& e = timed.instances[i];
    wire_bytes += e.wire_bytes_per_tx;
    ledger_mb += static_cast<double>(e.ledger_bytes) / 1e6;
    accuracy += e.consensus_acc;
    tip_mean += e.tip_mean;
  }
  const double n = static_cast<double>(spec.distinct);
  const std::string ledger_sha =
      combined_digest(timed, spec.distinct, &Instance::ledger_digest);
  const std::string counters_sha =
      combined_digest(timed, spec.distinct, &Instance::counters_digest);
  std::cout << "ledger_digest " << ledger_sha << "\n"
            << "counters_digest " << counters_sha << "\n"
            << "instances " << spec.distinct << " x " << repeats
            << " repeats x " << spec.rounds << " rounds, accuracy";
  for (std::size_t i = 0; i < spec.distinct; ++i) {
    std::cout << " " << timed.instances[i].consensus_acc;
  }
  std::cout << "\n";
  for (const std::string& f : failures) std::cout << "CHECK FAILED: " << f << "\n";

  std::vector<double> setup_s;
  std::vector<double> synth_ms;
  std::vector<double> construct_ms;
  std::vector<double> bootstrap_ms;
  setups.insert(setups.end(), timed.instances.begin(), timed.instances.end());
  for (const Instance& e : setups) {
    setup_s.push_back(e.setup_s());
    synth_ms.push_back(e.synth_s * 1e3);
    construct_ms.push_back(e.construct_s * 1e3);
    bootstrap_ms.push_back(e.bootstrap_s * 1e3);
  }

  obs::JsonWriter json(0);
  const auto field = [&json](const char* key, auto value) {
    json.key(key);
    json.value(value);
  };
  const auto array = [&json](const char* key, const std::vector<double>& v) {
    json.key(key);
    write_array(json, v);
  };
  json.begin_object();
  field("workload", spec.name);
  field("seed", seed);
  field("scale", scale);
  field("engine", spec.kind == Kind::kEngine);
  field("instances", static_cast<std::uint64_t>(instances));
  field("rounds_per_instance", static_cast<std::uint64_t>(spec.rounds));
  field("pool_threads", static_cast<std::uint64_t>(spec.threads));
  write_runs(json, timed);
  array("setup_s", setup_s);
  array("synth_ms", synth_ms);
  array("construct_ms", construct_ms);
  array("bootstrap_ms", bootstrap_ms);
  field("peak_rss_mb", rss_mb);
  field("wire_bytes_per_tx", wire_bytes / n);
  field("ledger_mb", ledger_mb / n);
  field("consensus_acc", accuracy / n);
  field("tip_mean", tip_mean / n);
  field("ledger_digest", ledger_sha);
  field("counters_digest", counters_sha);
  field("attempted", attempted);
  field("failed", failed);
  json.key("failures");
  json.begin_array();
  for (const std::string& f : failures) json.value(f);
  json.end_array();
  if (trace) {
    json.key("traced");
    json.begin_object();
    write_runs(json, traced);
    field("node_steps", traced.node_steps());
    json.key("metrics");
    json.begin_object();
    for (const auto& [name, value] : traced.loop_metrics()) field(name.c_str(), value);
    json.end_object();
    json.end_object();
  }
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}
