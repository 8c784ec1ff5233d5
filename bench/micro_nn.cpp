// Micro-benchmarks for the NN substrate: the inner loops every simulated
// training round spends its time in.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "nn/loss.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/stopwatch.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ops.hpp"
#include "nn/params.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace tanglefl;

nn::Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  nn::Tensor t(std::move(shape));
  Rng rng(seed);
  for (auto& v : t.values()) v = static_cast<float>(rng.normal());
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const nn::Tensor a = random_tensor({n, n}, 1);
  const nn::Tensor b = random_tensor({n, n}, 2);
  nn::Tensor c({n, n});
  for (auto _ : state) {
    nn::ops::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const nn::Tensor a = random_tensor({n, n}, 1);
  const nn::Tensor b = random_tensor({n, n}, 2);
  nn::Tensor c({n, n});
  for (auto _ : state) {
    nn::ops::reference::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulReference)->Arg(128)->Arg(256);

// Kernel-pool scaling of one square GEMM; arg = worker count (results are
// bit-identical to the serial kernel by the row-partitioning contract).
void BM_MatmulPool(benchmark::State& state) {
  const std::size_t n = 256;
  const auto workers = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(workers);
  const nn::Tensor a = random_tensor({n, n}, 1);
  const nn::Tensor b = random_tensor({n, n}, 2);
  nn::Tensor c({n, n});
  for (auto _ : state) {
    nn::ops::matmul(a, b, c, &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatmulPool)->Arg(2)->Arg(4);

void BM_Conv2DForward(benchmark::State& state) {
  const auto image = static_cast<std::size_t>(state.range(0));
  const nn::Tensor x = random_tensor({8, 1, image, image}, 1);
  const nn::Tensor w = random_tensor({8, 1, 3, 3}, 2);
  const nn::Tensor bias = random_tensor({8}, 3);
  const nn::ops::Conv2DShape shape{1, 8, 3, 1, 1};
  nn::Tensor y({8, 8, image, image});
  for (auto _ : state) {
    nn::ops::conv2d_forward(x, w, bias, shape, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2DForward)->Arg(12)->Arg(28);

// The paper CNN's two conv layers at batch 10: arg 0 is conv1 (1 -> 8
// channels at 12x12), arg 1 is conv2 (8 -> 16 at 6x6). Both compute dx;
// only a first layer skips it, and in the model that is conv1.
void BM_Conv2DBackward(benchmark::State& state) {
  const bool second = state.range(0) == 1;
  const std::size_t ic = second ? 8 : 1, oc = second ? 16 : 8;
  const std::size_t image = second ? 6 : 12;
  const nn::ops::Conv2DShape shape{ic, oc, 3, 1, 1};
  const nn::Tensor x = random_tensor({10, ic, image, image}, 1);
  const nn::Tensor w = random_tensor({oc, ic, 3, 3}, 2);
  const nn::Tensor dy = random_tensor({10, oc, image, image}, 3);
  nn::Tensor dx(x.shape()), dw(w.shape()), dbias({oc});
  nn::ops::Workspace workspace;
  for (auto _ : state) {
    nn::ops::conv2d_backward(x, w, shape, dy, &dx, dw, dbias, &workspace);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_Conv2DBackward)->Arg(0)->Arg(1);

// One candidate-model probe of robust tip selection: an evaluation forward
// of the paper CNN (12x12, 10 classes) over 5 examples.
void BM_CnnEvalForward(benchmark::State& state) {
  nn::ImageCnnConfig config;
  config.image_size = 12;
  config.num_classes = 10;
  nn::Model model = nn::make_image_cnn(config);
  Rng rng(1);
  model.init(rng);
  const nn::Tensor x = random_tensor({5, 1, 12, 12}, 2);
  for (auto _ : state) {
    const nn::Tensor logits = model.forward(x, false);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_CnnEvalForward);

void BM_CnnTrainStep(benchmark::State& state) {
  nn::ImageCnnConfig config;
  config.image_size = 12;
  config.num_classes = 10;
  nn::Model model = nn::make_image_cnn(config);
  Rng rng(1);
  model.init(rng);
  const nn::Tensor x = random_tensor({10, 1, 12, 12}, 2);
  const std::vector<std::int32_t> labels = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (auto _ : state) {
    model.zero_gradients();
    const nn::Tensor logits = model.forward(x, true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_CnnTrainStep);

void BM_LstmTrainStep(benchmark::State& state) {
  nn::CharLstmConfig config;
  config.vocab_size = 24;
  config.seq_length = 12;
  config.embedding_dim = 12;
  config.hidden_dim = 32;
  nn::Model model = nn::make_char_lstm(config);
  Rng rng(1);
  model.init(rng);
  nn::Tensor x({10, 12});
  for (auto& v : x.values()) v = static_cast<float>(rng.uniform_index(24));
  std::vector<std::int32_t> labels(10);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.uniform_index(24));
  for (auto _ : state) {
    model.zero_gradients();
    const nn::Tensor logits = model.forward(x, true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_LstmTrainStep);

// -------- paper-shape train steps (FEMNIST CNN, Shakespeare LSTM) --------
// arg = kernel-pool workers (0 = serial). BM_MatmulReference above is the
// naive-kernel baseline.

void cnn_train_step_loop(benchmark::State& state, std::size_t workers) {
  nn::ImageCnnConfig config;
  config.image_size = 28;  // FEMNIST shape, Table I batch size 10
  config.num_classes = 62;
  nn::Model model = nn::make_image_cnn(config);
  Rng rng(1);
  model.init(rng);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) {
    pool = std::make_unique<ThreadPool>(workers);
    model.set_kernel_pool(pool.get());
  }
  const nn::Tensor x = random_tensor({10, 1, 28, 28}, 2);
  std::vector<std::int32_t> labels(10);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.uniform_index(62));
  for (auto _ : state) {
    model.zero_gradients();
    const nn::Tensor logits = model.forward(x, true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
  model.set_kernel_pool(nullptr);
}

void BM_TrainStepCNN(benchmark::State& state) {
  cnn_train_step_loop(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_TrainStepCNN)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void lstm_train_step_loop(benchmark::State& state, std::size_t workers) {
  nn::CharLstmConfig config;
  config.vocab_size = 80;  // Shakespeare shape: seq 80, hidden 256
  config.seq_length = 80;
  config.embedding_dim = 8;
  config.hidden_dim = 256;
  nn::Model model = nn::make_char_lstm(config);
  Rng rng(1);
  model.init(rng);
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) {
    pool = std::make_unique<ThreadPool>(workers);
    model.set_kernel_pool(pool.get());
  }
  nn::Tensor x({10, 80});
  for (auto& v : x.values()) v = static_cast<float>(rng.uniform_index(80));
  std::vector<std::int32_t> labels(10);
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.uniform_index(80));
  for (auto _ : state) {
    model.zero_gradients();
    const nn::Tensor logits = model.forward(x, true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.loss);
  }
  model.set_kernel_pool(nullptr);
}

void BM_TrainStepLSTM(benchmark::State& state) {
  lstm_train_step_loop(state, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_TrainStepLSTM)->Arg(0)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ParamAverage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<nn::ParamVector> params(4, nn::ParamVector(n, 1.0f));
  for (auto _ : state) {
    auto avg = nn::average_params(params);
    benchmark::DoNotOptimize(avg.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n * sizeof(float)));
}
BENCHMARK(BM_ParamAverage)->Arg(10000)->Arg(100000);

// The two-parent case is the simulation hot path (num_tips = 2) and takes
// a heap-free fast path inside average_params.
void BM_AverageParams2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const nn::ParamVector a(n, 1.0f);
  const nn::ParamVector b(n, 2.0f);
  const nn::ParamVector* parents[] = {&a, &b};
  for (auto _ : state) {
    auto avg = nn::average_params(
        std::span<const nn::ParamVector* const>(parents));
    benchmark::DoNotOptimize(avg.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * sizeof(float)));
}
BENCHMARK(BM_AverageParams2)->Arg(10000)->Arg(100000);

}  // namespace

// google-benchmark rejects unrecognized flags, so the run manifest is
// requested through the environment instead: set TANGLEFL_METRICS_JSON to a
// path to enable domain-metric timing and write the manifest there.
int main(int argc, char** argv) {
  const char* manifest_path = std::getenv("TANGLEFL_METRICS_JSON");
  if (manifest_path != nullptr && *manifest_path != '\0') {
    tanglefl::obs::MetricsRegistry::global().reset();
    tanglefl::obs::set_timing_enabled(true);
  }
  tanglefl::Stopwatch total;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (manifest_path != nullptr && *manifest_path != '\0') {
    tanglefl::obs::RunManifest manifest;
    manifest.name = "micro_nn";
    manifest.total_seconds = total.seconds();
    const auto snapshot = tanglefl::obs::MetricsRegistry::global().snapshot(
        tanglefl::obs::SnapshotKind::kFull);
    if (!tanglefl::obs::write_manifest(manifest_path, manifest, snapshot)) {
      std::fprintf(stderr, "failed to write run manifest %s\n",
                   manifest_path);
      return 1;
    }
  }
  return 0;
}
