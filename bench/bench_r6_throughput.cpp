// R6 (Figure): data-plane efficiency — per-packet decision cost of the
// compiled rule table vs running the classifiers in software.
//
// google-benchmark micro-latencies. Expected shape: the table lookup is
// orders of magnitude cheaper than MLP inference and substantially cheaper
// than tree/kNN — the reason the paper pushes the decision into the switch.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/evaluation.h"
#include "ml/knn.h"
#include "ml/mlp_classifier.h"

using namespace p4iot;

namespace {

nn::MlpConfig fixture_mlp_config() {
  nn::MlpConfig config;
  config.hidden_sizes = {64, 32};
  config.epochs = 10;
  return config;
}

struct Fixture {
  pkt::Trace test;
  core::TwoStagePipeline pipeline;
  p4::P4Switch gateway{p4::P4Program{}, 1};
  ml::DecisionTree tree;
  ml::MlpClassifier mlp{fixture_mlp_config()};
  ml::KnnClassifier knn;
  std::vector<std::vector<double>> samples;

  Fixture() {
    auto options = bench::standard_options();
    // 10 s of synthetic traffic is plenty for micro-latency sampling; the
    // fixture (dataset + four model fits) otherwise dominates bench startup.
    options.duration_s = 10.0;
    const auto trace = gen::make_dataset(gen::DatasetId::kWifiIp, options);
    auto [train, test_split] = bench::split_dataset(trace);
    test = std::move(test_split);

    pipeline = core::TwoStagePipeline(bench::standard_pipeline(4));
    pipeline.fit(train);
    gateway = pipeline.make_switch();

    const auto train_bytes = ml::bytes_dataset(train, bench::kWindowBytes);
    tree.fit(train_bytes);
    mlp.fit(train_bytes);
    knn.fit(train_bytes);

    samples.reserve(test.size());
    for (const auto& p : test.packets()) {
      const auto window = pkt::header_window(p, bench::kWindowBytes);
      samples.emplace_back(window.begin(), window.end());
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_P4SwitchProcess(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.gateway.process(f.test[i]));
    i = (i + 1) % f.test.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_P4TableLookupOnly(benchmark::State& state) {
  auto& f = fixture();
  // Pre-parsed key values: isolates the TCAM-model match cost.
  std::vector<std::vector<std::uint64_t>> keys;
  for (const auto& p : f.test.packets())
    keys.push_back(f.gateway.program().parser.extract(p.view()));
  std::size_t i = 0;
  auto& table = f.gateway.mutable_table();
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i]));
    i = (i + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_DecisionTreePredict(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tree.predict(f.samples[i]));
    i = (i + 1) % f.samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MlpPredict(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.mlp.predict(f.samples[i]));
    i = (i + 1) % f.samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_KnnPredict(benchmark::State& state) {
  auto& f = fixture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.knn.predict(f.samples[i]));
    i = (i + 1) % f.samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_P4SwitchProcess);
BENCHMARK(BM_P4TableLookupOnly);
BENCHMARK(BM_DecisionTreePredict);
BENCHMARK(BM_MlpPredict);
BENCHMARK(BM_KnnPredict);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== R6: Per-packet decision cost (software model) ==\n");
  std::printf(
      "Note: on a hardware target the generated rules run at line rate "
      "(%zu pipeline cycles, %zu-bit TCAM key); the software numbers below "
      "show the relative cost of making the same decision host-side.\n\n",
      fixture().gateway.pipeline_cycles(),
      fixture().gateway.table().key_bits());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
