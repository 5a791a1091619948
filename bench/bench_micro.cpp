// Microbenchmarks (google-benchmark) for the primitives every HypDB
// component sits on: group-by counting, entropy estimation, stratified
// summarization, Patefield sampling, the permutation-test replicate loop,
// cached CMI.

#include <benchmark/benchmark.h>

#include "dataframe/group_by.h"
#include "datagen/random_data.h"
#include "stats/ci_test.h"
#include "stats/contingency.h"
#include "stats/mi_engine.h"
#include "stats/patefield.h"
#include "util/rng.h"

namespace hypdb {
namespace {

TablePtr BenchTable(int64_t rows) {
  static std::map<int64_t, TablePtr> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second;
  Rng rng(42);
  RandomDataOptions options;
  options.num_nodes = 8;
  options.min_categories = 4;
  options.max_categories = 8;
  options.num_rows = rows;
  auto ds = GenerateRandomDataset(options, rng);
  TablePtr table = MakeTable(std::move(ds->table));
  cache[rows] = table;
  return table;
}

void BM_CountBy(benchmark::State& state) {
  TablePtr table = BenchTable(state.range(0));
  TableView view(table);
  for (auto _ : state) {
    auto counts = CountBy(view, {0, 1, 2});
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountBy)->Arg(10000)->Arg(100000);

void BM_EntropyCachedCmi(benchmark::State& state) {
  TablePtr table = BenchTable(state.range(0));
  MiEngine engine{TableView(table)};
  for (auto _ : state) {
    auto mi = engine.Mi(0, 1, {2, 3});
    benchmark::DoNotOptimize(mi);
  }
}
BENCHMARK(BM_EntropyCachedCmi)->Arg(100000);

void BM_BuildStratified(benchmark::State& state) {
  TablePtr table = BenchTable(state.range(0));
  TableView view(table);
  for (auto _ : state) {
    auto st = BuildStratified(view, 0, 1, {2, 3});
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildStratified)->Arg(10000)->Arg(100000);

void BM_PatefieldSample(benchmark::State& state) {
  // A 4x4 table with total = range(0).
  int64_t total = state.range(0);
  std::vector<int64_t> rows(4, total / 4);
  std::vector<int64_t> cols(4, total / 4);
  auto sampler = PatefieldSampler::Create(rows, cols);
  Rng rng(7);
  Table2D out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Sample(rng, &out));
  }
}
BENCHMARK(BM_PatefieldSample)->Arg(1000)->Arg(100000);

void BM_MitTest(benchmark::State& state) {
  TablePtr table = BenchTable(50000);
  MiEngine engine{TableView(table)};
  CiOptions options;
  options.method = CiMethod::kMitSampled;
  options.permutations = static_cast<int>(state.range(0));
  CiTester tester(&engine, options, 1);
  for (auto _ : state) {
    auto r = tester.Test(0, 1, {2});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MitTest)->Arg(100)->Arg(1000);

void BM_MitReplicates(benchmark::State& state) {
  // Full strata (no sampling) of one shape, as the flights panels produce
  // them: 0 = 14x2, 1 = 7x4, 2 = 24x2, eight strata with totals spread
  // over ~50-500. Items are replicate tables, so items/s tracks the
  // per-replicate cost of PermutationReplicates.
  static constexpr int kShapes[][2] = {{14, 2}, {7, 4}, {24, 2}};
  const int rows = kShapes[state.range(0)][0];
  const int cols = kShapes[state.range(0)][1];
  constexpr int kStrata = 8;
  constexpr int kReplicates = 100;
  Rng gen(5);
  StratifiedTable table;
  table.num_t_values = rows;
  table.num_y_values = cols;
  for (int s = 0; s < kStrata; ++s) {
    const int64_t total = 50 + 450 * s / (kStrata - 1);
    Stratum stratum;
    stratum.z_key = static_cast<uint64_t>(s);
    stratum.table = Table2D(rows, cols);
    for (int64_t k = 0; k < total; ++k) {
      stratum.table.Add(static_cast<int>(gen.NextBounded(rows)),
                        static_cast<int>(gen.NextBounded(cols)), 1);
    }
    stratum.table.RebuildMargins();
    table.total += total;
    table.strata.push_back(std::move(stratum));
  }
  std::vector<int> all(kStrata);
  for (int s = 0; s < kStrata; ++s) all[s] = s;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PermutationReplicates(
        table, all, kReplicates, EntropyEstimator::kMillerMadow, rng));
  }
  state.SetItemsProcessed(state.iterations() * kStrata * kReplicates);
}
BENCHMARK(BM_MitReplicates)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace hypdb

BENCHMARK_MAIN();
