// Property test for the permutation-test kernel: PermutationReplicates
// (allocation-free AS-159 core, fixed-margin entropies, ln(c) table,
// mode-probability memo) must reproduce, bit for bit, the replicate loop
// built from the public pieces — a fresh Table2D per draw from
// SampleTableWithMargins, scored by Table2D::MutualInformation — and must
// leave the Rng in the same state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "stats/ci_test.h"
#include "stats/contingency.h"
#include "stats/patefield.h"
#include "stats/special_math.h"
#include "util/rng.h"

namespace hypdb {
namespace {

// The replicate loop as Alg. 2 states it, one validated Table2D per draw.
std::vector<double> ReferenceReplicates(const StratifiedTable& table,
                                        const std::vector<int>& strata_idx,
                                        int m, EntropyEstimator est,
                                        Rng& rng) {
  std::vector<double> replicate(std::max(m, 0), 0.0);
  int64_t selected_total = 0;
  int64_t max_stratum_total = 0;
  for (int i : strata_idx) {
    selected_total += table.strata[i].table.total();
    max_stratum_total =
        std::max(max_stratum_total, table.strata[i].table.total());
  }
  if (selected_total == 0 || m <= 0) return replicate;
  const std::vector<double> log_fact = LogFactorialTable(max_stratum_total);
  for (int i : strata_idx) {
    const Table2D& t = table.strata[i].table;
    const double pr_z = static_cast<double>(t.total()) /
                        static_cast<double>(selected_total);
    if (t.total() == 0) continue;
    int nonzero_rows = 0;
    int nonzero_cols = 0;
    for (int64_t v : t.row_margins()) nonzero_rows += v > 0 ? 1 : 0;
    for (int64_t v : t.col_margins()) nonzero_cols += v > 0 ? 1 : 0;
    if (nonzero_rows <= 1 || nonzero_cols <= 1) continue;
    for (int rep = 0; rep < m; ++rep) {
      Table2D sample;
      if (!SampleTableWithMargins(t.row_margins(), t.col_margins(), log_fact,
                                  rng, &sample)
               .ok()) {
        continue;
      }
      replicate[rep] += pr_z * sample.MutualInformation(est);
    }
  }
  return replicate;
}

// One stratum of `rows`×`cols` with about `total` rows spread by random
// weights. `kind` picks a shape the kernel must handle: 0 dense, 1 some
// zero rows and columns, 2 a single non-zero row, 3 a single non-zero
// column.
Table2D RandomStratum(int rows, int cols, int64_t total, int kind, Rng& rng) {
  std::vector<double> row_w(rows);
  std::vector<double> col_w(cols);
  for (double& w : row_w) w = 0.05 + rng.UniformDouble();
  for (double& w : col_w) w = 0.05 + rng.UniformDouble();
  if (kind == 1) {
    for (double& w : row_w) w = rng.Bernoulli(0.3) ? 0.0 : w;
    for (double& w : col_w) w = rng.Bernoulli(0.3) ? 0.0 : w;
    row_w[rng.NextBounded(rows)] = 1.0;  // keep at least one of each
    col_w[rng.NextBounded(cols)] = 1.0;
  } else if (kind == 2) {
    std::fill(row_w.begin(), row_w.end(), 0.0);
    row_w[rng.NextBounded(rows)] = 1.0;
  } else if (kind == 3) {
    std::fill(col_w.begin(), col_w.end(), 0.0);
    col_w[rng.NextBounded(cols)] = 1.0;
  }
  // Cell weights with some row-column interaction, so strata are not all
  // independent tables.
  std::vector<double> cell_w(static_cast<size_t>(rows) * cols);
  double sum = 0.0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      double w = row_w[r] * col_w[c] * (0.5 + rng.UniformDouble());
      cell_w[r * cols + c] = w;
      sum += w;
    }
  }
  Table2D t(rows, cols);
  int64_t placed = 0;
  size_t largest_cell = 0;
  for (size_t k = 0; k < cell_w.size(); ++k) {
    const int64_t v =
        static_cast<int64_t>(static_cast<double>(total) * cell_w[k] / sum);
    (*t.mutable_cells())[k] = v;
    placed += v;
    if (cell_w[k] > cell_w[largest_cell]) largest_cell = k;
  }
  (*t.mutable_cells())[largest_cell] += total - placed;  // rounding rest
  t.RebuildMargins();
  return t;
}

TEST(PermutationReplicatesTest, BitIdenticalToTable2DLoop) {
  Rng gen(20260417);
  int cases = 0;
  int large_cases = 0;
  for (int c = 0; c < 240; ++c) {
    StratifiedTable table;
    // Shapes from 2x2 to 24x6; every 8th case is a 24x6 table with
    // totals near 5000, whose (ia, id, ie) keys outnumber the memo's slots
    // many times over, so slot collisions are exercised.
    const bool large = c % 8 == 0;
    const int rows = large ? 24 : 2 + static_cast<int>(gen.NextBounded(23));
    const int cols = large ? 6 : 2 + static_cast<int>(gen.NextBounded(5));
    const int num_strata = 1 + static_cast<int>(gen.NextBounded(6));
    table.num_t_values = rows;
    table.num_y_values = cols;
    for (int s = 0; s < num_strata; ++s) {
      int64_t total;
      const uint64_t size_class = gen.NextBounded(10);
      if (large) {
        total = 4000 + static_cast<int64_t>(gen.NextBounded(1001));
      } else if (size_class == 0) {
        total = 0;
      } else if (size_class < 4) {
        total = 1 + static_cast<int64_t>(gen.NextBounded(20));
      } else {
        total = static_cast<int64_t>(gen.NextBounded(5001));
      }
      const int kind = large ? 0 : static_cast<int>(gen.NextBounded(4));
      Stratum stratum;
      stratum.z_key = static_cast<uint64_t>(s);
      stratum.table = RandomStratum(rows, cols, total, kind, gen);
      table.total += stratum.table.total();
      table.strata.push_back(std::move(stratum));
    }
    // Every third case tests a sampled selection of strata, sorted as the
    // sampled MIT passes it.
    std::vector<int> strata_idx;
    for (int s = 0; s < num_strata; ++s) {
      if (c % 3 != 0 || gen.Bernoulli(0.5)) strata_idx.push_back(s);
    }
    const int m = large ? 20 : 1 + static_cast<int>(gen.NextBounded(60));
    const EntropyEstimator est = c % 2 == 0 ? EntropyEstimator::kMillerMadow
                                            : EntropyEstimator::kPlugin;
    const uint64_t seed = gen.Next();

    Rng kernel_rng(seed);
    Rng reference_rng(seed);
    const std::vector<double> got =
        PermutationReplicates(table, strata_idx, m, est, kernel_rng);
    const std::vector<double> want =
        ReferenceReplicates(table, strata_idx, m, est, reference_rng);
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << "case " << c << " (" << rows << "x" << cols << ", " << num_strata
        << " strata, m=" << m << ")";
    ASSERT_EQ(kernel_rng.Next(), reference_rng.Next()) << "case " << c;
    ++cases;
    if (large) ++large_cases;
  }
  EXPECT_GE(cases, 200);
  EXPECT_GE(large_cases, 25);
}

TEST(PermutationReplicatesTest, EmptySelectionAndNoPermutations) {
  StratifiedTable table;
  Stratum stratum;
  stratum.table = Table2D(2, 2);
  stratum.table.RebuildMargins();
  table.strata.push_back(stratum);
  Rng rng(3);
  const uint64_t before = Rng(3).Next();
  EXPECT_EQ(PermutationReplicates(table, {0}, 5, EntropyEstimator::kPlugin,
                                  rng),
            std::vector<double>(5, 0.0));
  EXPECT_TRUE(PermutationReplicates(table, {0}, 0, EntropyEstimator::kPlugin,
                                    rng)
                  .empty());
  EXPECT_EQ(rng.Next(), before);  // no draws consumed
}

// The core with a memo against the validated wrapper, draw by draw, on
// shapes the MIT loop never passes it (one row, one column, zero total).
TEST(PermutationReplicatesTest, CoreMatchesWrapperOnEveryShape) {
  const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      margins = {
          {{7}, {3, 4}},           {{2, 5}, {7}},
          {{0, 0}, {0, 0, 0}},     {{5, 0, 3}, {0, 8}},
          {{40, 1, 9}, {25, 25}},  {{1000, 2000, 3000}, {1500, 1500, 3000}},
      };
  ModeProbabilityMemo memo;
  for (const auto& [row_totals, col_totals] : margins) {
    int64_t total = 0;
    for (int64_t r : row_totals) total += r;
    const std::vector<double> log_fact = LogFactorialTable(total);
    Rng core_rng(11);
    Rng wrapper_rng(11);
    std::vector<int64_t> cells(row_totals.size() * col_totals.size(), -1);
    std::vector<int64_t> col_work(col_totals.size() - 1);
    for (int draw = 0; draw < 50; ++draw) {
      ASSERT_TRUE(SampleCellsWithMargins(row_totals, col_totals,
                                         log_fact.data(), core_rng, cells,
                                         col_work, &memo));
      Table2D expected;
      ASSERT_TRUE(SampleTableWithMargins(row_totals, col_totals, log_fact,
                                         wrapper_rng, &expected)
                      .ok());
      ASSERT_EQ(cells, expected.cells());
    }
    EXPECT_EQ(core_rng.Next(), wrapper_rng.Next());
  }
}

}  // namespace
}  // namespace hypdb
