// Entropy estimation from counts (paper Sec. 2 / Appendix 10.1).
//
// All entropies are in nats (natural log). The population distribution Pr
// is unknown; entropies are estimated from the sample, optionally with the
// Miller-Madow bias correction Ĥ_MM = Ĥ_plugin + (m-1)/(2n) where m is the
// number of distinct observed values.

#ifndef HYPDB_STATS_ENTROPY_H_
#define HYPDB_STATS_ENTROPY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "dataframe/group_by.h"

namespace hypdb {

enum class EntropyEstimator {
  kPlugin,       // empirical -Σ p̂ log p̂
  kMillerMadow,  // plugin + (m-1)/(2n)
};

/// Entropy of the empirical distribution given by `counts` over `total`
/// observations. Zero counts are permitted and ignored; `m` counts only
/// strictly-positive cells. Returns 0 for total <= 0.
double EntropyFromCounts(const std::vector<int64_t>& counts, int64_t total,
                         EntropyEstimator estimator);

/// EntropyFromCounts with every ln(c) read from `log_values`
/// (log_values[c] == std::log(c) for each positive count c, as filled by
/// LogFactorialTable) and ln(total) passed in as `log_total`. The operation
/// order is EntropyFromCounts' own, so the result is bit-identical; the
/// permutation test uses it to drop a std::log per cell per replicate.
double EntropyFromLogTable(std::span<const int64_t> counts, int64_t total,
                           double log_total, const double* log_values,
                           EntropyEstimator estimator);

/// Entropy of a GroupCounts summary (one group = one support point).
double EntropyOf(const GroupCounts& counts, EntropyEstimator estimator);

}  // namespace hypdb

#endif  // HYPDB_STATS_ENTROPY_H_
