#include "stats/entropy.h"

#include <cmath>

namespace hypdb {

namespace {

// The one operation order both entry points share; `log_of(c)` must return
// exactly std::log(static_cast<double>(c)).
template <typename LogOf>
double Entropy(std::span<const int64_t> counts, int64_t total,
               double log_total, EntropyEstimator estimator, LogOf log_of) {
  if (total <= 0) return 0.0;
  const double n = static_cast<double>(total);
  double h = 0.0;
  int64_t support = 0;
  for (int64_t c : counts) {
    if (c <= 0) continue;
    ++support;
    const double dc = static_cast<double>(c);
    h -= dc * (log_of(c) - log_total);
  }
  h /= n;
  if (estimator == EntropyEstimator::kMillerMadow && support > 0) {
    h += static_cast<double>(support - 1) / (2.0 * n);
  }
  return h < 0.0 ? 0.0 : h;
}

}  // namespace

double EntropyFromCounts(const std::vector<int64_t>& counts, int64_t total,
                         EntropyEstimator estimator) {
  if (total <= 0) return 0.0;
  return Entropy(counts, total, std::log(static_cast<double>(total)),
                 estimator, [](int64_t c) {
                   return std::log(static_cast<double>(c));
                 });
}

double EntropyFromLogTable(std::span<const int64_t> counts, int64_t total,
                           double log_total, const double* log_values,
                           EntropyEstimator estimator) {
  return Entropy(counts, total, log_total, estimator,
                 [log_values](int64_t c) { return log_values[c]; });
}

double EntropyOf(const GroupCounts& counts, EntropyEstimator estimator) {
  return EntropyFromCounts(counts.counts, counts.total, estimator);
}

}  // namespace hypdb
