// MiEngine: cached entropy / (conditional) mutual-information estimation.
//
// Implements the paper's Sec. 6 optimizations on top of the CountEngine
// subsystem (src/engine):
//  * "Caching entropy"      — per attribute set the engine memoizes the
//    plugin entropy together with the support size (# distinct tuples);
//    the Miller-Madow correction and test degrees-of-freedom derive from
//    the same entry. The many CMI statements issued by the CD algorithm
//    share most of their entropies (e.g. H(T), H(TZ) appear in both
//    I(T;Y|Z) and I(T;W|Z)).
//  * "Materializing contingency tables" — counts flow through a
//    CachingCountEngine: SetFocus() prefetches one count(*) GROUP BY over
//    a focus attribute set, and any subset query marginalizes a cached
//    summary instead of re-scanning the data.
// Both optimizations are individually toggleable for the Fig. 6(c)
// ablation. The base engine is swappable, so a pre-computed OLAP cube can
// replace data scans entirely (Fig. 6(d)).

#ifndef HYPDB_STATS_MI_ENGINE_H_
#define HYPDB_STATS_MI_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "stats/entropy.h"
#include "util/statusor.h"

namespace hypdb {

struct MiEngineOptions {
  bool cache_entropies = true;
  /// Count caching + superset marginalization (CachingCountEngine layer).
  bool materialize_focus = true;
  EntropyEstimator estimator = EntropyEstimator::kMillerMadow;
  /// Worker threads for data scans (ViewCountProvider kernel). 0 resolves
  /// to std::thread::hardware_concurrency() — the production setting the
  /// service layer and `hypdb_cli --threads=0` use.
  int scan_threads = 1;
  /// Budget for the count cache, in total cached groups.
  int64_t max_cached_cells = int64_t{1} << 22;
  /// Materialization policy for every caching layer this configuration
  /// builds (MiEngine's private cache, the registry's parent and shard
  /// caches, the slicer's admission guard): kStatic is the historical
  /// oldest-first / domain-bound behavior, kAdaptive ranks retention by
  /// benefit-per-cell, admits on observed cells, and (at the service
  /// layer) enables the cube advisor and batch union planning. Wire key
  /// `materialization`, CLI `--materialization=static|adaptive`.
  MaterializationMode materialization = MaterializationMode::kStatic;
};

/// The scan-kernel configuration a MiEngineOptions implies. The single
/// translation every layer uses (MiEngine's private engines, session
/// per-context engines, the dataset registry's shard pools), so the
/// whole stack rides the same kernel path.
inline GroupByKernelOptions ScanKernelOptions(const MiEngineOptions& options) {
  GroupByKernelOptions kernel;
  kernel.num_threads = options.scan_threads;
  return kernel;
}

/// Estimates entropies and conditional mutual information over one view.
class MiEngine {
 public:
  /// Engine over `view` with the default scan-based count engine.
  explicit MiEngine(TableView view, MiEngineOptions options = {});

  /// Engine with a custom count source (e.g. CubeCountProvider). `view`
  /// must describe the same population the source aggregates. The source
  /// is wrapped in a CachingCountEngine unless materialization is off or
  /// `wrap_provider` is false — pass false for a provider that already
  /// caches (the service layer's shared per-subpopulation engines), so a
  /// private cache does not shadow the shared one.
  MiEngine(TableView view, std::shared_ptr<CountEngine> provider,
           MiEngineOptions options = {}, bool wrap_provider = true);

  /// Ĥ(cols) with the engine's default estimator.
  StatusOr<double> Entropy(const std::vector<int>& cols);
  StatusOr<double> Entropy(const std::vector<int>& cols,
                           EntropyEstimator estimator);

  /// Number of distinct tuples of `cols` in the view (|Π_cols(D)|).
  StatusOr<int64_t> Support(const std::vector<int>& cols);

  /// Ĥ(of | given) = Ĥ(of ∪ given) - Ĥ(given), clamped at 0.
  StatusOr<double> CondEntropy(const std::vector<int>& of,
                               const std::vector<int>& given);

  /// Î(x ; y | z), clamped at 0.
  StatusOr<double> Mi(int x, int y, const std::vector<int>& z);
  StatusOr<double> Mi(int x, int y, const std::vector<int>& z,
                      EntropyEstimator estimator);

  /// Set version: Î(xs ; ys | z) = H(xs z) + H(ys z) - H(xs ys z) - H(z).
  StatusOr<double> MiSets(const std::vector<int>& xs,
                          const std::vector<int>& ys,
                          const std::vector<int>& z);
  StatusOr<double> MiSets(const std::vector<int>& xs,
                          const std::vector<int>& ys,
                          const std::vector<int>& z,
                          EntropyEstimator estimator);

  /// Raw counts for `cols` (any order) through the count engine — the
  /// path CI tests use to build stratified contingency tables.
  StatusOr<GroupCounts> CountsFor(const std::vector<int>& cols);

  /// Prefetches counts over `cols`; subsequent queries over subsets of
  /// `cols` marginalize the cached summary instead of scanning. No-op
  /// when materialization is disabled.
  Status SetFocus(const std::vector<int>& cols);

  const TableView& view() const { return view_; }
  const MiEngineOptions& options() const { return options_; }
  int64_t NumRows() const { return engine_->NumRows(); }

  /// The count engine answering this estimator's queries.
  CountEngine& count_engine() { return *engine_; }
  const CountEngine& count_engine() const { return *engine_; }

  /// --- instrumentation (Fig. 6a / 6c) ---
  int64_t entropy_evals() const { return entropy_evals_; }
  int64_t cache_hits() const { return cache_hits_; }
  int64_t provider_calls() const { return provider_calls_; }
  void ResetStats() { entropy_evals_ = cache_hits_ = provider_calls_ = 0; }

 private:
  struct Entry {
    double plugin_entropy = 0.0;
    int64_t support = 0;
  };

  StatusOr<Entry> Lookup(std::vector<int> sorted_cols);
  double Derive(const Entry& e, EntropyEstimator estimator) const;

  TableView view_;
  std::shared_ptr<CountEngine> engine_;
  MiEngineOptions options_;
  std::map<std::vector<int>, Entry> cache_;
  int64_t entropy_evals_ = 0;
  int64_t cache_hits_ = 0;
  int64_t provider_calls_ = 0;
};

}  // namespace hypdb

#endif  // HYPDB_STATS_MI_ENGINE_H_
