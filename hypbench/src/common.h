// Shared pieces of the HypDB benchmark (hypbench): run arguments, the
// result record every workload fills, percentiles and process counters,
// the flights inputs, and the count-engine span the traced runs insert
// between engine layers.
//
// See hypbench/README.md for the workloads and metrics.

#ifndef HYPBENCH_COMMON_H_
#define HYPBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hypdb.h"
#include "dataframe/table.h"
#include "engine/count_engine.h"
#include "net/json.h"

namespace hypbench {

/// One benchmark run, as given on the command line.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// How long the run measures.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: per-layer metrics from the traced
  /// run.
  bool trace = false;
  /// Smoke-test sizes (`--size toy`): every code path, tiny inputs.
  bool toy = false;
};

/// What one run reports: correctness accounting plus named metrics.
class RunResult {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; `ok` false counts it as failed
  /// (non-2xx, transport error, analyze error).
  void Attempt(bool ok);
  /// `count` wrong answers, already passed to Attempt() as ok: counted as
  /// failed, and the run exits non-zero.
  void Mismatch(const std::string& what, int64_t count = 1);
  /// A check of the benchmark's own accounting failed: the run exits
  /// non-zero, but no operation is counted.
  void CheckFailed(const std::string& what);

  /// Prints one "metric" line per metric, the error rate, and the final
  /// single-line JSON object. Returns the process exit code.
  int Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Layer name -> value of a traced run (see kPerLayerMetrics).
using LayerValues = std::map<std::string, double>;

/// Adds the end-to-end metrics of an untraced run, in BENCHMARK.json
/// order; setup_s is the median of the run's `setup_s` repetitions.
/// `peak_rss_mb` is read when the measured phase ends, before any
/// reference computation.
void AddEndToEnd(const std::vector<double>& setup_s, double throughput_qps,
                 const std::vector<double>& latency_ms, double peak_rss_mb,
                 RunResult* result);

/// Adds every per-layer metric of BENCHMARK.json, in its order, from
/// `values`, deriving engine.cache_ms and engine.scan_per_count. A layer
/// the workload never enters reads 0.
void AddPerLayer(LayerValues values, RunResult* result);

/// What the benchmark reads from one request's wire RequestStats.
struct WireStats {
  double queue_ms = 0.0;
  double run_ms = 0.0;
  /// Discovery was served from the cache or coalesced with a twin.
  bool discovery_reused = false;
};

/// Reads a RequestStats object as the net/json codec renders it: returns
/// queue/run time and discovery reuse, and adds its stage spans
/// (core.*_ms) and engine deltas (engine.*, storage.chunk*) to `sums`.
WireStats ReadRequestStats(const hypdb::net::JsonValue& stats,
                           LayerValues* sums);

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Peak resident set of this process, MiB (getrusage).
double PeakRssMb();
/// User + system CPU seconds of this process so far (getrusage).
double CpuSeconds();

/// The flights generator at `rows` rows (core schema plus two noise
/// columns, the generator's default seed). Setup times this call.
hypdb::TablePtr GenerateFlights(int64_t rows);
/// `table` with its rows permuted by `seed`: the benchmark's own work,
/// kept outside every setup stopwatch.
hypdb::TablePtr PermuteRows(const hypdb::Table& table, uint64_t seed);

/// Recomputes count(*) and avg(outcome) GROUP BY treatment (plus
/// grouping) over the WHERE population row by row from the table's
/// labels and compares them with `answers`. Empty when they agree;
/// otherwise what differs.
std::string CheckPlainAnswers(const hypdb::Table& table,
                              const hypdb::AggQuery& query,
                              const hypdb::QueryAnswers& answers);

/// Totals a TimedCountEngine accumulates; several engines may share one.
struct SpanTotals {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> nanos{0};
  /// Rows in the population of each call (a scan reads all of them).
  std::atomic<int64_t> rows{0};

  double Millis() const { return nanos.load() / 1e6; }
};

/// A transparent count-engine decorator: forwards every call to `base`
/// and adds the calls it served (Counts, Prefetch, CountsDelta) and
/// their wall time to `totals`. Placed above a CachingCountEngine it
/// measures the engine layer as its callers see it; placed below, the
/// scans the cache could not avoid.
class TimedCountEngine : public hypdb::CountEngine {
 public:
  TimedCountEngine(std::shared_ptr<hypdb::CountEngine> base,
                   std::shared_ptr<SpanTotals> totals)
      : base_(std::move(base)), totals_(std::move(totals)) {}

  hypdb::StatusOr<hypdb::GroupCounts> Counts(
      const std::vector<int>& cols) override;
  hypdb::Status Prefetch(const std::vector<int>& cols) override;
  hypdb::StatusOr<hypdb::GroupCounts> CountsDelta(
      const std::vector<int>& cols, int64_t from_version,
      int64_t to_version) override;
  int64_t NumRows() const override { return base_->NumRows(); }
  int64_t PopulationVersion() const override {
    return base_->PopulationVersion();
  }
  int64_t ObservedCellBound(const std::vector<int>& cols) const override {
    return base_->ObservedCellBound(cols);
  }
  hypdb::CacheOccupancy CacheUse() const override {
    return base_->CacheUse();
  }
  hypdb::CountEngineStats stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  void Record(int64_t nanos, int64_t rows);

  std::shared_ptr<hypdb::CountEngine> base_;
  std::shared_ptr<SpanTotals> totals_;
};

// ---- workloads (one file each) ---------------------------------------

/// cold-6k / cold-300k: one client, fresh HypDb per query.
int RunCold(const Args& args, int64_t rows, RunResult* result);
/// serve-mix: closed-loop HTTP clients against an in-process server.
int RunServe(const Args& args, RunResult* result);
/// ingest-mix: appends beside analyzes on one service dataset.
int RunIngest(const Args& args, RunResult* result);

}  // namespace hypbench

#endif  // HYPBENCH_COMMON_H_
