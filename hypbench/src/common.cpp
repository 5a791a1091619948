#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "datagen/flight_data.h"
#include "util/rng.h"

namespace hypbench {

using hypdb::AggQuery;
using hypdb::QueryAnswers;
using hypdb::Table;

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunResult::Attempt(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void RunResult::Mismatch(const std::string& what, int64_t count) {
  failed_ += count;
  correct_ = false;
  std::printf("MISMATCH: %s\n", what.c_str());
}

void RunResult::CheckFailed(const std::string& what) {
  correct_ = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

int RunResult::Print() const {
  for (const Entry& m : metrics_) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const int64_t attempted = std::max<int64_t>(attempted_, 1);
  std::printf("error_rate %.6g ratio (%lld failed of %lld attempted)\n",
              static_cast<double>(failed_) / attempted,
              static_cast<long long>(failed_),
              static_cast<long long>(attempted_));
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

namespace {

// Every per-layer metric, with its unit, in BENCHMARK.json order.
constexpr std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"core.bind_ms", "ms"},
    {"core.answers_ms", "ms"},
    {"core.discover_ms", "ms"},
    {"core.detect_ms", "ms"},
    {"core.explain_ms", "ms"},
    {"core.rewrite_ms", "ms"},
    {"core.self_ms", "ms"},
    {"stats.ci_tests", "count"},
    {"stats.self_ms", "ms"},
    {"stats.us_per_test", "us"},
    {"engine.count_calls", "count"},
    {"engine.count_ms", "ms"},
    {"engine.scan_calls", "count"},
    {"engine.scan_ms", "ms"},
    {"engine.cache_ms", "ms"},
    {"engine.scan_per_count", "ratio"},
    {"engine.share", "ratio"},
    {"engine.rows_scanned", "count"},
    {"engine.cache_hits", "count"},
    {"engine.marginalizations", "count"},
    {"engine.predicate_slices", "count"},
    {"engine.evictions", "count"},
    {"engine.delta_patches", "count"},
    {"storage.append_p50_ms", "ms"},
    {"storage.materialize_ms", "ms"},
    {"storage.chunk_scans", "count"},
    {"storage.chunks_skipped", "count"},
    {"service.queue_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.discovery_reuse_ratio", "ratio"},
    {"net.overhead_ms", "ms"},
    {"net.serialize_ms", "ms"},
    {"net.response_bytes", "bytes"},
    {"process.cpu_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

void AddEndToEnd(const std::vector<double>& setup_s, double throughput_qps,
                 const std::vector<double>& latency_ms, double peak_rss_mb,
                 RunResult* result) {
  std::printf("setup samples: %zu, %.6f .. %.6f s\n", setup_s.size(),
              Quantile(setup_s, 0.0), Quantile(setup_s, 1.0));
  std::printf("latency samples: %zu\n", latency_ms.size());
  result->Metric("setup_s", Median(setup_s), "s");
  result->Metric("throughput_qps", throughput_qps, "1/s");
  result->Metric("latency_p50_ms", Median(latency_ms), "ms");
  result->Metric("latency_p90_ms", Quantile(latency_ms, 0.9), "ms");
  result->Metric("peak_rss_mb", peak_rss_mb, "MiB");
}

void AddPerLayer(LayerValues values, RunResult* result) {
  // Derived from the engine spans and counters.
  values["engine.cache_ms"] =
      values["engine.count_ms"] - values["engine.scan_ms"];
  values["engine.scan_per_count"] =
      values["engine.count_calls"] > 0
          ? values["engine.scan_calls"] / values["engine.count_calls"]
          : 0.0;
  for (const auto& [name, unit] : kPerLayerMetrics) {
    auto it = values.find(name);
    result->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& m : kPerLayerMetrics) known |= name == m.first;
    if (!known) result->CheckFailed("unlisted per-layer metric " + name);
  }
}

namespace {
double Number(const hypdb::net::JsonValue* v) {
  return v != nullptr && v->is_number() ? v->number_value() : 0.0;
}
}  // namespace

WireStats ReadRequestStats(const hypdb::net::JsonValue& stats,
                           LayerValues* sums) {
  WireStats out;
  out.queue_ms = Number(stats.Find("queue_seconds")) * 1e3;
  out.run_ms = Number(stats.Find("run_seconds")) * 1e3;
  const hypdb::net::JsonValue* discovery = stats.Find("discovery");
  out.discovery_reused =
      discovery != nullptr && discovery->string_value() != "computed";
  constexpr std::pair<const char*, const char*> kSpans[] = {
      {"discovery", "core.discover_ms"},
      {"detect", "core.detect_ms"},
      {"explain", "core.explain_ms"},
      {"rewrite", "core.rewrite_ms"},
  };
  if (const auto* trace = stats.Find("trace"); trace && trace->is_array()) {
    for (const hypdb::net::JsonValue& span : trace->array()) {
      const hypdb::net::JsonValue* name = span.Find("span");
      for (const auto& [wire, metric] : kSpans) {
        if (name != nullptr && name->string_value() == wire) {
          (*sums)[metric] += Number(span.Find("seconds")) * 1e3;
        }
      }
    }
  }
  constexpr std::pair<const char*, const char*> kDeltas[] = {
      {"queries", "engine.count_calls"},
      {"scans", "engine.scan_calls"},
      {"rows_scanned", "engine.rows_scanned"},
      {"cache_hits", "engine.cache_hits"},
      {"marginalizations", "engine.marginalizations"},
      {"predicate_slices", "engine.predicate_slices"},
      {"evictions", "engine.evictions"},
      {"delta_patches", "engine.delta_patches"},
      {"chunk_scans", "storage.chunk_scans"},
      {"chunks_skipped", "storage.chunks_skipped"},
  };
  if (const auto* delta = stats.Find("engine_delta")) {
    for (const auto& [wire, metric] : kDeltas) {
      (*sums)[metric] += Number(delta->Find(wire));
    }
  }
  return out;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

hypdb::TablePtr GenerateFlights(int64_t rows) {
  // The generator's own default seed: the logical table is the same in
  // every run (see README.md, "Seeds").
  hypdb::FlightDataOptions options;
  options.num_rows = rows;
  options.num_noise_columns = 2;
  auto generated = hypdb::GenerateFlightData(options);
  if (!generated.ok()) {
    std::fprintf(stderr, "flights datagen failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(2);
  }
  return hypdb::MakeTable(std::move(*generated));
}

hypdb::TablePtr PermuteRows(const Table& table, uint64_t seed) {
  const int64_t rows = table.NumRows();
  std::vector<int64_t> order(rows);
  for (int64_t i = 0; i < rows; ++i) order[i] = i;
  hypdb::Rng rng(seed ^ 0x0DE7ULL);
  for (int64_t i = rows - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(static_cast<uint64_t>(i + 1))]);
  }
  Table shuffled;
  for (int c = 0; c < table.NumColumns(); ++c) {
    const hypdb::Column& column = table.column(c);
    std::vector<int32_t> codes(rows);
    for (int64_t i = 0; i < rows; ++i) codes[i] = column.CodeAt(order[i]);
    auto added = shuffled.AddColumn(
        hypdb::Column(column.name(), column.dict(), std::move(codes)));
    if (!added.ok()) std::exit(2);
  }
  return hypdb::MakeTable(std::move(shuffled));
}

std::string CheckPlainAnswers(const Table& table, const AggQuery& query,
                              const QueryAnswers& answers) {
  auto index = [&table](const std::string& name) {
    auto i = table.ColumnIndex(name);
    return i.ok() ? *i : -1;
  };
  const int t = index(query.treatment);
  std::vector<int> grouping;
  for (const auto& g : query.grouping) grouping.push_back(index(g));
  if (t < 0 || query.outcomes.empty()) return "unknown treatment/outcome";
  std::vector<int> outcomes;
  for (const auto& y : query.outcomes) outcomes.push_back(index(y));
  std::vector<std::pair<int, std::vector<std::string>>> where;
  for (const auto& [attr, values] : query.where) {
    where.push_back({index(attr), values});
  }

  // (context labels, treatment label) -> (count, outcome sums).
  struct Acc {
    int64_t count = 0;
    std::vector<double> sums;
  };
  std::map<std::pair<std::vector<std::string>, std::string>, Acc> groups;
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    bool selected = true;
    for (const auto& [col, values] : where) {
      const std::string& label = table.column(col).LabelAt(r);
      if (std::find(values.begin(), values.end(), label) == values.end()) {
        selected = false;
        break;
      }
    }
    if (!selected) continue;
    std::vector<std::string> context;
    for (int g : grouping) context.push_back(table.column(g).LabelAt(r));
    Acc& acc = groups[{context, table.column(t).LabelAt(r)}];
    acc.sums.resize(outcomes.size());
    ++acc.count;
    for (size_t o = 0; o < outcomes.size(); ++o) {
      acc.sums[o] += std::atof(table.column(outcomes[o]).LabelAt(r).c_str());
    }
  }

  size_t seen = 0;
  for (const auto& ctx : answers.contexts) {
    for (const auto& g : ctx.groups) {
      auto it = groups.find({ctx.context_labels, g.treatment_label});
      if (it == groups.end()) return "unexpected group " + g.treatment_label;
      if (it->second.count != g.count) {
        return "count of group " + g.treatment_label + " differs";
      }
      for (size_t o = 0; o < g.averages.size() && o < outcomes.size(); ++o) {
        const double expected =
            it->second.sums[o] / static_cast<double>(it->second.count);
        if (std::fabs(expected - g.averages[o]) >
            1e-9 * std::max(1.0, std::fabs(expected))) {
          return "average of group " + g.treatment_label + " differs";
        }
      }
      ++seen;
    }
  }
  if (seen != groups.size()) return "answers miss some groups";
  return "";
}

void TimedCountEngine::Record(int64_t nanos, int64_t rows) {
  totals_->calls.fetch_add(1, std::memory_order_relaxed);
  totals_->nanos.fetch_add(nanos, std::memory_order_relaxed);
  totals_->rows.fetch_add(rows, std::memory_order_relaxed);
}

namespace {
int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

hypdb::StatusOr<hypdb::GroupCounts> TimedCountEngine::Counts(
    const std::vector<int>& cols) {
  const int64_t start = NowNanos();
  auto counts = base_->Counts(cols);
  Record(NowNanos() - start, base_->NumRows());
  return counts;
}

hypdb::Status TimedCountEngine::Prefetch(const std::vector<int>& cols) {
  const int64_t start = NowNanos();
  hypdb::Status status = base_->Prefetch(cols);
  Record(NowNanos() - start, base_->NumRows());
  return status;
}

hypdb::StatusOr<hypdb::GroupCounts> TimedCountEngine::CountsDelta(
    const std::vector<int>& cols, int64_t from_version, int64_t to_version) {
  const int64_t start = NowNanos();
  auto counts = base_->CountsDelta(cols, from_version, to_version);
  Record(NowNanos() - start, to_version - from_version);
  return counts;
}

}  // namespace hypbench
