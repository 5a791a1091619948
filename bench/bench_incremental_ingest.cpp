// Incremental ingest gate: appending 10x the initial rows in batches
// and re-analyzing after every batch must (a) keep every report
// bit-identical to a cold full rebuild on the grown table, (b) never
// bump the dataset epoch, and (c) do strictly less scan work than the
// rebuild strategy — cached contingency summaries are delta-patched by
// scanning only the appended rows (Sec. 6's additive-counts argument
// applied over time instead of across queries).
//
// Assertions (exits non-zero on violation):
//  * every post-append report digest == cold serial HypDb on the same
//    prefix of the data, including the final table;
//  * the epoch after all appends equals the registration epoch;
//  * delta patches happened (delta_patches > 0);
//  * a full-table provider over the service's store reads exactly the
//    appended rows per delta scan (rows_scanned grows by the batch
//    size), and prefix + deltas equal a cold scan of the grown table;
//  * the bytes the store copied growing its buffers stay below twice
//    the final code bytes (geometric growth, no per-append copy);
//  * rows scanned across all post-append analyses < rows the measured
//    rebuild-per-batch baseline scanned (a second service that
//    re-registers the grown table each batch, cold-dropping its
//    caches), strictly.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hypdb.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "storage/append_only_count_provider.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace hypdb;
using namespace hypdb::bench;

namespace {

using Rows = std::vector<std::vector<std::string>>;

// Correlated T/O/C binary workload — detection has something to find
// and appended batches shift the distribution, so a stale summary would
// change the report (the digest check has teeth).
Rows SyntheticRows(int64_t n, Rng* rng) {
  Rows rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    const int c = static_cast<int>(rng->NextBounded(2));
    const int t = rng->Bernoulli(0.3) ? 1 - c : c;
    const int o = rng->Bernoulli(0.3) ? c : t;
    rows.push_back(
        {std::to_string(t), std::to_string(o), std::to_string(c)});
  }
  return rows;
}

TablePtr TableFromRows(const Rows& rows) {
  const std::vector<std::string> names = {"T", "O", "C"};
  Table table;
  for (size_t c = 0; c < names.size(); ++c) {
    ColumnBuilder b(names[c]);
    for (const auto& row : rows) b.Append(row[c]);
    auto added = table.AddColumn(b.Finish());
    if (!added.ok()) std::abort();
  }
  return MakeTable(std::move(table));
}

const char kSql[] = "SELECT T, avg(O) FROM d GROUP BY T";

std::string ColdDigest(const Rows& rows) {
  HypDb db(TableFromRows(rows), HypDbOptions{});
  auto report = db.AnalyzeSql(kSql);
  if (!report.ok()) {
    std::printf("cold analyze failed: %s\n",
                report.status().ToString().c_str());
    std::exit(1);
  }
  return CanonicalReportDigest(*report);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = ScaleArg(argc, argv);
  const int64_t initial_rows = static_cast<int64_t>(1000 * scale);
  const int kBatches = 10;  // 10x the initial rows, one initial-size each
  Header("bench_incremental_ingest",
         "Sec. 6 delta-maintained contingency counts under append-only "
         "ingest — patch cached summaries, never rebuild");

  Rng rng(20260808);
  Rows data = SyntheticRows(initial_rows, &rng);
  std::vector<Rows> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(SyntheticRows(initial_rows, &rng));
  }

  HypDbServiceOptions options;
  options.num_workers = 1;  // deterministic scan accounting
  HypDbService service(options);
  const int64_t epoch =
      service.RegisterTable("d", TableFromRows(data));
  auto store = service.registry().Store("d");
  if (!store.ok()) {
    std::printf("store lookup failed\n");
    return 1;
  }
  // A full-table provider over the same store, read only by delta scans:
  // each must read exactly the rows its batch appended, and the running
  // sum of deltas must stay equal to a cold scan of the grown table.
  AppendOnlyCountProvider delta_provider(*store);
  const std::vector<int> kAllCols = {0, 1, 2};
  auto delta_sum = delta_provider.CountsDelta(kAllCols, 0, initial_rows);
  if (!delta_sum.ok()) {
    std::printf("seed delta scan failed\n");
    return 1;
  }
  bool deltas_exact = delta_sum->total == initial_rows;
  const int64_t seed_rows_scanned = delta_provider.stats().rows_scanned;

  // Warm pass on the seed (cold by definition; not part of the gate).
  bool digests_ok = true;
  auto warm = service.AnalyzeSql("d", kSql);
  if (!warm.ok()) {
    std::printf("warm analyze failed: %s\n",
                warm.status().ToString().c_str());
    return 1;
  }
  digests_ok &= CanonicalReportDigest(warm->report) == ColdDigest(data);
  CountEngineStats baseline;
  if (auto s = service.engine_stats("d"); s.ok()) baseline = *s;

  // Append 10x the initial rows in batches, analyzing after each.
  double append_seconds = 0.0;
  double analyze_seconds = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const Rows& batch = batches[b];
    data.insert(data.end(), batch.begin(), batch.end());
    Stopwatch append_watch;
    auto watermark = service.AppendRows("d", batch);
    append_seconds += append_watch.ElapsedSeconds();
    if (!watermark.ok() ||
        *watermark != static_cast<int64_t>(data.size())) {
      std::printf("append %d failed\n", b);
      return 1;
    }
    Stopwatch analyze_watch;
    auto report = service.AnalyzeSql("d", kSql);
    analyze_seconds += analyze_watch.ElapsedSeconds();
    if (!report.ok()) {
      std::printf("analyze after batch %d failed: %s\n", b,
                  report.status().ToString().c_str());
      return 1;
    }
    digests_ok &=
        CanonicalReportDigest(report->report) == ColdDigest(data);

    const int64_t scanned_before = delta_provider.stats().rows_scanned;
    auto delta = delta_provider.CountsDelta(
        kAllCols, *watermark - static_cast<int64_t>(batch.size()),
        *watermark);
    auto cold = ScanCounts(TableView(TableFromRows(data)), kAllCols);
    if (!delta.ok() || !cold.ok()) {
      std::printf("delta scan after batch %d failed\n", b);
      return 1;
    }
    *delta_sum = MergeGroupCounts(*delta_sum, *delta, cold->codec);
    deltas_exact &=
        delta_provider.stats().rows_scanned - scanned_before ==
            static_cast<int64_t>(batch.size()) &&
        delta_sum->keys == cold->keys && delta_sum->counts == cold->counts;
  }

  bool epoch_stable = true;
  for (const DatasetInfo& info : service.Datasets()) {
    epoch_stable &= info.epoch == epoch;
  }

  CountEngineStats stats;
  if (auto s = service.engine_stats("d"); s.ok()) stats = *s;
  const int64_t delta_patches = stats.delta_patches - baseline.delta_patches;
  const int64_t delta_rows_scanned =
      delta_provider.stats().rows_scanned - seed_rows_scanned;
  deltas_exact &= delta_rows_scanned == initial_rows * kBatches;
  const int64_t bytes_copied = (*store)->bytes_copied();
  const int64_t final_code_bytes = static_cast<int64_t>(data.size()) *
                                   (*store)->NumColumns() *
                                   static_cast<int64_t>(sizeof(int32_t));
  const int64_t rows_scanned = stats.rows_scanned - baseline.rows_scanned;

  // Measured rebuild baseline: the pre-ingest strategy — re-register
  // the grown table each batch (epoch bump, cold caches) and analyze.
  // Registration resets the dataset's engines, so each epoch's stats
  // are read right after its analyze and summed here.
  int64_t rows_cold_equivalent = 0;
  double rebuild_seconds = 0.0;
  {
    HypDbService rebuild(options);
    Rows prefix(data.begin(), data.begin() + initial_rows);
    rebuild.RegisterTable("d", TableFromRows(prefix));
    if (!rebuild.AnalyzeSql("d", kSql).ok()) {
      std::printf("rebuild warm analyze failed\n");
      return 1;
    }
    for (int b = 0; b < kBatches; ++b) {
      const Rows& batch = batches[b];
      prefix.insert(prefix.end(), batch.begin(), batch.end());
      rebuild.RegisterTable("d", TableFromRows(prefix));
      Stopwatch watch;
      auto report = rebuild.AnalyzeSql("d", kSql);
      rebuild_seconds += watch.ElapsedSeconds();
      if (!report.ok()) {
        std::printf("rebuild analyze after batch %d failed: %s\n", b,
                    report.status().ToString().c_str());
        return 1;
      }
      if (auto s = rebuild.engine_stats("d"); s.ok()) {
        rows_cold_equivalent += s->rows_scanned;
      }
    }
  }

  Row({"metric", "value"}, 24);
  Row({"initial_rows", std::to_string(initial_rows)}, 24);
  Row({"appended_rows", std::to_string(initial_rows * kBatches)}, 24);
  Row({"delta_patches", std::to_string(delta_patches)}, 24);
  Row({"delta_rows_scanned", std::to_string(delta_rows_scanned)}, 24);
  Row({"bytes_copied", std::to_string(bytes_copied)}, 24);
  Row({"final_code_bytes", std::to_string(final_code_bytes)}, 24);
  Row({"rows_scanned", std::to_string(rows_scanned)}, 24);
  Row({"rows_cold_equivalent", std::to_string(rows_cold_equivalent)}, 24);
  Row({"append_seconds", Fmt("%.4f", append_seconds)}, 24);
  Row({"analyze_seconds", Fmt("%.4f", analyze_seconds)}, 24);
  Row({"rebuild_seconds", Fmt("%.4f", rebuild_seconds)}, 24);

  const bool patched = delta_patches > 0;
  const bool bounded_copies = bytes_copied < 2 * final_code_bytes;
  const bool fewer_rows = rows_scanned < rows_cold_equivalent;
  std::printf("digests bit-identical to cold rebuild: %s\n",
              digests_ok ? "yes" : "NO");
  std::printf("epoch stable across appends:           %s\n",
              epoch_stable ? "yes" : "NO");
  std::printf("summaries delta-patched:               %s\n",
              patched ? "yes" : "NO");
  std::printf("delta scans read exactly appended rows: %s (%lld rows)\n",
              deltas_exact ? "yes" : "NO",
              static_cast<long long>(delta_rows_scanned));
  std::printf("growth copies < 2x final code bytes:   %s (%lld < 2 x %lld)\n",
              bounded_copies ? "yes" : "NO",
              static_cast<long long>(bytes_copied),
              static_cast<long long>(final_code_bytes));
  std::printf("scan work < cold rebuild per batch:    %s (%lld < %lld)\n",
              fewer_rows ? "yes" : "NO",
              static_cast<long long>(rows_scanned),
              static_cast<long long>(rows_cold_equivalent));

  net::JsonValue results = net::JsonValue::MakeObject();
  results.Set("initial_rows", net::JsonValue::Int(initial_rows));
  results.Set("appended_rows",
              net::JsonValue::Int(initial_rows * kBatches));
  results.Set("batches", net::JsonValue::Int(kBatches));
  results.Set("delta_patches", net::JsonValue::Int(delta_patches));
  results.Set("delta_rows_scanned", net::JsonValue::Int(delta_rows_scanned));
  results.Set("deltas_exact", net::JsonValue::Bool(deltas_exact));
  results.Set("bytes_copied", net::JsonValue::Int(bytes_copied));
  results.Set("final_code_bytes", net::JsonValue::Int(final_code_bytes));
  results.Set("rows_scanned", net::JsonValue::Int(rows_scanned));
  results.Set("rows_cold_equivalent",
              net::JsonValue::Int(rows_cold_equivalent));
  results.Set("append_seconds", net::JsonValue::Double(append_seconds));
  results.Set("analyze_seconds", net::JsonValue::Double(analyze_seconds));
  results.Set("rebuild_seconds", net::JsonValue::Double(rebuild_seconds));
  results.Set("digests_ok", net::JsonValue::Bool(digests_ok));
  results.Set("epoch_stable", net::JsonValue::Bool(epoch_stable));
  WriteBenchJson("incremental_ingest", std::move(results));

  if (!digests_ok || !epoch_stable || !patched || !deltas_exact ||
      !bounded_copies || !fewer_rows) {
    std::printf("GATE FAILED\n");
    return 1;
  }
  std::printf("gate passed\n");
  return 0;
}
