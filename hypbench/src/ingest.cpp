// ingest-mix: writes beside reads.
//
// An in-process HypDbService holds a narrow table of low-cardinality
// categorical columns (~200k rows at start). One closed-loop client runs
// rounds: re-register the starting table and analyze the fixed query set
// once (untimed), then a fixed number of batches, each an AppendRows of
// ~2% of the table followed by one analyze of every query. Rounds repeat
// until --seconds of timed work (appends + analyzes) have passed.
//
// This is the workload that enters the chunked store: every append moves
// the watermark, so the next analyze pays the per-watermark
// Materialized() copy, a discovery refresh and delta patches of the
// cached summaries.
//
// Correctness, after the timed phase: every digest must equal a cold
// serial HypDb::Analyze over the same prefix of rows.
//
// Traced (--trace 1): rounds alternate. Plain rounds analyze with
// trace_level 0; collecting rounds run at the service's default trace
// level, read the RequestStats of each analyze and time the first
// Dataset() after each append (storage.materialize_ms). Every round does
// the same work, so trace.overhead_ratio, the plain over the collecting
// throughput, compares like with like and alternation spreads host
// drift over both.

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "net/json.h"
#include "service/hypdb_service.h"
#include "service/report_digest.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hypbench {
namespace {

using hypdb::Stopwatch;
using Rows = std::vector<std::vector<std::string>>;

const std::vector<std::string> kColumns = {"T", "C", "M", "Z", "O", "N"};
const char kPrefix[] = {'t', 'c', 'm', 'z', '\0', 'n'};

/// One row as codes in kColumns order; compact so the benchmark's own
/// copy of the data barely shows in peak_rss_mb.
using CodeRow = std::array<uint8_t, 6>;

/// Rows of a small causal model: C -> T, C -> O, T -> M -> O, Z -> O, and
/// an independent N. Appended batches come from the same model.
std::vector<CodeRow> NarrowRows(int64_t n, hypdb::Rng* rng) {
  std::vector<CodeRow> rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    const int c = static_cast<int>(rng->NextBounded(4));
    const int t =
        rng->Bernoulli(0.5) ? c % 3 : static_cast<int>(rng->NextBounded(3));
    const int m = rng->Bernoulli(0.2 + 0.25 * t) ? 1 : 0;
    const int z = static_cast<int>(rng->NextBounded(3));
    const int o = rng->Bernoulli(0.15 + 0.1 * c + 0.2 * m + 0.05 * z) ? 1 : 0;
    const int noise = static_cast<int>(rng->NextBounded(3));
    rows.push_back({static_cast<uint8_t>(t), static_cast<uint8_t>(c),
                    static_cast<uint8_t>(m), static_cast<uint8_t>(z),
                    static_cast<uint8_t>(o), static_cast<uint8_t>(noise)});
  }
  return rows;
}

std::string Label(size_t column, uint8_t code) {
  std::string label = std::to_string(code);
  if (kPrefix[column] != '\0') label.insert(label.begin(), kPrefix[column]);
  return label;
}

/// Labels of rows [begin, end), in AppendRows form.
Rows Labels(const std::vector<CodeRow>& rows, size_t begin, size_t end) {
  Rows out;
  out.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < kColumns.size(); ++c) {
      row.push_back(Label(c, rows[r][c]));
    }
    out.push_back(std::move(row));
  }
  return out;
}

hypdb::TablePtr TableFromRows(const std::vector<CodeRow>& rows,
                              size_t count) {
  hypdb::Table table;
  for (size_t c = 0; c < kColumns.size(); ++c) {
    hypdb::ColumnBuilder b(kColumns[c]);
    if (kColumns[c] == "O") {
      b.RegisterLabel("0");
      b.RegisterLabel("1");
    }
    for (size_t r = 0; r < count; ++r) b.Append(Label(c, rows[r][c]));
    if (!table.AddColumn(b.Finish()).ok()) std::abort();
  }
  return hypdb::MakeTable(std::move(table));
}

const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "SELECT T, avg(O) FROM d GROUP BY T",
      "SELECT T, avg(O) FROM d WHERE Z IN ('z0','z1') GROUP BY T",
      "SELECT Z, avg(O) FROM d GROUP BY Z",
  };
  return queries;
}

}  // namespace

int RunIngest(const Args& args, RunResult* result) {
  const int64_t initial = args.toy ? 2000 : 200000;
  const int64_t batch = initial / 50;  // 2% of the starting table
  const int batches = args.toy ? 2 : 10;
  const std::vector<std::string>& queries = Queries();

  // The seeded rows: the benchmark's own model, drawn once, untimed.
  hypdb::Rng rng(args.seed * 0xBF58476D1CE4E5B9ULL + 7);
  const std::vector<CodeRow> rows =
      NarrowRows(initial + batch * batches, &rng);

  // Setup, 15 times: building the starting table through the
  // program's column builders, a fresh service, registration and the
  // warm pass. The last service serves.
  hypdb::TablePtr start;
  std::unique_ptr<hypdb::HypDbService> service;
  std::vector<double> setup;
  auto register_and_warm = [&]() -> bool {
    service->RegisterTable("d", start);
    for (const std::string& sql : queries) {
      if (!service->AnalyzeSql("d", sql).ok()) return false;
    }
    return true;
  };
  for (int rep = 0; rep < 15; ++rep) {
    service.reset();
    start.reset();
    Stopwatch sw;
    start = TableFromRows(rows, initial);
    service = std::make_unique<hypdb::HypDbService>();
    if (!register_and_warm()) {
      std::fprintf(stderr, "ingest warm pass failed\n");
      return 2;
    }
    setup.push_back(sw.ElapsedSeconds());
  }

  // digests[b][q]: the digest of query q after batch b (b = 1..batches),
  // identical in every round; answers[b][q]: how many rounds gave it.
  std::vector<std::vector<std::string>> digests(
      batches + 1, std::vector<std::string>(queries.size()));
  std::vector<std::vector<int64_t>> answers(
      batches + 1, std::vector<int64_t>(queries.size()));
  std::vector<double> analyze_ms;
  std::vector<double> append_ms;
  // Traced rounds only.
  std::vector<double> materialize_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  LayerValues sums;
  double reused = 0;
  int64_t traced_analyzes = 0;
  double plain_wall = 0.0;
  double traced_wall = 0.0;
  int64_t plain_ops = 0;
  int64_t traced_ops = 0;

  // Plain rounds of a traced run analyze with trace_level 0; -1 keeps the
  // service's default.
  auto analyze = [&service](const std::string& sql, int trace_level) {
    hypdb::AnalyzeRequest request;
    request.dataset = "d";
    request.sql = sql;
    hypdb::SubmitOptions submit;
    submit.trace_level = trace_level;
    return service->Wait(service->Submit(std::move(request), submit));
  };

  const double cpu0 = CpuSeconds();
  double timed = 0.0;
  int rounds = 0;
  for (; timed < args.seconds || rounds < (args.trace ? 2 : 1); ++rounds) {
    if (rounds > 0 && !register_and_warm()) {
      std::fprintf(stderr, "ingest re-registration failed\n");
      return 2;
    }
    const bool collect = args.trace && rounds % 2 == 1;
    const int trace_level = args.trace && !collect ? 0 : -1;
    double round_wall = 0.0;
    for (int b = 1; b <= batches; ++b) {
      const Rows slice =
          Labels(rows, initial + batch * (b - 1), initial + batch * b);
      Stopwatch append_sw;
      auto watermark = service->AppendRows("d", slice);
      const double append_s = append_sw.ElapsedSeconds();
      round_wall += append_s;
      result->Attempt(watermark.ok());
      if (!watermark.ok()) continue;
      append_ms.push_back(append_s * 1e3);
      if (collect) {
        Stopwatch materialize_sw;
        auto table = service->Dataset("d");
        const double ms = materialize_sw.ElapsedMillis();
        round_wall += ms / 1e3;
        if (table.ok()) materialize_ms.push_back(ms);
      }
      for (size_t q = 0; q < queries.size(); ++q) {
        Stopwatch sw;
        auto report = analyze(queries[q], trace_level);
        const double seconds = sw.ElapsedSeconds();
        round_wall += seconds;
        result->Attempt(report.ok());
        if (!report.ok()) continue;
        analyze_ms.push_back(seconds * 1e3);
        const std::string digest = hypdb::CanonicalReportDigest(report->report);
        if (digests[b][q].empty()) digests[b][q] = digest;
        if (digests[b][q] == digest) {
          ++answers[b][q];
        } else {
          result->Mismatch("ingest digest changed between rounds: " +
                           queries[q]);
        }
        if (!collect) continue;
        ++traced_analyzes;
        Stopwatch read_sw;
        const WireStats st =
            ReadRequestStats(hypdb::net::ToJson(report->stats), &sums);
        round_wall += read_sw.ElapsedSeconds();
        queue_ms.push_back(st.queue_ms);
        run_ms.push_back(st.run_ms);
        if (st.discovery_reused) {
          ++reused;
        } else {
          sums["stats.ci_tests"] += report->report.discovery.tests_used;
        }
      }
    }
    timed += round_wall;
    const int64_t ops = batches * static_cast<int64_t>(queries.size());
    (collect ? traced_wall : plain_wall) += round_wall;
    (collect ? traced_ops : plain_ops) += ops;
  }
  const double cpu = CpuSeconds() - cpu0;
  const double rss = PeakRssMb();

  // Cold serial reference on every prefix, outside the timed span.
  for (int b = 1; b <= batches; ++b) {
    hypdb::TablePtr prefix = TableFromRows(rows, initial + batch * b);
    for (size_t q = 0; q < queries.size(); ++q) {
      if (digests[b][q].empty()) continue;
      hypdb::HypDb db(prefix, hypdb::HypDbOptions{});
      auto report = db.AnalyzeSql(queries[q]);
      if (!report.ok() ||
          hypdb::CanonicalReportDigest(*report) != digests[b][q]) {
        result->Mismatch("ingest digest differs from cold serial on the "
                         "same prefix: " + queries[q],
                         answers[b][q]);
      }
    }
  }

  std::printf("ingest: %lld rows + %d x %lld appended, %d rounds, %zu "
              "analyzes, %zu appends (p50 %.3f ms), %.3f s timed, %.3f s "
              "cpu\n",
              static_cast<long long>(initial), batches,
              static_cast<long long>(batch), rounds, analyze_ms.size(),
              append_ms.size(), Median(append_ms), timed, cpu);
  if (!args.trace) {
    AddEndToEnd(setup, analyze_ms.size() / timed, analyze_ms, rss,
                result);
    return 0;
  }

  LayerValues layers;
  const double n = std::max<int64_t>(traced_analyzes, 1);
  for (const auto& [k, v] : sums) layers[k] = v / n;
  layers["storage.append_p50_ms"] = Median(append_ms);
  layers["storage.materialize_ms"] = Median(materialize_ms);
  layers["service.queue_ms"] = Median(queue_ms);
  layers["service.run_ms"] = Median(run_ms);
  layers["service.discovery_reuse_ratio"] = reused / n;
  layers["process.cpu_s"] = cpu;
  const double plain_qps = plain_ops / std::max(plain_wall, 1e-9);
  const double traced_qps = traced_ops / std::max(traced_wall, 1e-9);
  layers["trace.overhead_ratio"] = traced_qps > 0 ? plain_qps / traced_qps : 0;
  AddPerLayer(layers, result);
  return 0;
}

}  // namespace hypbench
