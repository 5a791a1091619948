// cold-6k / cold-300k: what an analyst waits for on a first look.
//
// One client runs a fixed panel of distinct group-by queries over the
// flights table, in seeded order, each on a fresh HypDb with default
// options, so nothing is shared between queries. A run repeats whole
// panels while at least half a panel's time is left of --seconds (at
// least one), so every run weighs the same query mix.
//
// Untraced (--trace 0): every query is a cold serial HypDb::Analyze —
// the reference path itself. Its plain answers are recomputed from the
// raw table by the benchmark, and a query repeated in a later panel must
// reproduce its digest.
//
// Traced (--trace 1): each query runs twice. First untraced, as the
// reference digest and time. Then staged through AnalysisSession with
// TimedCountEngine spans injected through SessionHooks: one above each
// CachingCountEngine (engine.count_*) and one above its
// ViewCountProvider (engine.scan_*). The staged digest must equal the
// reference; the session's own stage timers must account for each
// stage span and, with bind and report assembly, for the staged wall
// time; and no stage may contain more engine time than its own duration.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/analysis_session.h"
#include "core/sql_parser.h"
#include "engine/caching_count_engine.h"
#include "service/report_digest.h"
#include "stats/mi_engine.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hypbench {
namespace {

using hypdb::AggQuery;
using hypdb::Rng;
using hypdb::Stopwatch;

/// One query template of the panel: treatment, outcome, WHERE term.
struct Template {
  const char* treatment;
  const char* outcome;
  const char* where_attr;  // "" for the whole table
  std::vector<std::string> where_values;
};

/// The 300k-row panel: six distinct queries, each on a WHERE subset so
/// that one panel takes about 20 s. The templates stay fixed so that
/// every run weighs the same query mix; the run seed permutes the rows
/// and the panel order.
const std::vector<Template>& LargeTemplates() {
  static const std::vector<Template> templates = {
      {"Carrier", "Delayed", "Airport", {"COS", "MFE", "MTJ", "ROC"}},
      {"Carrier", "ArrDelayed", "Airport", {"COS", "MFE", "MTJ", "ROC"}},
      {"DepTimeBlk", "ArrDelayed", "Airport", {"DEN", "ORD", "PHX", "SEA"}},
      {"DayOfWeek", "Delayed", "Carrier", {"AS", "B6", "DL", "WN"}},
      {"Quarter", "ArrDelayed", "Year", {"2015", "2016"}},
      {"Dest", "Delayed", "Airport", {"BOS", "SJC"}},
  };
  return templates;
}

/// The 6k-row panel: eight distinct queries over eight treatments, both
/// outcomes, and WHERE subsets on airports, years and carriers.
const std::vector<Template>& SmallTemplates() {
  static const std::vector<Template> templates = {
      {"Carrier", "Delayed", "Airport", {"COS", "MFE", "MTJ", "ROC"}},
      {"Carrier", "ArrDelayed", "Year", {"2015", "2016"}},
      {"Airport", "Delayed", "", {}},
      {"Year", "Delayed", "Carrier", {"AA", "UA"}},
      {"DepTimeBlk", "ArrDelayed", "Airport", {"DEN", "ORD", "PHX", "SEA"}},
      {"Dest", "Delayed", "Year", {"2016", "2017"}},
      {"Quarter", "ArrDelayed", "", {}},
      {"DayOfWeek", "Delayed", "Carrier", {"AS", "B6", "DL", "WN"}},
  };
  return templates;
}

std::vector<AggQuery> ColdPanel(uint64_t seed, bool large, size_t size) {
  std::vector<AggQuery> panel;
  for (const Template& t : large ? LargeTemplates() : SmallTemplates()) {
    AggQuery q;
    q.table_name = "flights";
    q.treatment = t.treatment;
    q.outcomes = {t.outcome};
    if (*t.where_attr != '\0') q.where.push_back({t.where_attr, t.where_values});
    panel.push_back(std::move(q));
  }
  Rng rng(seed ^ 0xC01DULL);
  for (size_t i = panel.size() - 1; i > 0; --i) {
    std::swap(panel[i], panel[rng.NextBounded(i + 1)]);
  }
  panel.resize(std::min(size, panel.size()));
  return panel;
}

/// Whole panels only, so every run weighs the same mix: another pass runs
/// while at least half a pass's time is left of the run.
bool AnotherPass(double elapsed, int passes, double seconds) {
  return seconds - elapsed >= 0.5 * elapsed / passes;
}

std::string OneLine(std::string sql) {
  std::replace(sql.begin(), sql.end(), '\n', ' ');
  return sql;
}

// ---- traced run ------------------------------------------------------

/// The engine spans of one staged query: every count engine the session
/// asks for is Timed(Caching(Timed(ViewCountProvider))), built exactly as
/// the session's private engines are, with shared totals.
struct EngineSpans {
  std::shared_ptr<SpanTotals> count = std::make_shared<SpanTotals>();
  std::shared_ptr<SpanTotals> scan = std::make_shared<SpanTotals>();
  std::vector<std::shared_ptr<hypdb::CountEngine>> stacks;

  std::shared_ptr<hypdb::CountEngine> Make(const hypdb::TableView& view,
                                           const hypdb::MiEngineOptions& o) {
    auto provider = std::make_shared<hypdb::ViewCountProvider>(
        view, hypdb::ScanKernelOptions(o));
    hypdb::CachingCountEngineOptions caching;
    caching.max_cached_cells = o.max_cached_cells;
    caching.policy = hypdb::MakeCachePolicy(o.materialization);
    auto cache = std::make_shared<hypdb::CachingCountEngine>(
        std::make_shared<TimedCountEngine>(provider, scan), caching);
    auto top = std::make_shared<TimedCountEngine>(cache, count);
    stacks.push_back(top);
    return top;
  }

  hypdb::CountEngineStats Stats() const {
    hypdb::CountEngineStats total;
    for (const auto& s : stacks) total += s->stats();
    return total;
  }
};

}  // namespace

int RunCold(const Args& args, int64_t rows, RunResult* result) {
  // Setup: the program's share of a first look, flights datagen and a
  // HypDb over the table, as a median of several (datagen is ~10 ms at 6k
  // rows, so more of them there). The seeded row permutation and the
  // panel are the benchmark's own and stay outside the stopwatch.
  const hypdb::HypDbOptions defaults;
  std::vector<double> setup;
  hypdb::TablePtr generated;
  const int reps = rows >= 100000 ? 5 : 101;
  for (int rep = 0; rep < reps; ++rep) {
    generated.reset();  // every repetition starts from the same heap
    Stopwatch sw;
    generated = GenerateFlights(rows);
    hypdb::HypDb db(generated, defaults);
    setup.push_back(sw.ElapsedSeconds());
  }
  const hypdb::TablePtr table = PermuteRows(*generated, args.seed);
  generated.reset();
  const std::vector<AggQuery> panel =
      ColdPanel(args.seed, rows >= 100000, args.toy ? 2 : 8);
  std::vector<std::string> sqls;
  for (const AggQuery& q : panel) sqls.push_back(q.ToSql());

  std::map<size_t, std::string> digests;  // panel index -> digest
  // What is wrong with a repeated query's digest, or "".
  auto check_repeat = [&](size_t i, const std::string& digest) {
    auto [it, inserted] = digests.emplace(i, digest);
    return inserted || it->second == digest
               ? std::string()
               : "digest of a repeated cold query changed";
  };

  if (!args.trace) {
    std::vector<double> latency_ms;
    const double cpu0 = CpuSeconds();
    Stopwatch wall;
    double busy = 0.0;
    int passes = 0;
    do {
      for (size_t i = 0; i < panel.size(); ++i) {
        hypdb::HypDb db(table, defaults);
        Stopwatch sw;
        auto report = db.AnalyzeSql(sqls[i]);
        const double seconds = sw.ElapsedSeconds();
        result->Attempt(report.ok());
        if (!report.ok()) {
          std::printf("analyze failed: %s: %s\n", sqls[i].c_str(),
                      report.status().ToString().c_str());
          continue;
        }
        busy += seconds;
        latency_ms.push_back(seconds * 1e3);
        std::printf("query %9.2f ms  %s\n", seconds * 1e3,
                    OneLine(sqls[i]).c_str());
        std::string wrong =
            check_repeat(i, hypdb::CanonicalReportDigest(*report));
        if (wrong.empty()) {
          wrong = CheckPlainAnswers(*table, panel[i], report->plain);
        }
        if (!wrong.empty()) result->Mismatch(wrong + ": " + sqls[i]);
      }
    } while (AnotherPass(wall.ElapsedSeconds(), ++passes, args.seconds));
    const double cpu = CpuSeconds() - cpu0;
    std::printf("cold: %lld rows, %zu-query panel, %zu analyzes, %.3f s "
                "busy, %.3f s cpu\n",
                static_cast<long long>(table->NumRows()), panel.size(),
                latency_ms.size(), busy, cpu);
    AddEndToEnd(setup, busy > 0 ? latency_ms.size() / busy : 0.0,
                latency_ms, PeakRssMb(), result);
    return 0;
  }

  // Traced: reference then staged, per query.
  LayerValues sums;  // summed over staged queries
  double ref_seconds = 0.0;
  double traced_seconds = 0.0;
  int64_t queries = 0;
  double max_gap_ms = 0.0;  // traced wall time no stage timer holds
  const double cpu0 = CpuSeconds();
  Stopwatch wall;
  int passes = 0;
  do {
    for (size_t i = 0; i < panel.size(); ++i) {
      hypdb::HypDb db(table, defaults);
      Stopwatch ref_sw;
      auto reference = db.AnalyzeSql(sqls[i]);
      const double ref_time = ref_sw.ElapsedSeconds();
      result->Attempt(reference.ok());
      if (!reference.ok()) continue;
      const std::string ref_digest =
          hypdb::CanonicalReportDigest(*reference);
      const std::string wrong = check_repeat(i, ref_digest);
      if (!wrong.empty()) result->Mismatch(wrong + ": " + sqls[i]);

      auto parsed = hypdb::ParseAggQuery(sqls[i]);
      // The population engine must aggregate the bound WHERE rows: bind
      // once, outside the traced span, to get their view.
      auto bound = parsed.ok() ? hypdb::BindQuery(table, *parsed)
                               : hypdb::StatusOr<hypdb::BoundQuery>(
                                     parsed.status());
      if (!bound.ok()) {
        result->Attempt(false);
        continue;
      }
      EngineSpans spans;
      hypdb::SessionHooks hooks;
      hooks.population_engine = spans.Make(bound->population,
                                           defaults.engine);
      hooks.context_engine_provider =
          [&spans, &defaults](
              const std::vector<
                  std::pair<std::string, std::vector<std::string>>>&,
              const hypdb::TableView& view) {
            return spans.Make(view, defaults.engine);
          };
      Stopwatch traced_sw;
      auto session =
          hypdb::AnalysisSession::Create(table, *parsed, defaults, hooks);
      const double bind_ms = traced_sw.ElapsedMillis();
      if (!session.ok()) {
        result->Attempt(false);
        continue;
      }
      hypdb::AnalysisSession& s = **session;

      // Each stage in canonical order; engine time is read around it.
      using hypdb::AnalysisStage;
      struct Stage {
        AnalysisStage id;
        std::function<hypdb::Status()> run;
        double ms = 0.0;
        double engine_ms = 0.0;
      };
      Stage stages[] = {
          {AnalysisStage::kAnswers, [&s] { return s.Answers().status(); }},
          {AnalysisStage::kDiscover, [&s] { return s.Discover().status(); }},
          {AnalysisStage::kDetect, [&s] { return s.Detect().status(); }},
          {AnalysisStage::kExplain, [&s] { return s.Explain().status(); }},
          {AnalysisStage::kRewrite, [&s] { return s.Rewrite().status(); }},
      };
      bool ok = true;
      for (Stage& st : stages) {
        const double engine0 = spans.count->Millis();
        Stopwatch sw;
        ok = st.run().ok() && ok;
        st.ms = sw.ElapsedMillis();
        st.engine_ms = spans.count->Millis() - engine0;
      }
      Stopwatch assemble_sw;
      auto report = s.Report();
      const double assemble_ms = assemble_sw.ElapsedMillis();
      const double traced_ms = traced_sw.ElapsedMillis();
      result->Attempt(ok && report.ok());
      if (!ok || !report.ok()) continue;
      if (hypdb::CanonicalReportDigest(*report) != ref_digest) {
        result->Mismatch("staged traced digest differs from cold serial: " +
                         sqls[i]);
      }

      // Accounting, against the session's own stage timers (StageState),
      // which the benchmark's spans do not share: each stage span must
      // contain the session's time for that stage and hold at most a
      // little more (the context split before detection, bookkeeping);
      // bind, the session's stage times and report assembly must add up
      // to the traced wall time; and no stage may hold more engine time
      // than its own duration. Work done outside every stage timer, or
      // counted in two, fails the run.
      auto slack_ms = [](double ms) { return 1.0 + 0.02 * ms; };
      double attributed_ms = bind_ms + assemble_ms;
      for (const Stage& st : stages) {
        const char* name = hypdb::AnalysisStageName(st.id);
        const double inner_ms = s.stage_state(st.id).seconds * 1e3;
        attributed_ms += inner_ms;
        if (inner_ms > st.ms + 1e-6 || st.ms - inner_ms > slack_ms(st.ms)) {
          result->CheckFailed(std::string("session time of stage ") + name +
                              " does not match its span: " + sqls[i]);
        }
        if (st.engine_ms > st.ms + 1e-6) {
          result->CheckFailed(std::string("engine time exceeds stage ") +
                              name + ": " + sqls[i]);
        }
      }
      if (attributed_ms > traced_ms + 1e-6 ||
          traced_ms - attributed_ms > slack_ms(traced_ms)) {
        result->CheckFailed("stage times do not add up to the traced wall "
                            "time: " + sqls[i]);
      }
      max_gap_ms = std::max(max_gap_ms, traced_ms - attributed_ms);

      ref_seconds += ref_time;
      traced_seconds += traced_ms / 1e3;
      ++queries;
      const double engine_ms = spans.count->Millis();
      const double engine_in_stats = stages[1].engine_ms + stages[2].engine_ms;
      const double engine_in_core = engine_ms - engine_in_stats;
      const hypdb::CountEngineStats es = spans.Stats();
      sums["core.bind_ms"] += bind_ms;
      sums["core.answers_ms"] += stages[0].ms;
      sums["core.discover_ms"] += stages[1].ms;
      sums["core.detect_ms"] += stages[2].ms;
      sums["core.explain_ms"] += stages[3].ms;
      sums["core.rewrite_ms"] += stages[4].ms;
      // Core self time: everything outside discovery and detection that
      // the engine spans do not cover — binding, answers, explanation and
      // rewriting read counts through CountBy directly, not through the
      // engine, and that work stays here rather than vanishing.
      sums["core.self_ms"] += bind_ms + stages[0].ms + stages[3].ms +
                              stages[4].ms + assemble_ms - engine_in_core;
      sums["stats.ci_tests"] += report->discovery.tests_used;
      sums["stats.self_ms"] += stages[1].ms + stages[2].ms - engine_in_stats;
      sums["stats.discover_self_ms"] += stages[1].ms - stages[1].engine_ms;
      sums["engine.count_calls"] += spans.count->calls.load();
      sums["engine.count_ms"] += engine_ms;
      sums["engine.scan_calls"] += spans.scan->calls.load();
      sums["engine.scan_ms"] += spans.scan->Millis();
      sums["engine.rows_scanned"] += spans.scan->rows.load();
      sums["engine.cache_hits"] += es.cache_hits;
      sums["engine.marginalizations"] += es.marginalizations;
      sums["engine.predicate_slices"] += es.predicate_slices;
      sums["engine.evictions"] += es.evictions;
      sums["engine.delta_patches"] += es.delta_patches;
    }
  } while (AnotherPass(wall.ElapsedSeconds(), ++passes, args.seconds));

  const double n = std::max<int64_t>(queries, 1);
  std::printf("cold traced: %lld rows, %lld staged queries, %.3f s "
              "reference, %.3f s traced, at most %.3f ms per query outside "
              "the session's stage timers\n",
              static_cast<long long>(table->NumRows()),
              static_cast<long long>(queries), ref_seconds, traced_seconds,
              max_gap_ms);
  // Per-query means; ratios from the run's totals.
  LayerValues layers;
  for (const auto& [k, v] : sums) layers[k] = v / n;
  layers.erase("stats.discover_self_ms");
  layers["stats.us_per_test"] =
      sums["stats.ci_tests"] > 0
          ? sums["stats.discover_self_ms"] * 1e3 / sums["stats.ci_tests"]
          : 0.0;
  layers["engine.share"] =
      traced_seconds > 0 ? sums["engine.count_ms"] / 1e3 / traced_seconds
                         : 0.0;
  layers["process.cpu_s"] = CpuSeconds() - cpu0;
  // Untraced over traced throughput, on the same queries.
  layers["trace.overhead_ratio"] =
      ref_seconds > 0 ? traced_seconds / ref_seconds : 0.0;
  AddPerLayer(layers, result);
  return 0;
}

}  // namespace hypbench
