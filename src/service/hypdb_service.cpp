#include "service/hypdb_service.h"

#include "core/sql_parser.h"
#include "engine/caching_count_engine.h"
#include "engine/groupby_kernel.h"
#include "util/build_info.h"
#include "util/trace.h"

namespace hypdb {
namespace {

DatasetRegistryOptions RegistryOptions(const HypDbServiceOptions& o) {
  DatasetRegistryOptions out;
  out.engine = o.analysis.engine;
  out.max_shards_per_dataset = o.max_shards_per_dataset;
  out.cross_shard_slicing = o.cross_shard_slicing;
  out.advisor_interval_seconds = o.advisor_interval_seconds;
  return out;
}

DiscoveryCacheOptions DiscoveryOptions(const HypDbServiceOptions& o) {
  DiscoveryCacheOptions out;
  out.max_entries = o.max_discovery_entries;
  out.refresh_rows_fraction = o.refresh_rows_fraction;
  return out;
}

/// Pins a session's shared shard engine to the session's bind-time
/// watermark. The registry's shared engines are *live* — they answer at
/// the store's current watermark — but a session's population is fixed
/// when the query binds; an append between stages must not leak new rows
/// into its counts (the staged digest invariant). Each call validates the
/// shared engine's version before AND after delegating: the watermark is
/// monotone, so matching twice means it was the bind watermark throughout
/// the call. Once the store advances, calls permanently degrade to a
/// lazily-built private cached-scan stack over the pinned bind-time view
/// — bit-identical counts either way, just no cross-session pooling.
class WatermarkGuardEngine : public CountEngine {
 public:
  WatermarkGuardEngine(std::shared_ptr<CountEngine> shared,
                       int64_t bind_watermark, TableView pinned,
                       MiEngineOptions engine)
      : shared_(std::move(shared)), bind_(bind_watermark),
        pinned_(std::move(pinned)), engine_(engine) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    if (shared_->PopulationVersion() == bind_) {
      StatusOr<GroupCounts> counts = shared_->Counts(cols);
      if (shared_->PopulationVersion() == bind_) return counts;
    }
    return Pinned()->Counts(cols);
  }

  Status Prefetch(const std::vector<int>& cols) override {
    // A hint: no post-validation needed (a summary prefetched at the
    // wrong watermark is never *served* — Counts() re-validates).
    if (shared_->PopulationVersion() == bind_) {
      return shared_->Prefetch(cols);
    }
    return Pinned()->Prefetch(cols);
  }

  int64_t NumRows() const override { return pinned_.NumRows(); }
  int64_t PopulationVersion() const override { return bind_; }

  CountEngineStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return private_ != nullptr ? private_->stats() : shared_->stats();
  }
  void ResetStats() override {
    // The shared engine serves other sessions/requests — never reset it
    // from here.
    std::lock_guard<std::mutex> lock(mu_);
    if (private_ != nullptr) private_->ResetStats();
  }

 private:
  std::shared_ptr<CountEngine> Pinned() {
    std::lock_guard<std::mutex> lock(mu_);
    if (private_ == nullptr) {
      // Mirror the registry's isolated stack over the pinned view.
      std::shared_ptr<CountEngine> scan = std::make_shared<ViewCountProvider>(
          pinned_, ScanKernelOptions(engine_));
      if (engine_.materialize_focus) {
        CachingCountEngineOptions caching;
        caching.max_cached_cells = engine_.max_cached_cells;
        private_ =
            std::make_shared<CachingCountEngine>(std::move(scan), caching);
      } else {
        private_ = std::move(scan);
      }
    }
    return private_;
  }

  std::shared_ptr<CountEngine> shared_;
  const int64_t bind_;
  TableView pinned_;
  MiEngineOptions engine_;
  mutable std::mutex mu_;
  std::shared_ptr<CountEngine> private_;
};

QuerySchedulerOptions SchedulerOptions(const HypDbServiceOptions& o) {
  QuerySchedulerOptions out;
  out.num_workers = o.num_workers;
  out.batch_max = o.batch_max;
  out.share_engines = o.share_engines;
  out.share_discovery = o.share_discovery;
  // Batch union planning rides the adaptive-materialization knob: the
  // cost model that admits observed-size supersets is what keeps the
  // planned unions cache-resident long enough to pay off.
  out.union_planning =
      o.analysis.engine.materialization == MaterializationMode::kAdaptive;
  out.defaults = o.analysis;
  out.default_trace_level = o.trace_level;
  out.on_complete = o.on_complete;
  return out;
}

SessionManagerOptions SessionOptions(const HypDbServiceOptions& o) {
  SessionManagerOptions out;
  out.max_sessions = o.max_sessions;
  out.ttl_seconds = o.session_ttl_seconds;
  return out;
}

}  // namespace

HypDbService::HypDbService(HypDbServiceOptions options)
    : options_(std::move(options)),
      traces_(options_.trace_retention),
      registry_(RegistryOptions(options_)),
      discovery_(DiscoveryOptions(options_)),
      sessions_(SessionOptions(options_)) {
  QuerySchedulerOptions sched = SchedulerOptions(options_);
  // Interpose on completion: retain the harvested trace (so the trace
  // endpoint can serve it after the claim-once result is gone), then
  // forward to the user's observer (stats log / flight recorder).
  sched.on_complete = [this](const RequestStats& stats,
                             const Status& status) {
    traces_.Record(stats);
    if (options_.on_complete) options_.on_complete(stats, status);
  };
  scheduler_ = std::make_unique<QueryScheduler>(&registry_, &discovery_,
                                                std::move(sched));
  RegisterMetrics();
}

void HypDbService::TraceStore::Record(const RequestStats& stats) {
  if (cap_ <= 0 || stats.ticket == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = by_ticket_.insert_or_assign(stats.ticket, stats);
  (void)it;
  if (inserted) order_.push_back(stats.ticket);
  while (static_cast<int64_t>(order_.size()) > cap_) {
    by_ticket_.erase(order_.front());
    order_.pop_front();
  }
}

StatusOr<RequestStats> HypDbService::TraceStore::Get(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_ticket_.find(ticket);
  if (it == by_ticket_.end()) {
    return Status::NotFound("no retained trace for ticket " +
                            std::to_string(ticket) +
                            " (unknown, still running, or expired)");
  }
  if (it->second.trace_level <= 0) {
    return Status::FailedPrecondition(
        "request " + std::to_string(ticket) +
        " ran with tracing off (trace_level 0); resubmit with "
        "trace_level >= 1");
  }
  return it->second;
}

StatusOr<RequestStats> HypDbService::RequestTrace(uint64_t ticket) const {
  return traces_.Get(ticket);
}

void HypDbService::RegisterMetrics() {
  // Uptime + dataset inventory.
  metrics_.RegisterGaugeFn("hypdb_uptime_seconds",
                           "Seconds since the service was constructed.", {},
                           [this] { return uptime_.ElapsedSeconds(); });
  metrics_.RegisterGaugeFn(
      "hypdb_datasets", "Datasets currently registered.", {},
      [this] { return static_cast<double>(registry_.List().size()); });

  // Scheduler: counters + queue depth + wait/run histograms.
  const SchedulerMetrics& sched = scheduler_->metrics();
  metrics_.RegisterCounter("hypdb_scheduler_submitted_total",
                           "Requests submitted (sync, async and session "
                           "stage jobs).",
                           {}, &sched.submitted);
  metrics_.RegisterCounter("hypdb_scheduler_completed_total",
                           "Requests that reached a terminal outcome.", {},
                           &sched.completed);
  metrics_.RegisterCounter("hypdb_scheduler_failed_total",
                           "Requests completed with an error other than "
                           "cancellation or deadline.",
                           {}, &sched.failed);
  metrics_.RegisterCounter("hypdb_scheduler_cancelled_total",
                           "Requests cancelled while queued or at a "
                           "cooperative stage boundary.",
                           {}, &sched.cancelled);
  metrics_.RegisterCounter("hypdb_scheduler_deadline_exceeded_total",
                           "Requests rejected at pickup because their "
                           "queue wait exceeded the deadline.",
                           {}, &sched.deadline_exceeded);
  metrics_.RegisterCounter("hypdb_scheduler_batched_twins_total",
                           "Requests drained as same-batch-key followers "
                           "of another pickup.",
                           {}, &sched.batched_twins);
  metrics_.RegisterGaugeFn(
      "hypdb_scheduler_queue_depth",
      "Requests queued but not yet picked up by a worker.", {},
      [this] { return static_cast<double>(scheduler_->queue_depth()); });
  metrics_.RegisterHistogram("hypdb_scheduler_queue_wait_seconds",
                             "Seconds from submit to worker pickup (or to "
                             "cancellation/deadline rejection).",
                             {}, &sched.queue_wait);
  metrics_.RegisterHistogram("hypdb_scheduler_run_seconds",
                             "Seconds a worker spent executing a request.",
                             {}, &sched.run_time);
  metrics_.RegisterCounter("hypdb_scheduler_union_prefetches_total",
                           "Superset prefetches executed by batch union "
                           "planning (multi-request bins).",
                           {}, &sched.union_prefetches);

  // DiscoveryCache: its stats struct is mutex-guarded inside the cache,
  // so the registry reads it through callbacks instead of raw pointers.
  auto discovery_stat = [this](int64_t DiscoveryCacheStats::* member) {
    return [this, member] {
      return static_cast<double>(discovery_.stats().*member);
    };
  };
  metrics_.RegisterCounterFn("hypdb_discovery_hits_total",
                             "Discoveries served from a completed cache "
                             "entry.",
                             {}, discovery_stat(&DiscoveryCacheStats::hits));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_misses_total",
      "Discoveries computed because no entry existed.", {},
      discovery_stat(&DiscoveryCacheStats::misses));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_coalesced_total",
      "Discoveries that waited on an in-flight twin computation.", {},
      discovery_stat(&DiscoveryCacheStats::coalesced));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_invalidations_total",
      "Cached discoveries dropped by dataset re-registration.", {},
      discovery_stat(&DiscoveryCacheStats::invalidations));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_evictions_total",
      "Cached discoveries dropped by the size bound.", {},
      discovery_stat(&DiscoveryCacheStats::evictions));
  metrics_.RegisterCounterFn(
      "hypdb_discovery_stale_refreshes_total",
      "Cached discoveries recomputed because appended rows exceeded the "
      "staleness bound.",
      {}, discovery_stat(&DiscoveryCacheStats::stale_refreshes));

  // Sessions: lifecycle counters + the live level derived from them.
  const SessionManagerMetrics& sess = sessions_.metrics();
  metrics_.RegisterCounter("hypdb_sessions_created_total",
                           "Analysis sessions created.", {}, &sess.created);
  metrics_.RegisterCounter("hypdb_sessions_expired_total",
                           "Sessions dropped by the idle TTL.", {},
                           &sess.expired);
  metrics_.RegisterCounter("hypdb_sessions_evicted_total",
                           "Sessions dropped by the LRU cap.", {},
                           &sess.evicted);
  metrics_.RegisterCounter("hypdb_sessions_invalidated_total",
                           "Sessions dropped by dataset re-registration.",
                           {}, &sess.invalidated);
  metrics_.RegisterCounter("hypdb_sessions_closed_total",
                           "Sessions closed explicitly.", {}, &sess.closed);
  metrics_.RegisterGaugeFn(
      "hypdb_sessions_live", "Sessions currently live.", {},
      [this] { return static_cast<double>(sessions_.size()); });

  // Engine: shard-engine work aggregated over every registered dataset
  // at scrape time (monotone per dataset; datasets unregister only by
  // replacement, which resets their pools — acceptable counter resets).
  auto engine_stat = [this](int64_t CountEngineStats::* member) {
    return [this, member] {
      int64_t total = 0;
      for (const DatasetInfo& info : registry_.List()) {
        StatusOr<CountEngineStats> stats = registry_.EngineStats(info.name);
        if (stats.ok()) total += (*stats).*member;
      }
      return static_cast<double>(total);
    };
  };
  metrics_.RegisterCounterFn("hypdb_engine_queries_total",
                             "Count queries answered by the shared shard "
                             "engines.",
                             {}, engine_stat(&CountEngineStats::queries));
  metrics_.RegisterCounterFn("hypdb_engine_scans_total",
                             "Full data scans performed by the shared "
                             "shard engines (the Fig. 6c cost driver).",
                             {}, engine_stat(&CountEngineStats::scans));
  metrics_.RegisterCounterFn("hypdb_engine_cache_hits_total",
                             "Count queries answered from an exact cached "
                             "summary.",
                             {}, engine_stat(&CountEngineStats::cache_hits));
  metrics_.RegisterCounterFn(
      "hypdb_engine_marginalizations_total",
      "Count queries derived by marginalizing a cached superset summary.",
      {}, engine_stat(&CountEngineStats::marginalizations));
  metrics_.RegisterCounterFn(
      "hypdb_engine_predicate_slices_total",
      "Count queries answered by slicing a shared full-table summary at "
      "the shard's predicate values.",
      {}, engine_stat(&CountEngineStats::predicate_slices));
  metrics_.RegisterCounterFn(
      "hypdb_engine_morsels_total",
      "Morsels dispatched by parallel group-by scans (process-wide).", {},
      [] { return static_cast<double>(GroupByMorselsDispatched()); });

  // Cache occupancy + adaptive materialization. Occupancy gauges sum
  // DatasetInfo over every registered dataset at scrape time (List()
  // reads each engine's CacheUse under the registry mutex); the advisor
  // counters come off the registry's CubeAdvisorStats.
  auto cache_gauge = [this](int64_t CacheOccupancy::* member) {
    return [this, member] {
      int64_t total = 0;
      for (const DatasetInfo& info : registry_.List()) {
        total += info.cache.*member;
      }
      return static_cast<double>(total);
    };
  };
  metrics_.RegisterGaugeFn(
      "hypdb_cache_cached_cells",
      "Contingency cells resident across every dataset's engine pool.", {},
      cache_gauge(&CacheOccupancy::cached_cells));
  metrics_.RegisterGaugeFn(
      "hypdb_cache_pinned_cells",
      "Resident cells pinned as prefetched focus summaries (exempt from "
      "the eviction budget).",
      {}, cache_gauge(&CacheOccupancy::pinned_cells));
  metrics_.RegisterGaugeFn("hypdb_cache_entries",
                           "Cached summaries resident across every "
                           "dataset's engine pool.",
                           {}, cache_gauge(&CacheOccupancy::entries));
  metrics_.RegisterGaugeFn(
      "hypdb_cache_cube_cells",
      "Lattice cells held by advisor-installed cubes.", {}, [this] {
        int64_t total = 0;
        for (const DatasetInfo& info : registry_.List()) {
          total += info.cube_cells;
        }
        return static_cast<double>(total);
      });
  metrics_.RegisterCounterFn(
      "hypdb_cache_evictions_total",
      "Cached summaries evicted to keep pools under their cell budgets "
      "(policy-ranked under adaptive materialization).",
      {}, engine_stat(&CountEngineStats::evictions));
  metrics_.RegisterCounterFn(
      "hypdb_cache_cube_hits_total",
      "Count queries answered from a pre-built cube lattice.", {},
      engine_stat(&CountEngineStats::cube_hits));
  auto advisor_stat = [this](int64_t CubeAdvisorStats::* member) {
    return [this, member] {
      return static_cast<double>(registry_.advisor_stats().*member);
    };
  };
  metrics_.RegisterCounterFn("hypdb_cache_advisor_passes_total",
                             "Cube-advisor sweeps completed.", {},
                             advisor_stat(&CubeAdvisorStats::passes));
  metrics_.RegisterCounterFn(
      "hypdb_cache_advisor_promotions_total",
      "Cubes installed over persistently hot attribute sets.", {},
      advisor_stat(&CubeAdvisorStats::promotions));
  metrics_.RegisterCounterFn(
      "hypdb_cache_advisor_demotions_total",
      "Installed cubes dropped after going stale on watermark churn.", {},
      advisor_stat(&CubeAdvisorStats::demotions));
  metrics_.RegisterCounterFn(
      "hypdb_cache_advisor_build_scans_total",
      "Full-table scans spent building candidate cubes.", {},
      advisor_stat(&CubeAdvisorStats::build_scans));

  // Ingest: the append path (rows/batches, bumped by AppendRows) plus
  // the delta-maintenance work it causes, aggregated over every
  // dataset's engine pool at scrape time like the engine family above.
  metrics_.RegisterCounter("hypdb_ingest_rows_total",
                           "Rows appended across all datasets.", {},
                           &ingest_rows_);
  metrics_.RegisterCounter("hypdb_ingest_batches_total",
                           "Append batches accepted.", {}, &ingest_batches_);
  metrics_.RegisterCounterFn(
      "hypdb_ingest_delta_patches_total",
      "Cached summaries brought current by merging a delta scan of only "
      "the appended rows (instead of invalidating).",
      {}, engine_stat(&CountEngineStats::delta_patches));
  metrics_.RegisterCounterFn(
      "hypdb_ingest_bytes_copied_total",
      "Code bytes the storage layer copied growing its column buffers "
      "(geometric growth: below twice the final code bytes).",
      {}, [this] {
        int64_t total = 0;
        for (const DatasetInfo& info : registry_.List()) {
          total += info.bytes_copied;
        }
        return static_cast<double>(total);
      });

  // Build identity: the Prometheus info-metric idiom (constant 1, the
  // payload lives in the labels) so scrapes say which binary they hit.
  metrics_.RegisterGaugeFn(
      "hypdb_build_info",
      "Build identity of the running binary (constant 1; see labels).",
      {{"version", BuildVersion()},
       {"compiler", BuildCompiler()},
       {"build_type", BuildType()},
       {"simd", GroupByKernelSimdActive() ? "avx2" : "scalar"}},
      [] { return 1.0; });

  // Trace rollups: per-event-family aggregates bumped as ring events are
  // recorded (process-wide, like the morsel counter). They answer "how
  // often do slices fall back / where do kernel scans land per tier"
  // without fetching any per-request trace.
  TraceRollup& trace = GlobalTraceRollup();
  const struct {
    const char* decision;
    Counter* counter;
  } kCacheDecisions[] = {
      {"hit", &trace.cache_hits},
      {"miss", &trace.cache_misses},
      {"marginalize", &trace.cache_marginalizations},
      {"evict", &trace.cache_evictions},
      {"prefetch", &trace.cache_prefetches},
  };
  for (const auto& d : kCacheDecisions) {
    metrics_.RegisterCounter(
        "hypdb_trace_cache_decisions_total",
        "Traced CachingCountEngine decisions by kind.",
        {{"decision", d.decision}}, d.counter);
  }
  metrics_.RegisterCounter("hypdb_trace_slice_total",
                           "Traced predicate-slicing outcomes.",
                           {{"outcome", "slice"}}, &trace.slice_serves);
  metrics_.RegisterCounter("hypdb_trace_slice_total",
                           "Traced predicate-slicing outcomes.",
                           {{"outcome", "fallback"}},
                           &trace.slice_fallbacks);
  metrics_.RegisterCounter("hypdb_trace_discovery_total",
                           "Traced discovery-cache outcomes.",
                           {{"outcome", "hit"}}, &trace.discovery_hits);
  metrics_.RegisterCounter("hypdb_trace_discovery_total",
                           "Traced discovery-cache outcomes.",
                           {{"outcome", "compute"}},
                           &trace.discovery_computes);
  metrics_.RegisterCounter("hypdb_trace_ci_tests_total",
                           "Traced conditional-independence tests (deep "
                           "trace level only).",
                           {}, &trace.ci_tests);
  metrics_.RegisterCounter("hypdb_trace_morsel_batches_total",
                           "Traced morsel dispatches (deep trace level "
                           "only).",
                           {}, &trace.morsel_batches);
  metrics_.RegisterCounter("hypdb_trace_ingest_events_total",
                           "Traced ingest-path events by kind.",
                           {{"event", "append"}}, &trace.ingest_appends);
  metrics_.RegisterCounter("hypdb_trace_ingest_events_total",
                           "Traced ingest-path events by kind.",
                           {{"event", "delta_patch"}}, &trace.delta_patches);
  metrics_.RegisterCounter("hypdb_trace_dropped_events_total",
                           "Trace events dropped because the ring pool "
                           "was exhausted.",
                           {}, &trace.dropped_events);
  for (int s = 0; s < kNumTraceStages; ++s) {
    metrics_.RegisterHistogram(
        "hypdb_trace_stage_seconds",
        "Traced analysis-stage latencies by stage.",
        {{"stage", TraceStageName(static_cast<TraceStage>(s))}},
        &trace.stage_seconds[s]);
  }
  for (int t = 0; t < 3; ++t) {
    metrics_.RegisterHistogram(
        "hypdb_trace_kernel_scan_seconds",
        "Traced group-by kernel scan latencies by tier.",
        {{"tier", TraceKernelTierName(static_cast<TraceKernelTier>(t))}},
        &trace.kernel_scan_seconds[t]);
  }
  metrics_.RegisterHistogram("hypdb_trace_ci_test_seconds",
                             "Traced per-CI-test latencies (deep trace "
                             "level only).",
                             {}, &trace.ci_test_seconds);
  metrics_.RegisterHistogram("hypdb_trace_discovery_wait_seconds",
                             "Traced waits on in-flight twin discoveries "
                             "(coalescing).",
                             {}, &trace.discovery_wait_seconds);
}

int64_t HypDbService::RegisterTable(const std::string& name,
                                    TablePtr table) {
  const int64_t epoch = registry_.Register(name, std::move(table));
  // The epoch in DiscoveryKey already makes stale entries unreachable;
  // invalidation frees their memory eagerly. Sessions pin the old
  // epoch's engines and discovery, so they go with it (kGone).
  discovery_.InvalidatePrefix(DatasetKeyPrefix(name));
  sessions_.InvalidateDataset(name);
  return epoch;
}

StatusOr<int64_t> HypDbService::RegisterCsv(const std::string& name,
                                            const std::string& path) {
  HYPDB_ASSIGN_OR_RETURN(int64_t epoch, registry_.RegisterCsv(name, path));
  discovery_.InvalidatePrefix(DatasetKeyPrefix(name));
  sessions_.InvalidateDataset(name);
  return epoch;
}

StatusOr<int64_t> HypDbService::AppendRows(
    const std::string& name,
    const std::vector<std::vector<std::string>>& rows) {
  HYPDB_ASSIGN_OR_RETURN(const int64_t watermark,
                         registry_.AppendRows(name, rows));
  // Deliberately NO discovery invalidation and NO session invalidation:
  // appends keep the epoch, cached summaries patch themselves by delta,
  // and discoveries refresh lazily under the staleness bound. This is
  // the whole point of the append-only store.
  ingest_rows_.Add(static_cast<int64_t>(rows.size()));
  ingest_batches_.Add();
  return watermark;
}

StatusOr<TablePtr> HypDbService::Dataset(const std::string& name) const {
  return registry_.Get(name);
}

std::vector<DatasetInfo> HypDbService::Datasets() const {
  return registry_.List();
}

StatusOr<ServiceReport> HypDbService::Analyze(AnalyzeRequest request) {
  return Wait(Submit(std::move(request)));
}

StatusOr<ServiceReport> HypDbService::AnalyzeSql(const std::string& dataset,
                                                 const std::string& sql) {
  AnalyzeRequest request;
  request.dataset = dataset;
  request.sql = sql;
  return Analyze(std::move(request));
}

uint64_t HypDbService::Submit(AnalyzeRequest request, SubmitOptions submit) {
  return scheduler_->Submit(std::move(request), submit);
}

bool HypDbService::Cancel(uint64_t ticket) {
  return scheduler_->Cancel(ticket);
}

bool HypDbService::Done(uint64_t ticket) const {
  return scheduler_->Done(ticket);
}

StatusOr<ServiceReport> HypDbService::Wait(uint64_t ticket) {
  return scheduler_->Wait(ticket);
}

StatusOr<SessionInfo> HypDbService::CreateSession(
    const AnalyzeRequest& request) {
  HYPDB_ASSIGN_OR_RETURN(DatasetRegistry::Snapshot snapshot,
                         registry_.GetSnapshot(request.dataset));
  HYPDB_ASSIGN_OR_RETURN(AggQuery query, ParseAggQuery(request.sql));
  const HypDbOptions& analysis =
      request.options.has_value() ? *request.options : options_.analysis;

  SessionHooks hooks;
  const std::string dataset = request.dataset;
  const int64_t epoch = snapshot.epoch;
  const int64_t watermark = snapshot.watermark;
  const MiEngineOptions engine_options = analysis.engine;
  if (options_.share_engines) {
    // The whole-population shard (discovery counts), exactly as the
    // analyze path wires it. A re-registration between snapshot and here
    // degrades to unshared — still correct, just not pooled. The bind
    // span keeps this setup scan nested under a stage in the trace.
    // Shared engines are wrapped in a WatermarkGuardEngine: the session
    // outlives this call, and appends between its stages must not leak
    // new rows into the bind-time population (staged digest invariant).
    TraceSpanScope bind_span(TraceEventKind::kStage, 1,
                             static_cast<uint64_t>(TraceStage::kBind));
    HYPDB_ASSIGN_OR_RETURN(BoundQuery bound,
                           BindQuery(snapshot.table, query));
    StatusOr<std::shared_ptr<CountEngine>> shard = registry_.ShardEngine(
        dataset, epoch, SubpopulationSignature(query), bound.population,
        watermark);
    if (shard.ok()) {
      hooks.population_engine = std::make_shared<WatermarkGuardEngine>(
          std::move(*shard), watermark, bound.population, engine_options);
    } else if (shard.status().code() != StatusCode::kFailedPrecondition) {
      return shard.status();
    }
    // Per-context shards: detection/explanation/resolution counts of
    // context Γ_i = C ∧ X = x_i route through the shard keyed by that
    // conjunction's canonical signature, so concurrent sessions (and
    // future direct queries on the same subpopulation) share one cache
    // instead of each rebuilding a private engine.
    DatasetRegistry* registry = &registry_;
    hooks.context_engine_provider =
        [registry, dataset, epoch, watermark, engine_options](
            const std::vector<std::pair<std::string,
                                        std::vector<std::string>>>& where,
            const TableView& view) -> std::shared_ptr<CountEngine> {
      AggQuery context_query;
      context_query.where = where;
      StatusOr<std::shared_ptr<CountEngine>> shard = registry->ShardEngine(
          dataset, epoch, SubpopulationSignature(context_query), view,
          watermark);
      // Stale epoch or advanced watermark: private fallback — the
      // session keeps computing over its pinned bind-time table.
      if (!shard.ok()) return nullptr;
      return std::make_shared<WatermarkGuardEngine>(
          std::move(*shard), watermark, view, engine_options);
    };
  }
  // The interceptor closure is built before the session's Entry exists;
  // both share ownership of the flags object, so there is no post-
  // publication pointer patching a concurrent stage job could race.
  auto flags = std::make_shared<SessionDiscoveryFlags>();
  if (options_.share_discovery) {
    DiscoveryCache* cache = &discovery_;
    const std::string key = DiscoveryKey(dataset, epoch, query, analysis);
    // The session discovers over its pinned bind-time table, so the
    // staleness check runs against the bind watermark: an entry computed
    // at (or after) it serves; an older one refreshes — over this
    // session's pinned rows.
    const int64_t bind_watermark = snapshot.watermark;
    hooks.discovery_interceptor =
        [cache, key, flags, bind_watermark](
            const std::function<StatusOr<DiscoveryReport>()>& compute)
        -> StatusOr<DiscoveryReport> {
      bool reused = false;
      bool coalesced = false;
      StatusOr<DiscoveryReport> report = cache->LookupOrCompute(
          key, compute, &reused, &coalesced, bind_watermark);
      flags->reused.store(reused);
      flags->coalesced.store(coalesced);
      return report;
    };
  }

  HYPDB_ASSIGN_OR_RETURN(
      std::unique_ptr<AnalysisSession> session,
      AnalysisSession::Create(snapshot.table, query, analysis,
                              std::move(hooks)));
  std::shared_ptr<SessionManager::Entry> entry = sessions_.Insert(
      dataset, epoch, request.sql, query, BatchKey(dataset, query),
      std::move(session), std::move(flags));
  return sessions_.Info(entry);
}

uint64_t HypDbService::SubmitSessionStage(uint64_t session_id,
                                          std::string stage,
                                          std::optional<int> context,
                                          SubmitOptions submit) {
  auto cancel_flag = std::make_shared<std::atomic<bool>>(false);
  // Batch with analyze twins of the same (dataset, treatment,
  // subpopulation) when the session is alive; an unknown/expired id
  // keeps an empty batch key and the job itself reports the error.
  std::string batch_key;
  if (StatusOr<std::shared_ptr<SessionManager::Entry>> entry =
          sessions_.Get(session_id);
      entry.ok()) {
    batch_key = (*entry)->batch_key;
  }
  return scheduler_->SubmitTask(
      std::move(batch_key),
      [this, session_id, stage = std::move(stage), context, cancel_flag](
          RequestStats* stats) {
        return RunSessionStage(session_id, stage, context, cancel_flag,
                               stats);
      },
      submit, cancel_flag);
}

StatusOr<ServiceReport> HypDbService::AdvanceSession(uint64_t session_id,
                                                     const std::string& stage,
                                                     std::optional<int> context,
                                                     SubmitOptions submit) {
  return Wait(SubmitSessionStage(session_id, stage, context, submit));
}

StatusOr<ServiceReport> HypDbService::RunSessionStage(
    uint64_t session_id, const std::string& stage,
    std::optional<int> context,
    const std::shared_ptr<std::atomic<bool>>& cancel_flag,
    RequestStats* stats) {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<SessionManager::Entry> entry,
                         sessions_.Get(session_id));
  std::lock_guard<std::mutex> stage_lock(entry->mu);
  AnalysisSession& session = *entry->session;
  session.SetCancelCheck(
      [cancel_flag] { return cancel_flag != nullptr && cancel_flag->load(); });
  int64_t runs_before = 0;
  for (int s = 0; s < kNumAnalysisStages; ++s) {
    runs_before +=
        session.stage_state(static_cast<AnalysisStage>(s)).runs;
  }

  ServiceReport out;
  Status status = [&]() -> Status {
    if (stage == "report" || stage == "run") {
      if (context.has_value()) {
        return Status::InvalidArgument(
            "stage 'report' does not take a context (only explain and "
            "rewrite run per-context)");
      }
      return session.Report().status();
    }
    HYPDB_ASSIGN_OR_RETURN(AnalysisStage parsed, ParseAnalysisStage(stage));
    if (context.has_value() && parsed != AnalysisStage::kExplain &&
        parsed != AnalysisStage::kRewrite) {
      return Status::InvalidArgument(
          "stage '" + stage + "' does not take a context (only explain "
          "and rewrite run per-context)");
    }
    switch (parsed) {
      case AnalysisStage::kAnswers: return session.Answers().status();
      case AnalysisStage::kDiscover: return session.Discover().status();
      case AnalysisStage::kDetect: return session.Detect().status();
      case AnalysisStage::kExplain: {
        if (!context.has_value()) return session.Explain().status();
        // Per-context advances surface the single context's result even
        // while the whole stage (the snapshot vector) is incomplete.
        HYPDB_ASSIGN_OR_RETURN(const ContextExplanation* expl,
                               session.Explain(*context));
        out.stage_explanation = *expl;
        return Status::Ok();
      }
      case AnalysisStage::kRewrite: {
        if (!context.has_value()) return session.Rewrite().status();
        HYPDB_ASSIGN_OR_RETURN(const ContextRewrite* rewrite,
                               session.Rewrite(*context));
        out.stage_rewrite = *rewrite;
        return Status::Ok();
      }
    }
    return Status::Internal("unhandled stage");
  }();
  session.SetCancelCheck({});
  HYPDB_RETURN_IF_ERROR(status);

  int64_t runs_after = 0;
  for (int s = 0; s < kNumAnalysisStages; ++s) {
    runs_after += session.stage_state(static_cast<AnalysisStage>(s)).runs;
  }
  stats->session_id = session_id;
  stats->stage = stage;
  stats->stage_reused = runs_after == runs_before;
  stats->session_complete = session.complete();
  stats->discovery_reused = entry->discovery_flags->reused.load();
  stats->discovery_coalesced = entry->discovery_flags->coalesced.load();
  out.report = session.Snapshot();
  return out;
}

StatusOr<SessionInfo> HypDbService::InspectSession(uint64_t session_id) {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<SessionManager::Entry> entry,
                         sessions_.Get(session_id));
  return sessions_.Info(entry);
}

StatusOr<ServiceReport> HypDbService::SessionSnapshot(uint64_t session_id) {
  HYPDB_ASSIGN_OR_RETURN(std::shared_ptr<SessionManager::Entry> entry,
                         sessions_.Get(session_id));
  std::lock_guard<std::mutex> stage_lock(entry->mu);
  ServiceReport out;
  out.report = entry->session->Snapshot();
  out.stats.session_id = session_id;
  out.stats.session_complete = entry->session->complete();
  return out;
}

Status HypDbService::CloseSession(uint64_t session_id) {
  return sessions_.Erase(session_id);
}

}  // namespace hypdb
