#include "service/dataset_registry.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "dataframe/csv.h"
#include "engine/caching_count_engine.h"
#include "engine/predicate_slicing_count_engine.h"
#include "service/request.h"
#include "storage/append_only_count_provider.h"
#include "storage/filtered_population.h"

namespace hypdb {
namespace {

/// Resolves `signature` into the equality conjunction it denotes against
/// `table`, or false when it is not sliceable: not a well-formed
/// signature, a term with more (or fewer) than one value, an unknown
/// attribute, a value absent from the column dictionary (such a term
/// matches no row *today*, but the label may arrive with a later append,
/// so the shard must track the store — the live filtered stack does), or
/// a repeated attribute (distinct conjuncts on one column intersect; not
/// worth slicing machinery).
bool ResolveSlicePredicates(const Table& table, const std::string& signature,
                            std::vector<SlicePredicate>* out) {
  StatusOr<std::vector<SubpopulationTerm>> terms =
      ParseSubpopulationSignature(signature);
  if (!terms.ok() || terms->empty()) return false;
  out->clear();
  for (const SubpopulationTerm& term : *terms) {
    if (term.values.size() != 1) return false;
    StatusOr<int> col = table.ColumnIndex(term.attribute);
    if (!col.ok()) return false;
    const int32_t code = table.column(*col).dict().Find(term.values[0]);
    if (code < 0) return false;
    for (const SlicePredicate& prev : *out) {
      if (prev.col == *col) return false;
    }
    out->push_back(SlicePredicate{*col, code});
  }
  return true;
}

}  // namespace

DatasetRegistry::DatasetRegistry(DatasetRegistryOptions options)
    : options_(std::move(options)) {
  if (Adaptive() && options_.advisor_interval_seconds > 0) {
    advisor_thread_ = std::thread([this] { AdvisorLoop(); });
  }
}

DatasetRegistry::~DatasetRegistry() {
  {
    std::lock_guard<std::mutex> lock(advisor_mu_);
    advisor_stop_ = true;
  }
  advisor_cv_.notify_all();
  if (advisor_thread_.joinable()) advisor_thread_.join();
}

void DatasetRegistry::AdvisorLoop() {
  const auto interval =
      std::chrono::duration<double>(options_.advisor_interval_seconds);
  std::unique_lock<std::mutex> lock(advisor_mu_);
  while (!advisor_stop_) {
    if (advisor_cv_.wait_for(lock, interval,
                             [this] { return advisor_stop_; })) {
      break;
    }
    // Pass outside advisor_mu_: stop requests must never wait on a cube
    // build.
    lock.unlock();
    AdvisorPass();
    lock.lock();
  }
}

int64_t DatasetRegistry::Register(const std::string& name, TablePtr table) {
  AppendOnlyTablePtr store;
  if (table != nullptr) {
    StatusOr<AppendOnlyTablePtr> built = AppendOnlyTable::FromTable(table);
    if (built.ok()) store = std::move(*built);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Dataset& ds = datasets_[name];
  ds.store = std::move(store);
  ++ds.epoch;
  // The lease outlives re-registration: requests holding the old epoch's
  // read lease must keep excluding writers until they drain.
  if (ds.lease == nullptr) ds.lease = std::make_shared<std::shared_mutex>();
  // New data invalidates every cached summary: shards (and the parent
  // they slice from) aggregate rows of the replaced table. Live engines
  // held by in-flight queries stay valid for the old store (shared_ptr),
  // they just stop being handed out.
  ds.parent.reset();
  ds.parent_cache.reset();
  ds.cube_host.reset();
  ds.advisor_streak.clear();
  ds.advisor_refused_dims.clear();
  ds.shards.clear();
  ds.shard_age.clear();
  ds.frozen.clear();
  ds.retired_slices = 0;  // the parent's counters went with it
  return ds.epoch;
}

StatusOr<int64_t> DatasetRegistry::RegisterCsv(const std::string& name,
                                               const std::string& path) {
  HYPDB_ASSIGN_OR_RETURN(Table table, ReadCsv(path));
  return Register(name, MakeTable(std::move(table)));
}

StatusOr<int64_t> DatasetRegistry::AppendRows(
    const std::string& name,
    const std::vector<std::vector<std::string>>& rows) {
  // Grab the store and lease under the registry mutex, then release it
  // before taking the lease exclusively: the lock order is lease →
  // registry mutex, and readers holding the shared lease re-enter the
  // registry (ShardEngine), so holding mu_ while waiting on the lease
  // would deadlock.
  AppendOnlyTablePtr store;
  std::shared_ptr<std::shared_mutex> lease;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end() || it->second.store == nullptr) {
      return Status::NotFound("dataset not registered: " + name);
    }
    store = it->second.store;
    lease = it->second.lease;
  }
  int64_t watermark = 0;
  {
    std::unique_lock<std::shared_mutex> write(*lease);
    HYPDB_RETURN_IF_ERROR(store->Append(rows));
    watermark = store->Watermark();
  }
  // Frozen shards were built over a caller's materialized view; the view
  // no longer covers the population, so drop them (they rebuild live on
  // next use). Skip if the dataset was re-registered concurrently — the
  // replacement already dropped everything.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it != datasets_.end() && it->second.store == store) {
      Dataset& ds = it->second;
      for (const std::string& sig : ds.frozen) {
        auto shard = ds.shards.find(sig);
        if (shard != ds.shards.end()) {
          ds.shards.erase(shard);
          ds.shard_age.remove(sig);
        }
      }
      ds.frozen.clear();
    }
  }
  return watermark;
}

StatusOr<DatasetLease> DatasetRegistry::ReadLease(
    const std::string& name) const {
  std::shared_ptr<std::shared_mutex> lease;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it == datasets_.end() || it->second.store == nullptr) {
      return Status::NotFound("dataset not registered: " + name);
    }
    lease = it->second.lease;
  }
  // Acquire outside mu_ (lock order: lease before registry mutex).
  DatasetLease out;
  out.mu = std::move(lease);
  out.lock = std::shared_lock<std::shared_mutex>(*out.mu);
  return out;
}

StatusOr<TablePtr> DatasetRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end() || it->second.store == nullptr) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return it->second.store->Materialized();
}

StatusOr<int64_t> DatasetRegistry::Epoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return it->second.epoch;
}

StatusOr<std::shared_ptr<const AppendOnlyTable>> DatasetRegistry::Store(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end() || it->second.store == nullptr) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return std::shared_ptr<const AppendOnlyTable>(it->second.store);
}

StatusOr<DatasetRegistry::Snapshot> DatasetRegistry::GetSnapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end() || it->second.store == nullptr) {
    return Status::NotFound("dataset not registered: " + name);
  }
  Snapshot out;
  out.table = it->second.store->Materialized();
  out.epoch = it->second.epoch;
  out.watermark = out.table->NumRows();
  return out;
}

std::vector<DatasetInfo> DatasetRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DatasetInfo> out;
  out.reserve(datasets_.size());
  for (const auto& [name, ds] : datasets_) {
    DatasetInfo info;
    info.name = name;
    info.epoch = ds.epoch;
    if (ds.store != nullptr) {
      info.rows = ds.store->NumRows();
      info.columns = ds.store->NumColumns();
      info.bytes_copied = ds.store->bytes_copied();
      info.watermark = ds.store->Watermark();
    }
    info.shards =
        static_cast<int>(ds.shards.size()) + (ds.parent != nullptr ? 1 : 0);
    // Cache occupancy over the pool. Slicing shards report only their
    // own layer (their CacheUse does not recurse into the shared
    // parent), so the sum never double counts.
    if (ds.parent != nullptr) info.cache += ds.parent->CacheUse();
    for (const auto& [sig, engine] : ds.shards) {
      info.cache += engine->CacheUse();
    }
    if (ds.cube_host != nullptr) info.cube_cells = ds.cube_host->CubeCells();
    if (ds.parent != nullptr || !ds.shards.empty()) {
      const CountEngineStats stats = EngineStatsLocked(ds);
      info.evictions = stats.evictions;
      if (stats.queries > 0) {
        const double miss = static_cast<double>(stats.scans) /
                            static_cast<double>(stats.queries);
        info.cache_hit_ratio = std::min(1.0, std::max(0.0, 1.0 - miss));
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

StatusOr<std::shared_ptr<CountEngine>> DatasetRegistry::ShardEngine(
    const std::string& name, int64_t epoch, const std::string& signature,
    const TableView& population, int64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not registered: " + name);
  }
  Dataset& ds = it->second;
  if (ds.epoch != epoch) {
    // The caller's snapshot predates a re-registration; its population
    // view aggregates the replaced table and must not seed this pool.
    return Status::FailedPrecondition(
        "dataset " + name + " re-registered (snapshot epoch " +
        std::to_string(epoch) + ", current " + std::to_string(ds.epoch) +
        ")");
  }
  if (watermark >= 0 && ds.store != nullptr &&
      ds.store->Watermark() != watermark) {
    // The caller bound against an older watermark (a session created
    // before an append, or a rare snapshot/append race outside the read
    // lease). The live shared engines answer at the current watermark,
    // which would change the caller's pinned population; callers degrade
    // to a private engine over their own view instead.
    return Status::FailedPrecondition(
        "dataset " + name + " advanced past the caller's watermark (bound " +
        std::to_string(watermark) + ", current " +
        std::to_string(ds.store->Watermark()) + ")");
  }
  // The empty signature selects the whole table: that IS the parent
  // engine, so full-table queries and the slicing shards share one cache.
  if (signature.empty()) return ParentEngineLocked(ds);

  auto shard = ds.shards.find(signature);
  if (shard != ds.shards.end()) return shard->second;

  std::shared_ptr<CountEngine> engine =
      BuildShardLocked(ds, signature, population);
  ds.shards.emplace(signature, engine);
  ds.shard_age.push_back(signature);
  while (static_cast<int>(ds.shards.size()) >
         std::max(1, options_.max_shards_per_dataset)) {
    auto oldest = ds.shards.find(ds.shard_age.front());
    if (oldest != ds.shards.end()) {
      // Remember the evicted shard's slice count: the internal parent
      // queries it caused outlive it (in-flight holders of the evicted
      // engine may still add a few — the accounting is best-effort under
      // that race, exact otherwise).
      ds.retired_slices += oldest->second->stats().predicate_slices;
      ds.frozen.erase(oldest->first);
      ds.shards.erase(oldest);
    }
    ds.shard_age.pop_front();
  }
  return engine;
}

GroupByKernelOptions DatasetRegistry::KernelOptions() const {
  // One translation for the whole stack: the same mapping MiEngine and
  // session per-context engines use (stats/mi_engine.h).
  return ScanKernelOptions(options_.engine);
}

std::shared_ptr<CountEngine> DatasetRegistry::WrapCache(
    std::shared_ptr<CountEngine> base, bool track_demand) const {
  if (!options_.engine.materialize_focus) return base;
  CachingCountEngineOptions caching;
  caching.max_cached_cells = options_.engine.max_cached_cells;
  caching.policy = MakeCachePolicy(options_.engine.materialization);
  caching.track_demand = track_demand;
  return std::make_shared<CachingCountEngine>(std::move(base), caching);
}

std::shared_ptr<CountEngine> DatasetRegistry::CachedScanStack(
    const TableView& view) const {
  // Mirror MiEngine's engine stack: a kernel-backed scanner, wrapped in
  // a (thread-safe) caching layer unless materialization is disabled.
  return WrapCache(
      std::make_shared<ViewCountProvider>(view, KernelOptions()));
}

std::shared_ptr<CountEngine> DatasetRegistry::ParentEngineLocked(
    Dataset& ds) {
  if (ds.parent == nullptr && ds.store != nullptr) {
    std::shared_ptr<CountEngine> base =
        std::make_shared<AppendOnlyCountProvider>(ds.store, KernelOptions());
    if (Adaptive()) {
      // Adaptive stack: cache → cube host → store scanner. The cube
      // host sits below the cache so a promoted lattice serves cache
      // misses (and observed-cell admission checks); the cache above it
      // keeps hit/marginalization semantics — and bit-identity —
      // unchanged.
      ds.cube_host = std::make_shared<AdaptiveCubeProvider>(std::move(base));
      base = ds.cube_host;
      ds.parent = WrapCache(base, /*track_demand=*/true);
      if (ds.parent != base) {
        ds.parent_cache =
            std::static_pointer_cast<CachingCountEngine>(ds.parent);
      }
    } else {
      ds.parent = WrapCache(std::move(base));
    }
  }
  return ds.parent;
}

std::shared_ptr<CountEngine> DatasetRegistry::BuildShardLocked(
    Dataset& ds, const std::string& signature,
    const TableView& population) {
  // A live filtered-population scanner whenever the signature resolves
  // against the store's schema: it tracks appends (its row set extends
  // lazily) and carries the delta protocol, so the caching layer above
  // patches instead of invalidating.
  std::shared_ptr<CountEngine> live;
  if (ds.store != nullptr) {
    StatusOr<std::vector<SubpopulationTerm>> terms =
        ParseSubpopulationSignature(signature);
    if (terms.ok() && !terms->empty()) {
      std::vector<FilteredPopulationProvider::Term> filter;
      filter.reserve(terms->size());
      for (SubpopulationTerm& term : *terms) {
        filter.push_back(FilteredPopulationProvider::Term{
            std::move(term.attribute), std::move(term.values)});
      }
      StatusOr<std::shared_ptr<FilteredPopulationProvider>> provider =
          FilteredPopulationProvider::Create(ds.store, std::move(filter),
                                             KernelOptions());
      if (provider.ok()) live = std::move(*provider);
    }
  }
  std::vector<SlicePredicate> predicates;
  // Slicing needs a parent that actually caches: with materialization
  // off OR a zero cell budget (cache nothing), every slice would re-scan
  // the full table, strictly worse than scanning the filtered view. (A
  // zero budget means "unlimited" to the slicer's guard but "cache
  // nothing" to CachingCountEngine — never forward that configuration.)
  if (live != nullptr && options_.cross_shard_slicing &&
      options_.engine.materialize_focus &&
      options_.engine.max_cached_cells > 0 &&
      ResolveSlicePredicates(*ds.store->Materialized(), signature,
                             &predicates)) {
    // A shard-local cache over the slicer: exact repeats and shard-level
    // marginalizations short-circuit before reaching the parent. The
    // preference order per query is therefore shard hit > shard
    // marginalization > parent slice (hit/marginalize/scan inside the
    // parent) > private fallback scan. The live population keeps
    // NumRows/fallbacks/deltas current across appends.
    return WrapCache(std::make_shared<PredicateSlicingCountEngine>(
        ParentEngineLocked(ds), std::move(predicates), population,
        KernelOptions(), options_.engine.max_cached_cells, live,
        MakeCachePolicy(options_.engine.materialization)));
  }
  if (live != nullptr) {
    // Live isolated stack: the filtered-population scanner plus the
    // cache (delta-patched across appends, no cross-shard sharing).
    return WrapCache(std::move(live));
  }
  // Frozen stack: scanner over the caller's view, plus the cache. The
  // view stops covering the population at the next append, so remember
  // the signature for drop-on-append.
  ds.frozen.insert(signature);
  return CachedScanStack(population);
}

StatusOr<CountEngineStats> DatasetRegistry::EngineStats(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset not registered: " + name);
  }
  return EngineStatsLocked(it->second);
}

CountEngineStats DatasetRegistry::EngineStatsLocked(const Dataset& ds) const {
  CountEngineStats total;
  // Parent first, shards after. Work counters never double count:
  // slicing shards report their own layer + private fallback only, never
  // the shared parent. `queries` needs one correction — each successful
  // slice issued exactly one internal Counts() on the parent (counted in
  // the parent's queries), so subtract the slice count to keep the
  // aggregate at "each external query once". A parent call that *failed*
  // (S ∪ P codec overflow, answered by the shard's fallback instead)
  // still counts once extra — rare and conservative.
  if (ds.parent != nullptr) total += ds.parent->stats();
  for (const auto& [sig, engine] : ds.shards) {
    const CountEngineStats shard = engine->stats();
    total += shard;
    total.queries -= shard.predicate_slices;
  }
  // Slices by since-evicted shards still sit in the parent's queries.
  total.queries -= ds.retired_slices;
  // Parent and shard counters are read under their own mutexes, not one
  // atomic snapshot: a worker mid-slice can land its predicate_slices
  // increment between our two reads, transiently over-subtracting.
  // Clamp — the counters are approximate under concurrency (as
  // RequestStats documents), but never negative.
  total.queries = std::max<int64_t>(total.queries, 0);
  return total;
}

CubeAdvisorStats DatasetRegistry::advisor_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return advisor_;
}

void DatasetRegistry::AdvisorPass() {
  if (!Adaptive()) return;
  // Snapshot the per-dataset handles under mu_, then work lease-free and
  // lock-free: the store, cube host and parent cache are all shared_ptrs
  // that stay valid across a concurrent re-registration (which merely
  // stops handing them out — exactly the signal the epoch check below
  // catches before any advisor state is written back).
  struct Work {
    std::string name;
    int64_t epoch = 0;
    AppendOnlyTablePtr store;
    std::shared_ptr<AdaptiveCubeProvider> host;
    std::shared_ptr<CachingCountEngine> cache;
  };
  std::vector<Work> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++advisor_.passes;
    for (auto& [name, ds] : datasets_) {
      if (ds.store != nullptr && ds.cube_host != nullptr &&
          ds.parent_cache != nullptr) {
        work.push_back(
            Work{name, ds.epoch, ds.store, ds.cube_host, ds.parent_cache});
      }
    }
  }

  for (Work& w : work) {
    // Demotion: an append moved the watermark past the installed cube,
    // so every query already falls through it (bit-identity was never at
    // risk); drop it so its cells stop counting against occupancy. A
    // fresh build below may re-promote at the new watermark.
    if (w.host->HasCube() &&
        w.host->CubeWatermark() != w.store->Watermark()) {
      w.host->DropCube();
      std::lock_guard<std::mutex> lock(mu_);
      ++advisor_.demotions;
    }

    // Harvest this pass's demand profile and advance hot streaks. A
    // column set is demanded when the parent cache saw >= min_demand
    // queries for it since the last pass; a streak of hot_passes
    // consecutive demanded passes makes it hot.
    std::map<std::vector<int>, int64_t> demand = w.cache->TakeDemandProfile();
    std::vector<int> target;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = datasets_.find(w.name);
      if (it == datasets_.end() || it->second.epoch != w.epoch) continue;
      Dataset& ds = it->second;
      for (auto s = ds.advisor_streak.begin();
           s != ds.advisor_streak.end();) {
        auto d = demand.find(s->first);
        if (d == demand.end() || d->second < options_.advisor_min_demand) {
          s = ds.advisor_streak.erase(s);  // went cold: streak resets
        } else {
          ++s;
        }
      }
      for (const auto& [key, n] : demand) {
        if (n >= options_.advisor_min_demand) ++ds.advisor_streak[key];
      }
      // Greedy union of hot sets, hottest first (deterministic tie-break
      // on the column set itself), skipping any set that would push the
      // cube past the dimension cap.
      std::vector<std::pair<int64_t, const std::vector<int>*>> hot;
      for (const auto& [key, streak] : ds.advisor_streak) {
        if (streak >= options_.advisor_hot_passes) {
          hot.emplace_back(demand.find(key)->second, &key);
        }
      }
      std::sort(hot.begin(), hot.end(),
                [](const std::pair<int64_t, const std::vector<int>*>& a,
                   const std::pair<int64_t, const std::vector<int>*>& b) {
                  return a.first != b.first ? a.first > b.first
                                            : *a.second < *b.second;
                });
      std::set<int> dims;
      for (const auto& [n, key] : hot) {
        std::set<int> merged = dims;
        merged.insert(key->begin(), key->end());
        if (static_cast<int>(merged.size()) > options_.advisor_max_cube_dims) {
          continue;
        }
        dims = std::move(merged);
      }
      target.assign(dims.begin(), dims.end());
      if (target.empty()) continue;  // nothing persistently hot
      if (target == ds.advisor_refused_dims) continue;  // known over budget
    }

    // Already serving this hot set? (Current cube at the live watermark
    // covering every target dimension.) Then the build would be pure
    // waste.
    const std::vector<int> current = w.host->CubeDims();
    if (w.host->HasCube() &&
        w.host->CubeWatermark() == w.store->Watermark() &&
        std::includes(current.begin(), current.end(), target.begin(),
                      target.end())) {
      continue;
    }

    // Promotion: build the lattice outside every registry lock (one
    // full-table scan plus in-memory marginalizations), then install iff
    // it fits the engine cell budget. The cube is built over a
    // materialized snapshot; its watermark is that snapshot's row count,
    // so a racing append simply leaves it inert until the next pass.
    TablePtr table = w.store->Materialized();
    const int64_t built_at = table->NumRows();
    StatusOr<DataCube> cube = DataCube::Build(
        TableView(table), target, options_.advisor_max_cube_dims);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++advisor_.build_scans;
    }
    if (!cube.ok() ||
        cube->TotalCells() > options_.engine.max_cached_cells) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = datasets_.find(w.name);
      if (it != datasets_.end() && it->second.epoch == w.epoch) {
        it->second.advisor_refused_dims = std::move(target);
      }
      continue;
    }
    w.host->InstallCube(std::make_shared<const DataCube>(std::move(*cube)),
                        built_at);
    std::lock_guard<std::mutex> lock(mu_);
    ++advisor_.promotions;
    auto it = datasets_.find(w.name);
    if (it != datasets_.end() && it->second.epoch == w.epoch) {
      it->second.advisor_refused_dims.clear();
    }
  }
}

}  // namespace hypdb
