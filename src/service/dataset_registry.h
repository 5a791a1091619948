// DatasetRegistry: named append-only tables plus their shared, sharded count
// engines and the append/ingest path.
//
// The one-shot pipeline re-loads data and re-scans counts per Analyze()
// call. The registry is the service's antidote: a table is registered
// once under a name, and every query against it draws counts from a
// per-dataset pool of count engines, *sharded by subpopulation signature*
// (the canonical WHERE rendering — see service/request.h). Concurrent
// queries on the same (dataset, subpopulation) therefore share one
// thread-safe contingency cache instead of each owning a private one.
//
// Storage: each dataset is backed by an AppendOnlyTable (src/storage/) —
// one append-only code buffer per column behind a published row
// watermark. AppendRows() ingests new rows WITHOUT bumping the epoch:
// dictionaries grow append-only so existing codes stay stable, and the
// caching layers patch their summaries by scanning only the appended
// rows (CountsDelta) instead of invalidating. Re-registering a name
// still replaces the store wholesale, bumps the epoch and drops every
// shard; appending never does.
//
// Shards of one dataset also share *across* subpopulations: every dataset
// owns one parent CachingCountEngine over the append-only store (the engine
// the empty signature gets), and a shard whose signature parses to a pure
// equality conjunction P = v is built as a CachingCountEngine over a
// PredicateSlicingCountEngine — its counts over S are derived by slicing
// the parent's shared S ∪ P summary at P = v instead of scanning the
// filtered view (src/engine/predicate_slicing_count_engine.h). Such
// shards carry a live FilteredPopulationProvider so they track appends.
// Signatures with multi-value IN terms or values absent from the
// dictionary get a live isolated stack (cache over a filtered-population
// scanner). Only signatures the parser cannot resolve at all (unknown
// attributes) keep the classic frozen stack over the caller's view —
// those are dropped on the next append, since their view goes stale.
//
// Concurrency: readers take the dataset's shared lease (ReadLease) for a
// request's whole lifetime, so the watermark cannot advance mid-request;
// AppendRows takes the same lease exclusively. Lock order is always
// lease → registry mutex → store mutex.

#ifndef HYPDB_SERVICE_DATASET_REGISTRY_H_
#define HYPDB_SERVICE_DATASET_REGISTRY_H_

#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cube/adaptive_cube_provider.h"
#include "engine/caching_count_engine.h"
#include "engine/count_engine.h"
#include "stats/mi_engine.h"
#include "storage/append_only_table.h"
#include "util/statusor.h"

namespace hypdb {

struct DatasetRegistryOptions {
  /// Count-engine configuration for shard engines (kernel threads, cache
  /// budget, materialization toggle).
  MiEngineOptions engine;
  /// Filtered shard engines kept per dataset (the full-table parent is
  /// exempt); oldest-first eviction beyond this.
  int max_shards_per_dataset = 32;
  /// Serve equality-conjunction shards by slicing the dataset's shared
  /// parent engine (cross-shard reuse). Off, every shard scans its own
  /// filtered view in isolation — the pre-slicing behavior benches use
  /// as the baseline. Requires engine.materialize_focus (an uncached
  /// parent would re-scan the full table per slice, strictly worse than
  /// scanning the filtered view).
  bool cross_shard_slicing = true;

  /// --- cube advisor (active only under engine.materialization ==
  /// kAdaptive; all ignored under kStatic) ---
  /// Seconds between background advisor passes. <= 0 starts no thread;
  /// AdvisorPass() can still be driven manually (tests and benches do).
  double advisor_interval_seconds = 0.0;
  /// Queries a column set must draw within one pass to count as demanded.
  int64_t advisor_min_demand = 2;
  /// Consecutive demanded passes before a column set is hot (promotion
  /// candidate).
  int advisor_hot_passes = 2;
  /// Cap on promoted cube dimensionality (a k-dim cube holds 2^k
  /// cuboids).
  int advisor_max_cube_dims = 8;
};

/// One row of List(): a registered dataset's shape and pool state.
struct DatasetInfo {
  std::string name;
  int64_t epoch = 0;
  int64_t rows = 0;
  int columns = 0;
  int shards = 0;
  /// Storage shape: code bytes the store copied growing its buffers
  /// (AppendOnlyTable::bytes_copied), and the published row
  /// watermark (== rows; reported separately so ingest monitoring reads
  /// the storage-level value, not a derived one).
  int64_t bytes_copied = 0;
  int64_t watermark = 0;
  /// Cache occupancy summed over the dataset's engine pool (parent +
  /// live shards).
  CacheOccupancy cache;
  /// Lattice cells of the advisor-installed cube (0 when none).
  int64_t cube_cells = 0;
  /// Fraction of external count queries the pool answered without a
  /// table scan, 0 when idle.
  double cache_hit_ratio = 0.0;
  /// Cache evictions across the pool (policy-ranked under kAdaptive,
  /// oldest-first under kStatic).
  int64_t evictions = 0;
};

/// Cube-advisor activity counters (monotonic since construction).
struct CubeAdvisorStats {
  /// Completed AdvisorPass() sweeps (manual or background).
  int64_t passes = 0;
  /// Cubes installed (first promotion or hot-set rebuild).
  int64_t promotions = 0;
  /// Installed cubes dropped after going stale on watermark/epoch churn.
  int64_t demotions = 0;
  /// Full-table scans spent building candidate cubes (includes refused
  /// builds).
  int64_t build_scans = 0;
};

/// A held shared (reader) lease on one dataset: while alive, AppendRows
/// on that dataset blocks, so the watermark a request observed stays the
/// watermark for the request's whole body. Movable; releases on destroy.
/// Member order matters: the lock must be destroyed before the mutex
/// reference it holds.
struct DatasetLease {
  std::shared_ptr<std::shared_mutex> mu;
  std::shared_lock<std::shared_mutex> lock;
};

/// Thread-safe. All methods may be called concurrently with each other.
class DatasetRegistry {
 public:
  /// Starts the background advisor thread when the options say adaptive
  /// materialization with a positive advisor interval.
  explicit DatasetRegistry(DatasetRegistryOptions options = {});
  /// Stops and joins the advisor thread (if any).
  ~DatasetRegistry();
  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Registers (or replaces) `table` under `name`. Replacement bumps the
  /// epoch and drops the dataset's engine shards. Returns the new epoch.
  int64_t Register(const std::string& name, TablePtr table);

  /// Loads `path` as CSV and registers it. Returns the new epoch.
  StatusOr<int64_t> RegisterCsv(const std::string& name,
                                const std::string& path);

  /// Appends rows (one label per column, schema order) to `name`'s
  /// store. Serialized against readers via the dataset's lease; does NOT
  /// bump the epoch — shards, sessions and discovery entries survive and
  /// are delta-patched. Frozen shards (stale-view stacks) are dropped.
  /// Returns the new watermark. NotFound for an unknown dataset,
  /// InvalidArgument on arity mismatch (the store is left unchanged).
  StatusOr<int64_t> AppendRows(
      const std::string& name,
      const std::vector<std::vector<std::string>>& rows);

  /// The dataset's shared read lease, held for a request's lifetime.
  StatusOr<DatasetLease> ReadLease(const std::string& name) const;

  StatusOr<TablePtr> Get(const std::string& name) const;
  StatusOr<int64_t> Epoch(const std::string& name) const;
  std::vector<DatasetInfo> List() const;

  /// The dataset's append-only store (for ingest benches and storage
  /// tests).
  StatusOr<std::shared_ptr<const AppendOnlyTable>> Store(
      const std::string& name) const;

  /// A consistent (table, epoch, watermark) triple — the handle a request
  /// works against for its whole lifetime, so a concurrent
  /// re-registration can never mix the old table with the new epoch. The
  /// table is the store materialized at `watermark`; hold the read lease
  /// across the request so the watermark stays current.
  struct Snapshot {
    TablePtr table;
    int64_t epoch = 0;
    int64_t watermark = 0;
  };
  StatusOr<Snapshot> GetSnapshot(const std::string& name) const;

  /// The shared count engine of shard (`name`, `signature`), created over
  /// `population` on first use. Callers pass the bound WHERE view of
  /// their snapshot table; equal signatures select equal row sets by
  /// construction, so later callers may pass their own (content-
  /// identical) view. `epoch` must match the dataset's current epoch —
  /// FailedPrecondition otherwise (the dataset was re-registered since
  /// the caller's snapshot; a stale population must not seed the new
  /// epoch's pool). `watermark`, when >= 0, must match the store's
  /// current watermark — FailedPrecondition otherwise (the caller bound
  /// against a row count the live shared engines no longer answer for;
  /// callers degrade to a private engine over their pinned view). The
  /// empty signature names the dataset's full-table parent engine;
  /// equality-conjunction signatures get slicing shards backed by that
  /// parent (see the header comment). Oldest filtered shards are dropped
  /// beyond max_shards_per_dataset; an evicted parent reference held by
  /// live slicing shards stays valid (shared_ptr), it just stops being
  /// handed out.
  StatusOr<std::shared_ptr<CountEngine>> ShardEngine(
      const std::string& name, int64_t epoch, const std::string& signature,
      const TableView& population, int64_t watermark = -1);

  /// Aggregate count-engine stats across a dataset's live shards plus
  /// its parent engine. Well-defined without double counting: slicing
  /// shards report only their own layer and private fallback scanner,
  /// never the shared parent they draw from.
  StatusOr<CountEngineStats> EngineStats(const std::string& name) const;

  /// One advisor sweep over every dataset (no-op under kStatic
  /// materialization): harvests the parent cache's demand profile,
  /// advances per-column-set hot streaks, drops cubes stranded by
  /// watermark churn (demotion), and builds + installs a cube over the
  /// union of persistently hot column sets (promotion) when its lattice
  /// fits the engine cell budget. Cube builds scan the store OUTSIDE the
  /// registry mutex; concurrent queries are never blocked by a build.
  /// The background thread calls exactly this; tests and benches drive
  /// it manually for determinism.
  void AdvisorPass();

  /// Advisor activity counters (all zero under kStatic).
  CubeAdvisorStats advisor_stats() const;

 private:
  struct Dataset {
    /// The append-only store (append target; all reads derive from it).
    AppendOnlyTablePtr store;
    int64_t epoch = 0;
    /// Reader/writer lease serializing appends against in-flight
    /// requests. Created at first registration and NEVER replaced —
    /// leases held across a re-registration must keep excluding writers.
    std::shared_ptr<std::shared_mutex> lease;
    /// Full-table engine: serves empty-signature queries directly and
    /// superset summaries to the slicing shards. Created on first use,
    /// never LRU-evicted (it is the working set every slice derives
    /// from), dropped on re-registration — but NOT on append (it reads
    /// the live store and patches its cache by delta).
    std::shared_ptr<CountEngine> parent;
    /// Under kAdaptive the parent stack is cache → cube host → store
    /// scanner; these alias the two wrapper layers so the advisor can
    /// harvest demand (parent_cache) and hot-swap cubes (cube_host).
    /// Null under kStatic or before first parent use.
    std::shared_ptr<CachingCountEngine> parent_cache;
    std::shared_ptr<AdaptiveCubeProvider> cube_host;
    /// Advisor state: consecutive passes each demanded column set stayed
    /// hot, and the last hot-set the advisor refused to build (lattice
    /// over budget) — retried only when the hot-set changes.
    std::map<std::vector<int>, int> advisor_streak;
    std::vector<int> advisor_refused_dims;
    std::map<std::string, std::shared_ptr<CountEngine>> shards;
    std::list<std::string> shard_age;  // creation order, oldest first
    /// Signatures whose shard is a frozen stack over the caller's view
    /// (the signature did not resolve against the store). Appends drop
    /// these — their view no longer covers the population.
    std::set<std::string> frozen;
    /// Slices performed by since-evicted shards: each one was an internal
    /// query on the parent, and EngineStats must keep subtracting them
    /// after the shard (and its predicate_slices counter) is gone.
    int64_t retired_slices = 0;
  };

  /// The options_.engine kernel configuration for scanners.
  GroupByKernelOptions KernelOptions() const;
  /// Wraps `base` in a CachingCountEngine under the options_ budget (and
  /// the options_ materialization policy), or returns it unchanged when
  /// materialization is disabled. Every engine stack the registry builds
  /// goes through this one function, so parent and shards can never
  /// diverge in cache configuration. `track_demand` turns on the per-key
  /// demand profile the cube advisor harvests (parent engines only — a
  /// shard's demand is not cube-promotable).
  std::shared_ptr<CountEngine> WrapCache(std::shared_ptr<CountEngine> base,
                                         bool track_demand = false) const;
  /// The classic frozen stack: kernel-backed scanner over `view` +
  /// WrapCache. Static — no delta protocol.
  std::shared_ptr<CountEngine> CachedScanStack(const TableView& view) const;

  /// ds.parent, created over the store if absent. Requires mu_.
  std::shared_ptr<CountEngine> ParentEngineLocked(Dataset& ds);

  /// A new engine for `signature` over `population`: a slicing stack
  /// through the shared parent when the signature is a pure equality
  /// conjunction (and slicing is enabled), a live isolated stack over a
  /// FilteredPopulationProvider when the signature resolves against the
  /// store, the frozen scanner+cache stack otherwise (recorded in
  /// ds.frozen for drop-on-append). Requires mu_.
  std::shared_ptr<CountEngine> BuildShardLocked(
      Dataset& ds, const std::string& signature,
      const TableView& population);

  /// True when every caching layer runs the adaptive policy (and the
  /// advisor is worth running at all).
  bool Adaptive() const {
    return options_.engine.materialization == MaterializationMode::kAdaptive;
  }

  /// EngineStats body without the lookup/lock. Requires mu_.
  CountEngineStats EngineStatsLocked(const Dataset& ds) const;

  /// Background advisor: AdvisorPass every advisor_interval_seconds
  /// until destruction.
  void AdvisorLoop();

  mutable std::mutex mu_;
  DatasetRegistryOptions options_;
  std::map<std::string, Dataset> datasets_;
  CubeAdvisorStats advisor_;  // guarded by mu_

  std::mutex advisor_mu_;
  std::condition_variable advisor_cv_;
  bool advisor_stop_ = false;  // guarded by advisor_mu_
  std::thread advisor_thread_;
};

}  // namespace hypdb

#endif  // HYPDB_SERVICE_DATASET_REGISTRY_H_
