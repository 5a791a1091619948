// Tests for src/storage: the append-only column store (buffer adoption,
// geometric growth under concurrent readers, watermark publication, delta
// scans), summary merging across dictionary
// growth, growing filtered populations, and the caching engine's delta
// patching — every patched summary must be bit-identical to a cold
// rebuild of the grown table (the additive-counts property the whole
// ingest path rests on).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataframe/group_by.h"
#include "engine/caching_count_engine.h"
#include "engine/groupby_kernel.h"
#include "storage/append_only_count_provider.h"
#include "storage/append_only_table.h"
#include "storage/filtered_population.h"
#include "util/rng.h"

namespace hypdb {
namespace {

using Rows = std::vector<std::vector<std::string>>;

// Labels "v0".."v<card-1>", so later batches with a larger `card` grow
// the dictionaries mid-stream.
Rows RandomRows(int64_t n, int cols, int card, Rng* rng) {
  Rows rows;
  rows.reserve(n);
  for (int64_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    row.reserve(cols);
    for (int c = 0; c < cols; ++c) {
      row.push_back("v" + std::to_string(rng->NextBounded(card)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TablePtr TableFromRows(const std::vector<std::string>& names,
                       const Rows& rows) {
  Table table;
  for (size_t c = 0; c < names.size(); ++c) {
    ColumnBuilder b(names[c]);
    for (const auto& row : rows) b.Append(row[c]);
    EXPECT_TRUE(table.AddColumn(b.Finish()).ok());
  }
  return MakeTable(std::move(table));
}

void ExpectSameCounts(const GroupCounts& a, const GroupCounts& b) {
  ASSERT_EQ(a.NumGroups(), b.NumGroups());
  EXPECT_EQ(a.total, b.total);
  ASSERT_EQ(a.codec.cols(), b.codec.cols());
  for (int g = 0; g < a.NumGroups(); ++g) {
    EXPECT_EQ(a.keys[g], b.keys[g]) << "group " << g;
    EXPECT_EQ(a.counts[g], b.counts[g]) << "group " << g;
  }
}

// ---- buffer layout, growth & publication -------------------------------

TEST(AppendOnlyTableTest, FromTableAdoptsSeedBuffers) {
  Rng rng(11);
  Rows seed_rows = RandomRows(10, 2, 3, &rng);
  TablePtr seed = TableFromRows({"a", "b"}, seed_rows);
  auto table = AppendOnlyTable::FromTable(seed);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->Watermark(), 10);
  EXPECT_EQ((*table)->NumColumns(), 2);

  // Registration copies nothing: the seed is the initial snapshot.
  EXPECT_EQ((*table)->bytes_copied(), 0);
  EXPECT_EQ((*table)->Materialized(), seed);

  // Materialized round-trips the seed exactly.
  auto cold = ScanCounts(TableView(TableFromRows({"a", "b"}, seed_rows)),
                         {0, 1});
  auto warm = ScanCounts(TableView((*table)->Materialized()), {0, 1});
  ASSERT_TRUE(cold.ok() && warm.ok());
  ExpectSameCounts(*warm, *cold);
}

TEST(AppendOnlyTableTest, FromTableRejectsNullSeed) {
  EXPECT_FALSE(AppendOnlyTable::FromTable(nullptr).ok());
}

TEST(AppendOnlyTableTest, AppendPublishesAtomicallyAndValidatesArity) {
  Rng rng(13);
  TablePtr seed = TableFromRows({"a", "b"}, RandomRows(5, 2, 3, &rng));
  auto table = AppendOnlyTable::FromTable(seed);
  ASSERT_TRUE(table.ok());

  // Wrong arity: nothing appended, watermark unchanged.
  EXPECT_FALSE((*table)->Append({{"v0"}}).ok());
  EXPECT_EQ((*table)->Watermark(), 5);

  // Empty batch: valid no-op.
  EXPECT_TRUE((*table)->Append({}).ok());
  EXPECT_EQ((*table)->Watermark(), 5);
  EXPECT_EQ((*table)->bytes_copied(), 0);

  // A batch past the adopted capacity lands whole, after one copy of
  // the 5 seed rows x 2 columns of int32 codes. The seed is untouched.
  EXPECT_TRUE((*table)->Append(RandomRows(6, 2, 3, &rng)).ok());
  EXPECT_EQ((*table)->Watermark(), 11);
  EXPECT_EQ((*table)->bytes_copied(), 5 * 2 * 4);
  EXPECT_EQ(seed->NumRows(), 5);
  EXPECT_EQ(seed->column(0).buffer()->size(), 5u);
  EXPECT_EQ((*table)->Materialized()->NumRows(), 11);
}

TEST(AppendOnlyTableTest, SnapshotOfAnotherStoreIsASafeSeed) {
  // Re-registering a live dataset's snapshot: the seed's buffer has
  // spare rows the first store still writes into, so the second store
  // must copy before its first append instead of writing there too.
  Rng rng(16);
  Rows first = RandomRows(6, 2, 3, &rng);
  auto a = AppendOnlyTable::FromTable(TableFromRows({"x", "y"}, first));
  ASSERT_TRUE(a.ok());
  Rows grow = RandomRows(1, 2, 3, &rng);
  ASSERT_TRUE((*a)->Append(grow).ok());  // 7 rows in a 12-row buffer
  first.insert(first.end(), grow.begin(), grow.end());
  auto b = AppendOnlyTable::FromTable((*a)->Materialized());
  ASSERT_TRUE(b.ok());

  Rows more_a = RandomRows(3, 2, 4, &rng);
  Rows more_b = RandomRows(3, 2, 5, &rng);
  ASSERT_TRUE((*a)->Append(more_a).ok());
  ASSERT_TRUE((*b)->Append(more_b).ok());
  EXPECT_EQ((*b)->bytes_copied(), 7 * 2 * 4);

  Rows rows_a = first, rows_b = first;
  rows_a.insert(rows_a.end(), more_a.begin(), more_a.end());
  rows_b.insert(rows_b.end(), more_b.begin(), more_b.end());
  for (const auto& [store, rows] :
       {std::pair{*a, rows_a}, std::pair{*b, rows_b}}) {
    auto cold = ScanCounts(TableView(TableFromRows({"x", "y"}, rows)), {0, 1});
    auto warm = ScanCounts(TableView(store->Materialized()), {0, 1});
    ASSERT_TRUE(cold.ok() && warm.ok());
    ExpectSameCounts(*warm, *cold);
  }
}

TEST(AppendOnlyTableTest, BufferGrowthIsGeometricAndSnapshotsShareIt) {
  Rng rng(15);
  Rows all = RandomRows(8, 3, 4, &rng);
  auto table = AppendOnlyTable::FromTable(TableFromRows({"a", "b", "c"}, all));
  ASSERT_TRUE(table.ok());

  int growths = 0;
  for (int step = 0; step < 200; ++step) {
    TablePtr before = (*table)->Materialized();
    Rows batch = RandomRows(1 + rng.NextBounded(5), 3, 4, &rng);
    all.insert(all.end(), batch.begin(), batch.end());
    ASSERT_TRUE((*table)->Append(batch).ok());
    TablePtr after = (*table)->Materialized();
    ASSERT_NE(after, before);  // a new snapshot per watermark
    EXPECT_EQ(before->NumRows(),
              static_cast<int64_t>(all.size() - batch.size()));
    ASSERT_EQ(after->NumRows(), static_cast<int64_t>(all.size()));

    // `before` keeps its buffer alive, so a new buffer cannot reuse its
    // address: a pointer change is exactly one reallocation.
    if (after->column(0).buffer() != before->column(0).buffer()) {
      ++growths;
    } else {
      // No growth: both snapshots read one buffer, every column.
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(before->column(c).buffer(), after->column(c).buffer());
      }
    }
    // Doubling: the copies so far stay below twice the live code bytes.
    EXPECT_LT((*table)->bytes_copied(),
              2 * after->NumRows() * 3 * static_cast<int64_t>(sizeof(int32_t)));
  }
  // ~600 rows from 8: log2(600 / 8) < 7 doublings, not one per batch.
  EXPECT_GE(growths, 3);
  EXPECT_LE(growths, 7);

  // The grown store still reads back exactly.
  auto cold = ScanCounts(TableView(TableFromRows({"a", "b", "c"}, all)),
                         {0, 1, 2});
  auto warm = ScanCounts(TableView((*table)->Materialized()), {0, 1, 2});
  ASSERT_TRUE(cold.ok() && warm.ok());
  ExpectSameCounts(*warm, *cold);
}

TEST(AppendOnlyTableTest, DeltaScanReadsOnlyAppendedRows) {
  Rng rng(14);
  Rows all = RandomRows(20, 2, 3, &rng);
  Rows seed(all.begin(), all.begin() + 8);
  auto table = AppendOnlyTable::FromTable(TableFromRows({"a", "b"}, seed));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(Rows(all.begin() + 8, all.end())).ok());

  // Delta over the appended suffix: exactly its 12 rows are read.
  AppendOnlyCountProvider provider(*table);
  auto delta = provider.CountsDelta({0, 1}, 8, 20);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(provider.stats().rows_scanned, 12);
  EXPECT_EQ(provider.stats().scans, 1);
  EXPECT_EQ(delta->total, 12);

  // The delta is exactly the cold counts of the suffix rows.
  auto cold = ScanCounts(
      TableView(TableFromRows({"a", "b"},
                              Rows(all.begin() + 8, all.end()))),
      {0, 1});
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(delta->NumGroups(), cold->NumGroups());
  EXPECT_EQ(delta->total, cold->total);

  // Out-of-range to_row is an error, not a quiet clamp.
  EXPECT_FALSE(provider.CountsDelta({0}, 0, 21).ok());
  EXPECT_FALSE(provider.CountsDelta({0}, 5, 4).ok());
}

// ---- MergeGroupCounts across dictionary growth -------------------------

TEST(MergeGroupCountsTest, ReKeysOntoGrownCodec) {
  // A prefix summary computed under the pre-append (smaller) codec plus
  // a delta summary under the grown codec must merge onto the grown
  // codec to exactly one scan of the whole table. Dictionary codes are
  // append-only, so the prefix's codes mean the same thing afterwards —
  // the property MergeGroupCounts rests on.
  Rows first = {{"v0", "v0"}, {"v1", "v0"}, {"v0", "v1"}};
  Rows second = {{"v0", "v2"}, {"v2", "v1"}, {"v1", "v2"}, {"v2", "v2"}};
  auto table = AppendOnlyTable::FromTable(TableFromRows({"x", "y"}, first));
  ASSERT_TRUE(table.ok());

  AppendOnlyCountProvider provider(*table);
  auto a = provider.Counts({0, 1});  // small codec
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*table)->Append(second).ok());
  auto b = provider.CountsDelta({0, 1}, 3, 7);  // grown codec
  auto full = provider.Counts({0, 1});
  ASSERT_TRUE(b.ok() && full.ok());
  ASSERT_LT(a->codec.Domain(), full->codec.Domain());

  GroupCounts merged = MergeGroupCounts(*a, *b, full->codec);
  ExpectSameCounts(merged, *full);

  // Merging with an empty summary is the identity (re-keyed).
  GroupCounts empty;
  empty.codec = a->codec;
  GroupCounts same = MergeGroupCounts(*full, empty, full->codec);
  ExpectSameCounts(same, *full);
}

// ---- the property: delta-patched counts == cold rebuild ----------------

TEST(StoragePropertyTest, DeltaScansMatchColdRebuildAcrossConfigs) {
  // Sweep seed sizes (which moves every buffer growth point) x batch
  // sizes x kernel threading; at every step, counts from the store (full
  // and delta) must be bit-identical to a cold scan of the grown table.
  // Batches include empties and grow the dictionaries mid-stream
  // (card 2 -> 7).
  const std::vector<int64_t> kSeedRows = {0, 1, 7, 20};
  const std::vector<int> kThreads = {1, 4};
  const std::vector<std::vector<int>> kColSets = {{0}, {1, 2}, {0, 1, 2}};

  for (int64_t seed_rows : kSeedRows) {
    for (int threads : kThreads) {
      Rng rng(100 * seed_rows + threads);
      GroupByKernelOptions kernel;
      kernel.num_threads = threads;
      kernel.parallel_min_rows = 16;  // exercise the threaded path

      Rows all = RandomRows(seed_rows, 3, 2, &rng);
      auto table =
          AppendOnlyTable::FromTable(TableFromRows({"a", "b", "c"}, all));
      ASSERT_TRUE(table.ok());
      AppendOnlyCountProvider provider(*table, kernel);

      int64_t last = (*table)->Watermark();
      for (int step = 0; step < 6; ++step) {
        const int card = 2 + step;  // dictionary growth mid-stream
        Rows batch =
            RandomRows(rng.NextBounded(3) == 0 ? 0 : rng.NextBounded(40),
                       3, card, &rng);
        all.insert(all.end(), batch.begin(), batch.end());
        ASSERT_TRUE((*table)->Append(batch).ok());
        ASSERT_EQ((*table)->Watermark(),
                  static_cast<int64_t>(all.size()));

        TablePtr cold_table = TableFromRows({"a", "b", "c"}, all);
        for (const auto& cols : kColSets) {
          auto cold = ScanCounts(TableView(cold_table), cols, kernel);
          auto warm = provider.Counts(cols);
          ASSERT_TRUE(cold.ok() && warm.ok());
          ExpectSameCounts(*warm, *cold);

          // Delta + prefix == full, under the grown codec.
          auto prefix = provider.CountsDelta(cols, 0, last);
          auto delta =
              provider.CountsDelta(cols, last, (*table)->Watermark());
          ASSERT_TRUE(prefix.ok() && delta.ok());
          GroupCounts patched =
              MergeGroupCounts(*prefix, *delta, cold->codec);
          ExpectSameCounts(patched, *cold);
        }
        last = (*table)->Watermark();
      }
    }
  }
}

TEST(StoragePropertyTest, CachingEngineDeltaPatchMatchesColdRebuild) {
  // The end-to-end engine property: a CachingCountEngine over the
  // store's provider answers post-append queries by patching its cached
  // summaries; results must equal a cold rebuild and the work must be a
  // delta, not a rescan.
  Rng rng(42);
  Rows all = RandomRows(200, 3, 3, &rng);
  auto table =
      AppendOnlyTable::FromTable(TableFromRows({"a", "b", "c"}, all));
  ASSERT_TRUE(table.ok());

  auto cache = std::make_shared<CachingCountEngine>(
      std::make_shared<AppendOnlyCountProvider>(*table));
  const std::vector<int> cols = {0, 1};
  ASSERT_TRUE(cache->Counts(cols).ok());  // warm the cache

  for (int step = 0; step < 4; ++step) {
    Rows batch = RandomRows(25, 3, 3 + step, &rng);
    all.insert(all.end(), batch.begin(), batch.end());
    ASSERT_TRUE((*table)->Append(batch).ok());

    auto patched = cache->Counts(cols);
    auto cold =
        ScanCounts(TableView(TableFromRows({"a", "b", "c"}, all)), cols);
    ASSERT_TRUE(patched.ok() && cold.ok());
    ExpectSameCounts(*patched, *cold);
  }

  const CountEngineStats stats = cache->stats();
  EXPECT_EQ(stats.delta_patches, 4);
  // One cold scan of the 200 seed rows to warm the cache, then each
  // patch read exactly its 25 appended rows: strictly less work than
  // one cold rescan per step would have been.
  EXPECT_EQ(stats.rows_scanned, 200 + 4 * 25);
  EXPECT_LT(stats.rows_scanned,
            static_cast<int64_t>(all.size()) * 4);
}

// ---- concurrency: growth under readers (the TSan target) ---------------

bool SameCounts(const GroupCounts& a, const GroupCounts& b) {
  return a.total == b.total && a.codec.cols() == b.codec.cols() &&
         a.keys == b.keys && a.counts == b.counts;
}

TEST(StorageConcurrencyTest, ReadersScanWhileWriterGrowsBuffers) {
  // A reader holds one snapshot and keeps scanning it, and another keeps
  // taking fresh snapshots, while a writer appends enough rows to
  // reallocate every buffer at least 3 more times. The held snapshot is
  // taken after the first growth, so the writer first fills the rest of
  // that very buffer under it. Every scan must read exactly its own
  // prefix, whatever the writer does past it.
  // Batches do not tile the capacities, so every growth happens with
  // rows still free in the old buffer: 60 -> 1020 rows in buffers of
  // 120, 240, 480, 960 and 1920 rows.
  constexpr int64_t kSeedRows = 60;
  constexpr int64_t kBatchRows = 24;
  constexpr int kBatches = 40;
  const std::vector<std::string> kNames = {"a", "b", "c"};
  const std::vector<int> kCols = {0, 1, 2};
  Rng rng(77);
  Rows all = RandomRows(kSeedRows + kBatchRows * kBatches, 3, 4, &rng);

  // Cold ground truth for every batch-boundary prefix.
  std::vector<GroupCounts> cold;
  for (int b = 0; b <= kBatches; ++b) {
    Rows prefix(all.begin(), all.begin() + kSeedRows + b * kBatchRows);
    auto counts = ScanCounts(TableView(TableFromRows(kNames, prefix)), kCols);
    ASSERT_TRUE(counts.ok());
    cold.push_back(*counts);
  }
  auto cold_at = [&](int64_t rows) -> const GroupCounts& {
    return cold[static_cast<size_t>((rows - kSeedRows) / kBatchRows)];
  };

  auto table = AppendOnlyTable::FromTable(TableFromRows(
      kNames, Rows(all.begin(), all.begin() + kSeedRows)));
  ASSERT_TRUE(table.ok());
  const AppendOnlyTablePtr store = *table;
  // The previous snapshot stays alive until the next one is taken, so a
  // reallocated buffer never reuses its address: a change is one growth.
  TablePtr last = store->Materialized();
  int growths = 0;
  auto append_batch = [&](int b) {
    const auto first = all.begin() + kSeedRows + (b - 1) * kBatchRows;
    // EXPECT, not ASSERT: returning early would leave readers running.
    EXPECT_TRUE(store->Append(Rows(first, first + kBatchRows)).ok());
    const TablePtr snap = store->Materialized();
    if (snap->column(0).buffer() != last->column(0).buffer()) ++growths;
    last = snap;
    auto counts = ScanCounts(TableView(snap), kCols);
    EXPECT_TRUE(counts.ok() && SameCounts(*counts, cold[b]))
        << "after batch " << b;
  };
  append_batch(1);  // 60 -> 84 rows in a 120-row buffer

  GroupByKernelOptions parallel;
  parallel.num_threads = 2;
  parallel.parallel_min_rows = 16;

  std::atomic<bool> done{false};
  std::atomic<int64_t> scans{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> readers;
  // Reader 1: one held snapshot, scanned over and over.
  readers.emplace_back([&] {
    const TablePtr held = store->Materialized();
    do {
      auto counts = ScanCounts(TableView(held), kCols, parallel);
      if (!counts.ok() || !SameCounts(*counts, cold_at(held->NumRows()))) {
        ++mismatches;
      }
      ++scans;
    } while (!done.load());
  });
  // Reader 2: a fresh snapshot per scan, so it reads across growths.
  readers.emplace_back([&] {
    do {
      const TablePtr snap = store->Materialized();
      auto counts = ScanCounts(TableView(snap), kCols);
      if (!counts.ok() || !SameCounts(*counts, cold_at(snap->NumRows()))) {
        ++mismatches;
      }
      ++scans;
    } while (!done.load());
  });

  while (scans.load() < 2) std::this_thread::yield();  // readers are live
  for (int b = 2; b <= kBatches; ++b) append_batch(b);
  done.store(true);
  for (std::thread& t : readers) t.join();

  // 60 (seed) -> 120 -> 240 -> 480 -> 960 -> 1920 rows: the first growth
  // before the readers started, 4 under them.
  EXPECT_EQ(growths, 5);
  EXPECT_GT(scans.load(), 2);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store->Watermark(), static_cast<int64_t>(all.size()));
}

// ---- growing filtered populations --------------------------------------

TEST(FilteredPopulationTest, GrowsWithAppendsAndMatchesColdFilter) {
  Rows seed = {{"x", "v0"}, {"y", "v1"}, {"x", "v1"}, {"y", "v0"}};
  auto table = AppendOnlyTable::FromTable(TableFromRows({"g", "o"}, seed));
  ASSERT_TRUE(table.ok());

  auto shard = FilteredPopulationProvider::Create(
      *table, {{"g", {"x"}}});
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->NumRows(), 2);

  auto before = (*shard)->Counts({1});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->total, 2);

  // Appended matching rows join the population; others don't.
  ASSERT_TRUE(
      (*table)->Append({{"x", "v2"}, {"y", "v2"}, {"x", "v0"}}).ok());
  EXPECT_EQ((*shard)->NumRows(), 4);
  auto after = (*shard)->Counts({1});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->total, 4);

  // Delta over the appended range covers exactly the two new matches.
  auto delta = (*shard)->CountsDelta({1}, 4, 7);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->total, 2);

  // Unknown column is a creation-time error.
  EXPECT_FALSE(
      FilteredPopulationProvider::Create(*table, {{"nope", {"x"}}}).ok());
}

TEST(FilteredPopulationTest, LabelArrivingInLaterAppendStartsMatching) {
  Rows seed = {{"x", "v0"}, {"y", "v1"}};
  auto table = AppendOnlyTable::FromTable(TableFromRows({"g", "o"}, seed));
  ASSERT_TRUE(table.ok());

  // "z" doesn't exist yet; the shard is just empty, not an error.
  auto shard =
      FilteredPopulationProvider::Create(*table, {{"g", {"z"}}});
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ((*shard)->NumRows(), 0);

  ASSERT_TRUE((*table)->Append({{"z", "v0"}, {"x", "v1"}}).ok());
  EXPECT_EQ((*shard)->NumRows(), 1);
  auto counts = (*shard)->Counts({1});
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->total, 1);
}

}  // namespace
}  // namespace hypdb
