// AppendOnlyTable: the append-friendly storage layer under a dataset.
//
// A registered dataset used to be one monolithic immutable Table; any
// refresh meant re-registering, which bumps the epoch and cold-drops
// every cache, shard, session and discovery entry. Production traffic
// appends, it doesn't reload — and because every HypDB statistic reduces
// to additive count(*) GROUP BY summaries (paper Sec. 6), appended rows
// can *patch* cached summaries instead of invalidating them. All the
// store has to offer is a snapshot of rows [0, W) and a scan of rows
// [from, to), both over one set of codes.
//
// Layout: per column, one append-only buffer of dictionary codes; the
// dataset lives in memory once. Invariants, in order of importance:
//  * Snapshots share the buffers: Materialized() at watermark W is a
//    Table whose columns read the first W codes of the store's buffers.
//    Taking one costs O(columns + dictionary labels), never O(rows).
//  * The watermark is the single publication point: Append() writes
//    codes at rows >= W, then release-stores the new row count. A
//    snapshot only reads rows below its own length, and writes to
//    distinct std::vector elements never race with those reads, so
//    snapshot scans take no lock.
//  * Growth never moves rows under a reader: when a batch does not fit,
//    Append() allocates a buffer of at least twice the capacity, copies
//    rows [0, W) and swaps it in under the mutex. Older snapshots keep
//    the old buffer alive. Doubling keeps the bytes ever copied below
//    twice the final code bytes (bytes_copied()).
//  * Registration adopts the seed table's buffers instead of copying
//    them. The store's capacity starts at the seed's row count, so the
//    first append makes the first copy and a seed buffer is never
//    written.
//  * Dictionaries grow append-only: a label's code never changes, so
//    codes written yesterday mean the same thing after any number of
//    appends, and summaries keyed under an older (smaller-cardinality)
//    codec re-key exactly onto a newer one (MergeGroupCounts).
//
// Writer concurrency: Append() assumes external serialization (the
// DatasetRegistry holds the dataset's exclusive ingest lease around it).
// Readers take the internal mutex only to take a snapshot.

#ifndef HYPDB_STORAGE_APPEND_ONLY_TABLE_H_
#define HYPDB_STORAGE_APPEND_ONLY_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dataframe/table.h"
#include "util/statusor.h"

namespace hypdb {

class AppendOnlyTable {
 public:
  /// Builds a store from an existing monolithic table (the CSV /
  /// generator load path): the seed's dictionaries become the initial
  /// append-only dictionaries and its code buffers are adopted as-is.
  static StatusOr<std::shared_ptr<AppendOnlyTable>> FromTable(
      const TablePtr& seed);

  /// Appends rows. Each row carries one label per column in schema
  /// order; new labels extend the dictionaries append-only. Rows become
  /// visible atomically: a reader sees either the pre-append or the
  /// post-append watermark, never a partial batch. Empty batches are
  /// valid no-ops. Errors (wrong arity) leave the table unchanged.
  /// Requires external write serialization (the registry's ingest lease).
  Status Append(const std::vector<std::vector<std::string>>& rows);

  /// Published row count — the global watermark (acquire; pairs with
  /// Append's release store).
  int64_t Watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  int64_t NumRows() const { return Watermark(); }

  int NumColumns() const { return static_cast<int>(names_.size()); }
  const std::vector<std::string>& ColumnNames() const { return names_; }

  /// The rows [0, watermark) as an immutable Table that shares the
  /// store's code buffers, with the dictionaries as of that watermark.
  /// Cached per watermark, so repeated calls between appends return the
  /// same TablePtr (TableView::CacheKey is keyed on table identity).
  /// This is what binding, views, sessions and count scans read.
  TablePtr Materialized() const;

  /// Code bytes copied by buffer growth since construction.
  int64_t bytes_copied() const;

 private:
  explicit AppendOnlyTable(std::vector<std::string> names)
      : names_(std::move(names)) {}

  // Reallocates every buffer to `capacity` rows, keeping rows [0, rows).
  // Requires mu_.
  void GrowLocked(int64_t rows, int64_t capacity);

  const std::vector<std::string> names_;

  // Guards the buffer pointers, capacity_, dicts_, bytes_copied_ and the
  // materialized cache. Codes below the watermark are immutable and read
  // without it.
  mutable std::mutex mu_;
  // Per column, codes of rows [0, capacity_); rows at or past the
  // watermark are writer-private. The buffers may be longer than
  // capacity_ (an adopted seed's buffer); the store never writes there.
  std::vector<std::shared_ptr<CodeBuffer>> buffers_;
  int64_t capacity_ = 0;
  std::vector<Dictionary> dicts_;
  int64_t bytes_copied_ = 0;

  std::atomic<int64_t> watermark_{0};

  mutable int64_t materialized_watermark_ = -1;
  mutable TablePtr materialized_;
};

using AppendOnlyTablePtr = std::shared_ptr<AppendOnlyTable>;

}  // namespace hypdb

#endif  // HYPDB_STORAGE_APPEND_ONLY_TABLE_H_
