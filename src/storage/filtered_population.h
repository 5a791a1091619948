// FilteredPopulationProvider: a growing WHERE-subpopulation over an
// AppendOnlyTable.
//
// A subpopulation shard used to freeze its row subset at creation (a
// TableView over the table as of then). With incremental ingest the
// population itself grows: appended rows that match the shard's WHERE
// conjunction belong to it. This provider keeps the matching row-id
// list *incrementally extended* — on each use it evaluates the
// predicate over only the rows appended since the last extension — and
// implements the delta protocol so a CachingCountEngine above it can
// patch cached subpopulation summaries the same way full-table ones
// are patched: PopulationVersion() is the store's row watermark (NOT
// the matching-row count, which is why caching layers track versions
// explicitly) and CountsDelta(from, to) scans only the matching rows
// appended in [from, to).
//
// Terms are conjunctive `attr IN {labels}` (OR within a term, AND
// across terms), the service's canonical subpopulation signature. Label
// codes are re-resolved at every extension, so a label that first
// appears in an appended batch starts matching from that batch on —
// exactly what a cold filter of the grown table produces.

#ifndef HYPDB_STORAGE_FILTERED_POPULATION_H_
#define HYPDB_STORAGE_FILTERED_POPULATION_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/count_engine.h"
#include "storage/append_only_table.h"

namespace hypdb {

class FilteredPopulationProvider : public CountEngine {
 public:
  /// One conjunct: column `attribute` IN `labels`.
  struct Term {
    std::string attribute;
    std::vector<std::string> labels;
  };

  /// Fails (NotFound) when a term names a column absent from the schema.
  /// Label values need not exist yet — they may arrive with a later
  /// append.
  static StatusOr<std::shared_ptr<FilteredPopulationProvider>> Create(
      std::shared_ptr<const AppendOnlyTable> table, std::vector<Term> terms,
      GroupByKernelOptions kernel = {});

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override;

  /// Matching rows at the current watermark (extends the id list).
  int64_t NumRows() const override;

  int64_t PopulationVersion() const override { return table_->Watermark(); }

  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override;

  CountEngineStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = {};
  }

 private:
  FilteredPopulationProvider(std::shared_ptr<const AppendOnlyTable> table,
                             std::vector<std::pair<int, std::vector<std::string>>>
                                 terms,
                             GroupByKernelOptions kernel)
      : table_(std::move(table)), terms_(std::move(terms)), kernel_(kernel) {}

  // Extends the matching-id list to the current watermark and returns a
  // consistent (table, ids) snapshot.
  struct Snapshot {
    TablePtr table;
    std::shared_ptr<const std::vector<int64_t>> ids;
    int64_t watermark = 0;
  };
  Snapshot Extend() const;

  void CountScanned(const StatusOr<GroupCounts>& counts, int64_t rows);

  std::shared_ptr<const AppendOnlyTable> table_;
  const std::vector<std::pair<int, std::vector<std::string>>> terms_;
  GroupByKernelOptions kernel_;

  mutable std::mutex mu_;  // guards the extension state below
  mutable int64_t extended_ = 0;
  mutable TablePtr materialized_;
  mutable std::shared_ptr<const std::vector<int64_t>> ids_ =
      std::make_shared<const std::vector<int64_t>>();

  mutable std::mutex stats_mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_STORAGE_FILTERED_POPULATION_H_
