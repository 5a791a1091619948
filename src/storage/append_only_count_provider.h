// AppendOnlyCountProvider: the ground-truth CountEngine over an
// AppendOnlyTable.
//
// Where ViewCountProvider scans one immutable view, this provider scans
// the store's snapshot at the current watermark and implements the delta
// protocol: its PopulationVersion() is the store's row watermark and
// CountsDelta(from, to) scans only rows [from, to) of that snapshot. A
// CachingCountEngine stacked on top therefore patches stale summaries
// instead of re-scanning — the delta-maintained contingency tables of
// Sec. 6 carried over to a growing dataset.

#ifndef HYPDB_STORAGE_APPEND_ONLY_COUNT_PROVIDER_H_
#define HYPDB_STORAGE_APPEND_ONLY_COUNT_PROVIDER_H_

#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "engine/count_engine.h"
#include "engine/groupby_kernel.h"
#include "storage/append_only_table.h"

namespace hypdb {

class AppendOnlyCountProvider : public CountEngine {
 public:
  explicit AppendOnlyCountProvider(
      std::shared_ptr<const AppendOnlyTable> table,
      GroupByKernelOptions kernel = {})
      : table_(std::move(table)), kernel_(kernel) {}

  StatusOr<GroupCounts> Counts(const std::vector<int>& cols) override {
    return Scan(TableView(table_->Materialized()), cols);
  }

  int64_t NumRows() const override { return table_->Watermark(); }
  int64_t PopulationVersion() const override { return table_->Watermark(); }

  StatusOr<GroupCounts> CountsDelta(const std::vector<int>& cols,
                                    int64_t from_version,
                                    int64_t to_version) override {
    if (from_version < 0 || to_version < from_version) {
      return Status::InvalidArgument("invalid delta range");
    }
    TablePtr snapshot = table_->Materialized();
    if (to_version > snapshot->NumRows()) {
      return Status::OutOfRange("delta range exceeds the published watermark");
    }
    std::vector<int64_t> ids(static_cast<size_t>(to_version - from_version));
    std::iota(ids.begin(), ids.end(), from_version);
    return Scan(TableView(std::move(snapshot),
                          std::make_shared<const std::vector<int64_t>>(
                              std::move(ids))),
                cols);
  }

  CountEngineStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = {};
  }

 private:
  StatusOr<GroupCounts> Scan(const TableView& view,
                             const std::vector<int>& cols) {
    StatusOr<GroupCounts> counts = ScanCounts(view, cols, kernel_);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    if (counts.ok()) {
      ++stats_.scans;
      stats_.rows_scanned += view.NumRows();
    }
    return counts;
  }

  std::shared_ptr<const AppendOnlyTable> table_;
  GroupByKernelOptions kernel_;
  mutable std::mutex mu_;
  CountEngineStats stats_;
};

}  // namespace hypdb

#endif  // HYPDB_STORAGE_APPEND_ONLY_COUNT_PROVIDER_H_
