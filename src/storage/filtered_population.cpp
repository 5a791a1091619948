#include "storage/filtered_population.h"

#include <algorithm>
#include <unordered_set>

namespace hypdb {

StatusOr<std::shared_ptr<FilteredPopulationProvider>>
FilteredPopulationProvider::Create(std::shared_ptr<const AppendOnlyTable> table,
                                   std::vector<Term> terms,
                                   GroupByKernelOptions kernel) {
  if (!table) return Status::InvalidArgument("null append-only table");
  std::vector<std::pair<int, std::vector<std::string>>> resolved;
  resolved.reserve(terms.size());
  const std::vector<std::string>& names = table->ColumnNames();
  for (Term& t : terms) {
    auto it = std::find(names.begin(), names.end(), t.attribute);
    if (it == names.end()) {
      return Status::NotFound("unknown column in subpopulation term: " +
                              t.attribute);
    }
    resolved.emplace_back(static_cast<int>(it - names.begin()),
                          std::move(t.labels));
  }
  return std::shared_ptr<FilteredPopulationProvider>(
      new FilteredPopulationProvider(std::move(table), std::move(resolved),
                                     kernel));
}

FilteredPopulationProvider::Snapshot FilteredPopulationProvider::Extend()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t w = table_->Watermark();
  if (extended_ < w || !materialized_) {
    TablePtr mat = table_->Materialized();
    // Re-resolve label codes: append-only dictionaries keep old codes
    // stable, and labels that arrived since last time start matching now.
    std::vector<std::pair<int, std::unordered_set<int32_t>>> codes;
    codes.reserve(terms_.size());
    for (const auto& [col, labels] : terms_) {
      std::unordered_set<int32_t> set;
      for (const std::string& label : labels) {
        const int32_t code = mat->column(col).dict().Find(label);
        if (code >= 0) set.insert(code);
      }
      codes.emplace_back(col, std::move(set));
    }
    std::vector<int64_t> ids(*ids_);
    for (int64_t row = extended_; row < w; ++row) {
      bool match = true;
      for (const auto& [col, set] : codes) {
        if (set.count(mat->column(col).CodeAt(row)) == 0) {
          match = false;
          break;
        }
      }
      if (match) ids.push_back(row);
    }
    ids_ = std::make_shared<const std::vector<int64_t>>(std::move(ids));
    materialized_ = std::move(mat);
    extended_ = w;
  }
  return Snapshot{materialized_, ids_, extended_};
}

void FilteredPopulationProvider::CountScanned(
    const StatusOr<GroupCounts>& counts, int64_t rows) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.queries;
  if (counts.ok()) {
    ++stats_.scans;
    stats_.rows_scanned += rows;
  }
}

StatusOr<GroupCounts> FilteredPopulationProvider::Counts(
    const std::vector<int>& cols) {
  Snapshot snap = Extend();
  StatusOr<GroupCounts> counts =
      ScanCounts(TableView(snap.table, snap.ids), cols, kernel_);
  CountScanned(counts, static_cast<int64_t>(snap.ids->size()));
  return counts;
}

int64_t FilteredPopulationProvider::NumRows() const {
  return static_cast<int64_t>(Extend().ids->size());
}

StatusOr<GroupCounts> FilteredPopulationProvider::CountsDelta(
    const std::vector<int>& cols, int64_t from_version, int64_t to_version) {
  if (from_version < 0 || to_version < from_version) {
    return Status::InvalidArgument("invalid delta range");
  }
  Snapshot snap = Extend();
  if (to_version > snap.watermark) {
    return Status::OutOfRange("delta range exceeds the published watermark");
  }
  // Ids are appended in physical-row order, so the delta's rows are a
  // contiguous suffix slice found by binary search.
  auto lo = std::lower_bound(snap.ids->begin(), snap.ids->end(), from_version);
  auto hi = std::lower_bound(lo, snap.ids->end(), to_version);
  auto delta_ids = std::make_shared<const std::vector<int64_t>>(lo, hi);
  const int64_t n = static_cast<int64_t>(delta_ids->size());
  StatusOr<GroupCounts> counts =
      ScanCounts(TableView(snap.table, std::move(delta_ids)), cols, kernel_);
  CountScanned(counts, n);
  return counts;
}

}  // namespace hypdb
