#include "storage/append_only_table.h"

#include <algorithm>
#include <utility>

#include "util/trace.h"

namespace hypdb {

StatusOr<std::shared_ptr<AppendOnlyTable>> AppendOnlyTable::FromTable(
    const TablePtr& seed) {
  if (!seed) return Status::InvalidArgument("null seed table");
  auto table = std::shared_ptr<AppendOnlyTable>(
      new AppendOnlyTable(seed->ColumnNames()));
  const int num_cols = seed->NumColumns();
  for (int c = 0; c < num_cols; ++c) {
    const Column& column = seed->column(c);
    table->dicts_.push_back(column.dict());
    // Never written through: capacity_ is the seed's row count, so the
    // first append reallocates before writing any row.
    table->buffers_.push_back(
        std::const_pointer_cast<CodeBuffer>(column.buffer()));
  }
  table->capacity_ = seed->NumRows();
  // The seed *is* the materialization of the initial watermark.
  table->materialized_watermark_ = seed->NumRows();
  table->materialized_ = seed;
  table->watermark_.store(seed->NumRows(), std::memory_order_release);
  return table;
}

Status AppendOnlyTable::Append(
    const std::vector<std::vector<std::string>>& rows) {
  const size_t num_cols = names_.size();
  for (const auto& row : rows) {
    if (row.size() != num_cols) {
      return Status::InvalidArgument(
          "append row has " + std::to_string(row.size()) + " values, schema has " +
          std::to_string(num_cols) + " columns");
    }
  }
  if (rows.empty()) return Status::Ok();
  TraceSpanScope span(TraceEventKind::kIngestAppend, 1,
                      static_cast<uint64_t>(rows.size()));
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t w = watermark_.load(std::memory_order_relaxed);
  const int64_t end = w + static_cast<int64_t>(rows.size());
  if (end > capacity_) GrowLocked(w, std::max(end, 2 * capacity_));
  for (size_t c = 0; c < num_cols; ++c) {
    CodeBuffer& codes = *buffers_[c];
    Dictionary& dict = dicts_[c];
    for (size_t r = 0; r < rows.size(); ++r) {
      codes[w + r] = dict.GetOrAdd(rows[r][c]);
    }
  }
  span.set_arg1(static_cast<uint64_t>(end));
  watermark_.store(end, std::memory_order_release);
  return Status::Ok();
}

void AppendOnlyTable::GrowLocked(int64_t rows, int64_t capacity) {
  for (std::shared_ptr<CodeBuffer>& buffer : buffers_) {
    auto grown = std::make_shared<CodeBuffer>(capacity);
    std::copy_n(buffer->data(), rows, grown->data());
    buffer = std::move(grown);
  }
  bytes_copied_ += rows * static_cast<int64_t>(sizeof(int32_t)) *
                   static_cast<int64_t>(buffers_.size());
  capacity_ = capacity;
}

TablePtr AppendOnlyTable::Materialized() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t w = watermark_.load(std::memory_order_relaxed);
  if (materialized_watermark_ == w && materialized_) return materialized_;
  Table out;
  for (size_t c = 0; c < names_.size(); ++c) {
    Status s = out.AddColumn(Column(names_[c], dicts_[c], buffers_[c], w));
    (void)s;  // row counts agree by construction
  }
  materialized_watermark_ = w;
  materialized_ = MakeTable(std::move(out));
  return materialized_;
}

int64_t AppendOnlyTable::bytes_copied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_copied_;
}

}  // namespace hypdb
