// Dictionary-encoded categorical column.
//
// HypDB operates on discrete domains (paper Sec. 2): every attribute is
// categorical. A column stores one int32 code per row plus a dictionary of
// string labels; label order defines the code space [0, Cardinality()).

#ifndef HYPDB_DATAFRAME_COLUMN_H_
#define HYPDB_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace hypdb {

/// Bidirectional string <-> code mapping for one column.
class Dictionary {
 public:
  /// Returns the code for `label`, inserting it if new.
  int32_t GetOrAdd(const std::string& label);

  /// Returns the code for `label` or -1 if absent.
  int32_t Find(const std::string& label) const;

  const std::string& Label(int32_t code) const { return labels_[code]; }
  int32_t size() const { return static_cast<int32_t>(labels_.size()); }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  std::vector<std::string> labels_;
  std::unordered_map<std::string, int32_t> index_;
};

/// A column's code storage: one int32 code per row. Shared between
/// columns, so a snapshot of a growing store is a prefix of its buffer.
using CodeBuffer = std::vector<int32_t>;

/// A named categorical column: codes + dictionary. Immutable once built,
/// so concurrent readers (the parallel scan kernel) need no locking — the
/// numeric label cache is built eagerly in the constructor for exactly
/// that reason. The codes are the first NumRows() entries of a shared
/// buffer; copying a column shares it.
class Column {
 public:
  Column() = default;
  Column(std::string name, Dictionary dict, std::vector<int32_t> codes);
  /// The first `num_rows` codes of `buffer` (num_rows <= buffer->size()).
  /// Entries past `num_rows` are never read, so an append-only store may
  /// keep writing there while this column is in use.
  Column(std::string name, Dictionary dict,
         std::shared_ptr<const CodeBuffer> buffer, int64_t num_rows);

  const std::string& name() const { return name_; }
  const Dictionary& dict() const { return dict_; }
  std::span<const int32_t> codes() const {
    return {data_, static_cast<size_t>(num_rows_)};
  }
  const std::shared_ptr<const CodeBuffer>& buffer() const { return buffer_; }

  int64_t NumRows() const { return num_rows_; }
  int32_t Cardinality() const { return dict_.size(); }

  /// Bits needed to address the code space [0, Cardinality()): the
  /// bit-packed width scan kernels fuse multi-column keys with. 0 for a
  /// constant (cardinality-1) column.
  int CodeBits() const {
    int bits = 0;
    for (uint32_t span = dict_.size() > 0
                             ? static_cast<uint32_t>(dict_.size()) - 1
                             : 0;
         span != 0; span >>= 1) {
      ++bits;
    }
    return bits;
  }


  int32_t CodeAt(int64_t row) const { return data_[row]; }
  const std::string& LabelAt(int64_t row) const {
    return dict_.Label(data_[row]);
  }

  /// Numeric interpretation of code `code`: the label parsed as a double.
  /// Used by avg() aggregation (outcomes are 0/1 per the paper). Labels
  /// that do not parse yield an error. Values are parsed once and cached.
  StatusOr<double> NumericValue(int32_t code) const;

  /// True if every label parses as a double.
  bool IsNumericLike() const;

 private:
  std::string name_;
  Dictionary dict_;
  std::shared_ptr<const CodeBuffer> buffer_;
  // buffer_->data(), cached so CodeAt is a single load.
  const int32_t* data_ = nullptr;
  int64_t num_rows_ = 0;

  // Parsed labels, built once at construction; NaN marks unparseable.
  std::vector<double> numeric_cache_;
};

/// Incrementally builds a column from string values or raw codes.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(std::string name) : name_(std::move(name)) {}

  void Append(const std::string& label) {
    codes_.push_back(dict_.GetOrAdd(label));
  }

  /// Appends a code for a label previously registered via RegisterLabel.
  void AppendCode(int32_t code) { codes_.push_back(code); }

  /// Pre-registers a label (useful to pin code order, e.g. "0" -> 0).
  int32_t RegisterLabel(const std::string& label) {
    return dict_.GetOrAdd(label);
  }

  Column Finish() {
    return Column(std::move(name_), std::move(dict_), std::move(codes_));
  }

 private:
  std::string name_;
  Dictionary dict_;
  std::vector<int32_t> codes_;
};

}  // namespace hypdb

#endif  // HYPDB_DATAFRAME_COLUMN_H_
