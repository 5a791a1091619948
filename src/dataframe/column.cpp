#include "dataframe/column.h"

#include <cmath>
#include <cstdlib>

namespace hypdb {

int32_t Dictionary::GetOrAdd(const std::string& label) {
  auto it = index_.find(label);
  if (it != index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(labels_.size());
  labels_.push_back(label);
  index_.emplace(label, code);
  return code;
}

int32_t Dictionary::Find(const std::string& label) const {
  auto it = index_.find(label);
  return it == index_.end() ? -1 : it->second;
}

Column::Column(std::string name, Dictionary dict, std::vector<int32_t> codes)
    : Column(std::move(name), std::move(dict),
             std::make_shared<const CodeBuffer>(std::move(codes)), 0) {
  num_rows_ = static_cast<int64_t>(buffer_->size());
}

Column::Column(std::string name, Dictionary dict,
               std::shared_ptr<const CodeBuffer> buffer, int64_t num_rows)
    : name_(std::move(name)),
      dict_(std::move(dict)),
      buffer_(std::move(buffer)),
      data_(buffer_->data()),
      num_rows_(num_rows) {
  // Eager build keeps the column free of mutable state: readers on any
  // thread (e.g. the parallel scan kernel) only ever see const data.
  numeric_cache_.resize(dict_.size());
  for (int32_t c = 0; c < dict_.size(); ++c) {
    const std::string& label = dict_.Label(c);
    char* end = nullptr;
    double v = std::strtod(label.c_str(), &end);
    bool parsed = end != label.c_str() && *end == '\0' && !label.empty();
    numeric_cache_[c] = parsed ? v : std::nan("");
  }
}

StatusOr<double> Column::NumericValue(int32_t code) const {
  if (code < 0 || code >= dict_.size()) {
    return Status::OutOfRange("code out of range for column " + name_);
  }
  double v = numeric_cache_[code];
  if (std::isnan(v)) {
    return Status::InvalidArgument("label '" + dict_.Label(code) +
                                   "' in column " + name_ +
                                   " is not numeric");
  }
  return v;
}

bool Column::IsNumericLike() const {
  for (double v : numeric_cache_) {
    if (std::isnan(v)) return false;
  }
  return true;
}

}  // namespace hypdb
