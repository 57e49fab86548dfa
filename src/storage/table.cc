#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <sstream>

#include "common/strings.h"

namespace fdrepair {

void RowIndex::Reserve(int rows, const TupleId* ids) {
  size_t capacity = 16;
  while (capacity < 2 * static_cast<size_t>(rows)) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity, ids);
}

size_t RowIndex::Home(TupleId id) const {
  // Fibonacci hashing: the multiply's top bits, so sequential ids spread.
  return static_cast<size_t>(
      (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> shift_);
}

size_t RowIndex::Probe(TupleId id, const TupleId* ids) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  while (slots_[i] >= 0 && ids[slots_[i]] != id) i = (i + 1) & mask;
  return i;
}

int RowIndex::Find(TupleId id, const TupleId* ids) const {
  if (slots_.empty()) return -1;
  return slots_[Probe(id, ids)];
}

bool RowIndex::Insert(int row, const TupleId* ids) {
  if (2 * static_cast<size_t>(size_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()), ids);
  }
  int& slot = slots_[Probe(ids[row], ids)];
  if (slot >= 0) return false;
  slot = row;
  ++size_;
  return true;
}

void RowIndex::Rebuild(int rows, const TupleId* ids) {
  std::fill(slots_.begin(), slots_.end(), -1);
  size_ = 0;
  for (int row = 0; row < rows; ++row) {
    const bool inserted = Insert(row, ids);
    FDR_CHECK(inserted);
  }
}

void RowIndex::Rehash(size_t capacity, const TupleId* ids) {
  std::vector<int> old = std::move(slots_);
  slots_.assign(capacity, -1);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (int row : old) {
    if (row < 0) continue;
    size_t i = Home(ids[row]);
    while (slots_[i] >= 0) i = (i + 1) & mask;
    slots_[i] = row;
  }
}

Table::Table(Schema schema)
    : Table(std::move(schema), std::make_shared<ValuePool>()) {}

Table::Table(Schema schema, std::shared_ptr<ValuePool> pool)
    : schema_(std::move(schema)), pool_(std::move(pool)) {
  FDR_CHECK(pool_ != nullptr);
  columns_.resize(schema_.arity());
}

TupleId Table::AddTuple(const std::vector<std::string>& values) {
  return AddTuple(values, 1.0);
}

TupleId Table::AddTuple(const std::vector<std::string>& values, double weight) {
  TupleId id = next_id_;
  Status status = AddTupleWithId(id, values, weight);
  FDR_CHECK_MSG(status.ok(), status.ToString());
  return id;
}

Status Table::AddTupleWithId(TupleId id, const std::vector<std::string>& values,
                             double weight) {
  if (static_cast<int>(values.size()) != schema_.arity()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(values.size()) + " != schema arity " +
        std::to_string(schema_.arity()));
  }
  Tuple tuple;
  tuple.reserve(values.size());
  for (const std::string& value : values) tuple.push_back(pool_->Intern(value));
  return AddInternedTupleWithId(id, std::move(tuple), weight);
}

Status Table::AddInternedTupleWithId(TupleId id, Tuple values, double weight) {
  if (static_cast<int>(values.size()) != schema_.arity()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  if (!(weight > 0)) {
    return Status::InvalidArgument("tuple weight must be positive, got " +
                                   FormatDouble(weight));
  }
  if (id_index_.Find(id, ids_.data()) >= 0) {
    return Status::InvalidArgument("duplicate tuple identifier " +
                                   std::to_string(id));
  }
  // All validation passed: update the row store and its column-major
  // mirror together, so no failure path can leave them disagreeing.
  const int row = num_tuples();
  ids_.push_back(id);
  id_index_.Insert(row, ids_.data());
  weights_.push_back(weight);
  for (int a = 0; a < schema_.arity(); ++a) columns_[a].push_back(values[a]);
  tuples_.push_back(std::move(values));
  next_id_ = std::max(next_id_, id + 1);
  return Status::OK();
}

StatusOr<int> Table::RowOf(TupleId id) const {
  const int row = id_index_.Find(id, ids_.data());
  if (row < 0) {
    return Status::NotFound("no tuple with identifier " + std::to_string(id));
  }
  return row;
}

const std::string& Table::ValueText(int row, AttrId attr) const {
  return pool_->Text(value(row, attr));
}

double Table::TotalWeight() const {
  double total = 0;
  for (double w : weights_) total += w;
  return total;
}

bool Table::IsUnweighted() const {
  for (double w : weights_) {
    if (w != weights_.front()) return false;
  }
  return true;
}

bool Table::IsDuplicateFree() const {
  // Hash rows; compare only within buckets.
  std::unordered_map<uint64_t, std::vector<int>> buckets;
  for (int i = 0; i < num_tuples(); ++i) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a over the value ids
    for (ValueId v : tuples_[i]) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
      h *= 1099511628211ULL;
    }
    for (int j : buckets[h]) {
      if (tuples_[i] == tuples_[j]) return false;
    }
    buckets[h].push_back(i);
  }
  return true;
}

Table Table::SubsetByRows(const std::vector<int>& rows) const {
  Table out(schema_, pool_);
  // Reserve everything up front — in particular id_index_, so it never
  // rehashes while filling — and append directly:
  // the source rows already satisfy the append invariants (positive
  // weights, matching arity), leaving only the duplicate-row check.
  out.ids_.reserve(rows.size());
  out.weights_.reserve(rows.size());
  out.tuples_.reserve(rows.size());
  out.id_index_.Reserve(static_cast<int>(rows.size()), out.ids_.data());
  for (auto& column : out.columns_) column.reserve(rows.size());
  for (int row : rows) {
    FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
    out.ids_.push_back(ids_[row]);
    const bool inserted =
        out.id_index_.Insert(out.num_tuples(), out.ids_.data());
    FDR_CHECK_MSG(inserted, "duplicate row " << row << " (tuple identifier "
                                             << ids_[row] << ")");
    out.weights_.push_back(weights_[row]);
    out.tuples_.push_back(tuples_[row]);
    out.next_id_ = std::max(out.next_id_, ids_[row] + 1);
  }
  // Column mirror, filled per attribute (contiguous source sweeps) rather
  // than per row: columns_[a] here is a gather of this->columns_[a].
  for (int a = 0; a < schema_.arity(); ++a) {
    const ValueId* source = columns_[a].data();
    for (int row : rows) out.columns_[a].push_back(source[row]);
  }
  return out;
}

Table Table::Clone() const {
  // Whole-container copies: id_index_ is one flat slot array, copied as
  // such, never rebuilt entry by entry.
  Table out(schema_, pool_);
  out.ids_ = ids_;
  out.weights_ = weights_;
  out.tuples_ = tuples_;
  out.columns_ = columns_;
  out.id_index_ = id_index_;
  out.next_id_ = next_id_;
  return out;
}

void Table::SetValue(int row, AttrId attr, ValueId value) {
  FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
  FDR_CHECK_MSG(attr >= 0 && attr < schema_.arity(), "attr=" << attr);
  tuples_[row][attr] = value;
  columns_[attr][row] = value;
}

void Table::EraseRow(int row) {
  FDR_CHECK_MSG(row >= 0 && row < num_tuples(), "row=" << row);
  ids_.erase(ids_.begin() + row);
  weights_.erase(weights_.begin() + row);
  tuples_.erase(tuples_.begin() + row);
  for (auto& column : columns_) column.erase(column.begin() + row);
  // Every surviving row after the gap moved down one position.
  id_index_.Rebuild(num_tuples(), ids_.data());
}

Status Table::EraseTuple(TupleId id) {
  FDR_ASSIGN_OR_RETURN(int row, RowOf(id));
  EraseRow(row);
  return Status::OK();
}

bool Table::ColumnStoreConsistent() const {
  if (static_cast<int>(columns_.size()) != schema_.arity()) return false;
  for (int a = 0; a < schema_.arity(); ++a) {
    if (static_cast<int>(columns_[a].size()) != num_tuples()) return false;
    for (int row = 0; row < num_tuples(); ++row) {
      if (columns_[a][row] != tuples_[row][a]) return false;
    }
  }
  return true;
}

std::string Table::ToString() const {
  // Column widths: id, attributes, weight.
  std::vector<size_t> widths(schema_.arity() + 2, 2);
  widths[0] = std::max<size_t>(2, std::string("id").size());
  for (int a = 0; a < schema_.arity(); ++a) {
    widths[a + 1] = schema_.AttributeName(a).size();
  }
  std::vector<std::vector<std::string>> cells;
  for (int row = 0; row < num_tuples(); ++row) {
    std::vector<std::string> line;
    line.push_back(std::to_string(ids_[row]));
    for (int a = 0; a < schema_.arity(); ++a) line.push_back(ValueText(row, a));
    line.push_back(FormatDouble(weights_[row]));
    for (size_t c = 0; c < line.size(); ++c) {
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(widths[0])) << "id" << "  ";
  for (int a = 0; a < schema_.arity(); ++a) {
    os << std::setw(static_cast<int>(widths[a + 1])) << schema_.AttributeName(a)
       << "  ";
  }
  os << "w\n";
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << line[c]
         << (c + 1 < line.size() ? "  " : "");
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace fdrepair
