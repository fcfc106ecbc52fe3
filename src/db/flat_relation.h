#ifndef QC_DB_FLAT_RELATION_H_
#define QC_DB_FLAT_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qc::util {
class Arena;
}  // namespace qc::util

namespace qc::db {

using Value = std::int64_t;
using Tuple = std::vector<Value>;

/// Zero-copy view of one tuple inside a FlatRelation: a pointer into the
/// contiguous column data plus the arity. Comparisons are lexicographic.
struct RowView {
  const Value* data = nullptr;
  int arity = 0;

  Value operator[](int col) const { return data[col]; }
  const Value* begin() const { return data; }
  const Value* end() const { return data + arity; }

  friend bool operator==(const RowView& a, const RowView& b) {
    if (a.arity != b.arity) return false;
    for (int i = 0; i < a.arity; ++i) {
      if (a.data[i] != b.data[i]) return false;
    }
    return true;
  }
  friend bool operator<(const RowView& a, const RowView& b) {
    const int n = a.arity < b.arity ? a.arity : b.arity;
    for (int i = 0; i < n; ++i) {
      if (a.data[i] != b.data[i]) return a.data[i] < b.data[i];
    }
    return a.arity < b.arity;
  }
};

/// Flat, arity-strided columnar tuple storage: all tuples of one relation
/// live in a single contiguous std::vector<Value>, row-major with stride
/// `arity`. This replaces the per-tuple heap allocation of
/// std::vector<std::vector<Value>> on every hot path — tuple access is a
/// pointer bump, sorting permutes indices and gathers once, and scans are
/// sequential over one allocation.
///
/// The row count is tracked explicitly so arity-0 relations (legal for
/// attribute-free atoms) behave: they hold up to one conceptually-empty row.
class FlatRelation {
 public:
  FlatRelation() = default;
  explicit FlatRelation(int arity) : arity_(arity) {}

  /// Copies row-wise tuples into flat storage. Every tuple must have size
  /// `arity`.
  static FlatRelation FromRows(int arity, const std::vector<Tuple>& rows);

  /// Materializes row-wise tuples (the legacy JoinResult boundary).
  std::vector<Tuple> ToRows() const;

  int arity() const { return arity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Value* Row(std::size_t i) const {
    return data_.data() + i * static_cast<std::size_t>(arity_);
  }
  RowView View(std::size_t i) const { return RowView{Row(i), arity_}; }
  Value At(std::size_t row, int col) const { return Row(row)[col]; }

  /// Appends one row (copies `arity` values from `row`).
  void PushRow(const Value* row) {
    data_.insert(data_.end(), row, row + arity_);
    ++size_;
  }
  void PushRow(const Tuple& row);
  /// Appends every row of `other`, which must have the same arity.
  void Append(const FlatRelation& other);
  /// Merges the sorted rows of `fresh` (same arity, none already present)
  /// into this sorted relation in place, from the back: one binary search
  /// per fresh row, and only rows that sort after a fresh one move, so
  /// appending past the end costs O(|fresh| log n).
  void MergeSorted(const FlatRelation& fresh);
  /// Keeps the first `rows` rows (no-op when size() <= rows).
  void Truncate(std::size_t rows);
  void Reserve(std::size_t rows);
  void Clear();

  /// Rewrites every row in place so that new column i holds old column
  /// `src[i]`; `src` must be a permutation of [0, arity()).
  void PermuteColumns(const std::vector<int>& src);

  /// How SortLexAndDedup orders the permutation. kAuto picks the LSD radix
  /// kernel (kernels::SortRowsByColumns) above its break-even row count and
  /// comparison sort below it; both are stable and produce the identical
  /// lexicographic order, so the choice never changes results — only time.
  enum class SortPolicy { kAuto, kComparison, kRadix };

  /// Sorts rows lexicographically and removes exact duplicates. `scratch`,
  /// when non-null, supplies the radix kernel's key/index buffers so
  /// repeated sorts in one query reuse the same blocks.
  void SortLexAndDedup(SortPolicy policy = SortPolicy::kAuto,
                       util::Arena* scratch = nullptr);

  /// Reorders rows into the order given by `perm` (a permutation of
  /// [0, size())). Used to sort by arbitrary keys: sort the index vector,
  /// then gather once.
  void ApplyPermutation(const std::vector<std::uint32_t>& perm);

  /// Raw column data, row-major with stride arity().
  const std::vector<Value>& data() const { return data_; }

  friend bool operator==(const FlatRelation& a, const FlatRelation& b) {
    return a.arity_ == b.arity_ && a.size_ == b.size_ && a.data_ == b.data_;
  }

 private:
  int arity_ = 0;
  std::size_t size_ = 0;
  std::vector<Value> data_;
};

}  // namespace qc::db

#endif  // QC_DB_FLAT_RELATION_H_
