#include "db/flat_relation.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <ranges>

#include "kernels/sort.h"

namespace qc::db {

FlatRelation FlatRelation::FromRows(int arity, const std::vector<Tuple>& rows) {
  FlatRelation rel(arity);
  rel.Reserve(rows.size());
  for (const auto& t : rows) rel.PushRow(t);
  return rel;
}

std::vector<Tuple> FlatRelation::ToRows() const {
  std::vector<Tuple> rows;
  rows.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const Value* r = Row(i);
    rows.emplace_back(r, r + arity_);
  }
  return rows;
}

void FlatRelation::PushRow(const Tuple& row) {
  if (static_cast<int>(row.size()) != arity_) std::abort();
  data_.insert(data_.end(), row.begin(), row.end());
  ++size_;
}

void FlatRelation::Append(const FlatRelation& other) {
  if (other.arity_ != arity_) std::abort();
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  size_ += other.size_;
}

void FlatRelation::MergeSorted(const FlatRelation& fresh) {
  if (fresh.arity_ != arity_) std::abort();
  const std::size_t r = static_cast<std::size_t>(arity_);
  std::size_t end = size_;  // Old rows [0, end) have not moved yet.
  size_ += fresh.size_;
  data_.resize(size_ * r);
  Value* d = data_.data();
  for (std::size_t j = fresh.size_; j > 0; --j) {
    // The old rows after fresh row j-1 shift up past it and its successors.
    const RowView row = fresh.View(j - 1);
    auto unmoved = std::views::iota(std::size_t{0}, end);
    const auto pos = static_cast<std::size_t>(
        std::ranges::upper_bound(unmoved, row, std::less<>{},
                                 [&](std::size_t i) { return View(i); }) -
        unmoved.begin());
    std::copy_backward(d + pos * r, d + end * r, d + (end + j) * r);
    std::copy_n(row.data, r, d + (pos + j - 1) * r);
    end = pos;
  }
}

void FlatRelation::Truncate(std::size_t rows) {
  if (rows >= size_) return;
  data_.resize(rows * static_cast<std::size_t>(arity_));
  size_ = rows;
}

void FlatRelation::PermuteColumns(const std::vector<int>& src) {
  if (static_cast<int>(src.size()) != arity_) std::abort();
  Tuple old(src.size());
  for (std::size_t i = 0; i < size_; ++i) {
    Value* row = data_.data() + i * static_cast<std::size_t>(arity_);
    std::copy(row, row + arity_, old.begin());
    for (int c = 0; c < arity_; ++c) row[c] = old[src[c]];
  }
}

void FlatRelation::Reserve(std::size_t rows) {
  data_.reserve(rows * static_cast<std::size_t>(arity_));
}

void FlatRelation::Clear() {
  data_.clear();
  size_ = 0;
}

void FlatRelation::SortLexAndDedup(SortPolicy policy, util::Arena* scratch) {
  if (size_ <= 1) return;
  std::vector<std::uint32_t> idx(size_);
  std::iota(idx.begin(), idx.end(), 0u);
  const int r = arity_;
  const Value* base = data_.data();
  const bool radix =
      r > 0 && (policy == SortPolicy::kRadix ||
                (policy == SortPolicy::kAuto && size_ >= kernels::kRadixMinRows));
  if (radix) {
    std::vector<std::int32_t> cols(static_cast<std::size_t>(r));
    std::iota(cols.begin(), cols.end(), 0);
    kernels::SortRowsByColumns(base, static_cast<std::size_t>(r), size_,
                               cols.data(), cols.size(), idx.data(), scratch);
  } else {
    std::sort(idx.begin(), idx.end(),
              [base, r](std::uint32_t a, std::uint32_t b) {
                const Value* pa = base + a * static_cast<std::size_t>(r);
                const Value* pb = base + b * static_cast<std::size_t>(r);
                for (int i = 0; i < r; ++i) {
                  if (pa[i] != pb[i]) return pa[i] < pb[i];
                }
                return false;
              });
  }
  std::vector<Value> sorted;
  sorted.reserve(data_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const Value* row = base + idx[i] * static_cast<std::size_t>(r);
    if (kept > 0) {
      const Value* prev = sorted.data() + (kept - 1) * static_cast<std::size_t>(r);
      if (std::equal(row, row + r, prev)) continue;
    }
    sorted.insert(sorted.end(), row, row + r);
    ++kept;
  }
  data_ = std::move(sorted);
  size_ = kept;
}

void FlatRelation::ApplyPermutation(const std::vector<std::uint32_t>& perm) {
  std::vector<Value> out;
  out.reserve(data_.size());
  const int r = arity_;
  for (std::uint32_t i : perm) {
    const Value* row = data_.data() + i * static_cast<std::size_t>(r);
    out.insert(out.end(), row, row + r);
  }
  data_ = std::move(out);
  size_ = perm.size();
}

}  // namespace qc::db
