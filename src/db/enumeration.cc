#include "db/enumeration.h"

#include <algorithm>

#include "db/yannakakis.h"

namespace qc::db {

namespace {

/// Compares the projection of flat row `row` onto `cols` against `key`:
/// <0, 0, >0 as in memcmp.
int CompareProjection(const Value* row, const std::vector<int>& cols,
                      const Tuple& key) {
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (row[cols[i]] != key[i]) return row[cols[i]] < key[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace

AcyclicEnumerator::AcyclicEnumerator(const JoinQuery& query,
                                     const Database& db,
                                     util::Budget* budget,
                                     IndexCache* cache,
                                     util::Arena* arena)
    : budget_(budget) {
  // The linear preprocessing pass: the shared full reducer.
  std::optional<FullReduction> red = ReduceAcyclicQuery(
      query, db, Sweeps::kUpAndDown, budget_, cache, arena);
  if (!red.has_value()) return;
  const int m = static_cast<int>(query.atoms.size());
  if (m == 0) {
    valid_ = true;
    done_ = false;
    return;  // One empty answer; handled in Next().
  }
  attributes_ = query.AttributeOrder();

  // A trip during preprocessing leaves the enumerator invalid — a partially
  // reduced tree cannot promise constant-delay answers.
  auto tripped = [&] {
    if (budget_ == nullptr || !budget_->Stopped()) return false;
    status_ = budget_->status();
    return true;
  };
  if (tripped()) return;

  // Root-first order.
  order_.assign(red->order.rbegin(), red->order.rend());
  nodes_.resize(m);
  for (int e = 0; e < m; ++e) {
    if (budget_ != nullptr && budget_->Poll()) break;
    TreeNode& node = nodes_[e];
    node.parent = red->parent[e];
    node.attrs = red->atoms[e].attributes;
    if (node.parent >= 0) {
      const auto& pattrs = red->atoms[node.parent].attributes;
      for (std::size_t i = 0; i < node.attrs.size(); ++i) {
        auto it = std::find(pattrs.begin(), pattrs.end(), node.attrs[i]);
        if (it != pattrs.end()) {
          node.shared_cols.push_back(static_cast<int>(i));
          node.parent_shared_cols.push_back(
              static_cast<int>(it - pattrs.begin()));
        }
      }
    }
    // The attributes a node shares with its parent precede its own in the
    // reducer's root-first variable order, so shared_cols is a column
    // prefix and the lex-sorted rows are already grouped by the shared key
    // that Descend() binary-searches.
    node.rows = std::move(red->atoms[e].rows);
  }
  if (tripped()) return;
  frames_.resize(m);
  valid_ = true;
  Reset();
}

bool AcyclicEnumerator::Descend(std::size_t level) {
  // (Re)compute the candidate range at order_[level] given its parent's
  // current tuple, and place the cursor at the start. After full reduction
  // the range is guaranteed nonempty.
  int e = order_[level];
  TreeNode& node = nodes_[e];
  Frame& frame = frames_[e];
  if (node.parent < 0) {
    frame.lo = 0;
    frame.hi = static_cast<int>(node.rows.size());
  } else {
    const TreeNode& pnode = nodes_[node.parent];
    const Frame& pframe = frames_[node.parent];
    const Value* prow = pnode.rows.Row(pframe.cursor);
    Tuple& key = key_buf_;
    key.clear();
    for (int c : node.parent_shared_cols) key.push_back(prow[c]);
    // Binary search the shared-key block directly on the flat rows.
    int lo = 0, hi = static_cast<int>(node.rows.size());
    while (lo < hi) {
      int mid = lo + (hi - lo) / 2;
      if (CompareProjection(node.rows.Row(mid), node.shared_cols, key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    frame.lo = lo;
    hi = static_cast<int>(node.rows.size());
    while (lo < hi) {
      int mid = lo + (hi - lo) / 2;
      if (CompareProjection(node.rows.Row(mid), node.shared_cols, key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    frame.hi = lo;
  }
  frame.cursor = frame.lo;
  return frame.lo < frame.hi;
}

void AcyclicEnumerator::Reset() {
  done_ = false;
  started_ = false;
}

std::optional<Tuple> AcyclicEnumerator::Next() {
  if (!valid_ || done_) return std::nullopt;
  if (budget_ != nullptr && budget_->Poll()) {
    status_ = budget_->status();
    done_ = true;
    return std::nullopt;
  }
  if (order_.empty()) {
    // Zero atoms: exactly one empty answer.
    done_ = true;
    return Tuple{};
  }
  if (!started_) {
    started_ = true;
    for (std::size_t level = 0; level < order_.size(); ++level) {
      if (!Descend(level)) {
        done_ = true;  // Some relation is empty: no answers at all.
        return std::nullopt;
      }
    }
  } else {
    // Advance the deepest frame with headroom; re-descend below it.
    int level = static_cast<int>(order_.size()) - 1;
    while (level >= 0) {
      Frame& frame = frames_[order_[level]];
      if (frame.cursor + 1 < frame.hi) {
        ++frame.cursor;
        break;
      }
      --level;
    }
    if (level < 0) {
      done_ = true;
      return std::nullopt;
    }
    for (std::size_t l = level + 1; l < order_.size(); ++l) {
      if (!Descend(l)) {
        // Impossible after full reduction; fail closed if it ever happens.
        done_ = true;
        return std::nullopt;
      }
    }
  }
  // Assemble the answer over the canonical attribute order.
  Tuple answer(attributes_.size());
  for (int e : order_) {
    const TreeNode& node = nodes_[e];
    const Value* t = node.rows.Row(frames_[e].cursor);
    for (std::size_t i = 0; i < node.attrs.size(); ++i) {
      auto it = std::find(attributes_.begin(), attributes_.end(),
                          node.attrs[i]);
      answer[it - attributes_.begin()] = t[i];
    }
  }
  // Charge the row being delivered: with a row limit of R, exactly R answers
  // stream out and the (R+1)-th call observes the trip at its entry poll.
  if (budget_ != nullptr && budget_->ChargeRows(1)) {
    status_ = budget_->status();
  }
  return answer;
}

}  // namespace qc::db
