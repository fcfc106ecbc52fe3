#ifndef QC_DB_ENUMERATION_H_
#define QC_DB_ENUMERATION_H_

#include <memory>
#include <optional>

#include "db/index_cache.h"
#include "db/joins.h"
#include "util/budget.h"

namespace qc::db {

/// Constant-delay enumeration for alpha-acyclic queries (Bagan–Durand–
/// Grandjean [13], cited in Section 8): after a linear-time preprocessing
/// pass (the shared full reducer, ReduceAcyclicQuery), answers are produced
/// one at a time with per-answer delay independent of the database size. The
/// hyperclique conjecture rules this out for cyclic queries — experiment
/// E16 measures exactly that contrast.
class AcyclicEnumerator {
 public:
  /// Preprocesses; fails (IsValid() == false) if the query is cyclic.
  /// `budget` (optional, not owned; must outlive the enumerator) is polled
  /// during the preprocessing pass and once per Next(): if it trips during
  /// preprocessing the enumerator comes up invalid with status() recording
  /// the cause; if it trips mid-enumeration, Next() returns nullopt early —
  /// distinguish exhaustion from a trip via status().
  ///
  /// `cache` (optional, not owned) is the shared trie-index cache, passed to
  /// the reducer: a warm cache serves each atom's sorted projection and the
  /// key sets of unshrunk semijoin sides with no scan or sort. The
  /// enumeration order and answers are bit-identical with or without it.
  ///
  /// `arena` (optional, not owned; only used during construction) backs the
  /// reducer's sort and trie-build scratch.
  AcyclicEnumerator(const JoinQuery& query, const Database& db,
                    util::Budget* budget = nullptr,
                    IndexCache* cache = nullptr,
                    util::Arena* arena = nullptr);

  bool IsValid() const { return valid_; }

  /// kCompleted unless the budget cut the run short (then the tripped
  /// status; the answers streamed so far are a prefix of the full answer).
  util::RunStatus status() const { return status_; }

  /// Result schema (canonical attribute order).
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// Next answer tuple, or nullopt when exhausted. After the preprocessing
  /// in the constructor, each call does work proportional to the query size
  /// only (index lookups on fully-reduced relations), not to the data size.
  std::optional<Tuple> Next();

  /// Restart the enumeration from the first answer.
  void Reset();

 private:
  struct Frame;
  bool Descend(std::size_t level);
  bool Advance(std::size_t level);

  bool valid_ = false;
  std::vector<std::string> attributes_;
  /// Join-tree nodes; each holds its reduced relation, whose columns start
  /// with the attributes shared with the parent.
  struct TreeNode {
    int parent = -1;
    std::vector<std::string> attrs;
    std::vector<int> shared_cols;        ///< Columns shared with the parent.
    std::vector<int> parent_shared_cols; ///< Matching columns in the parent.
    /// Reduced relation in flat storage, lex-sorted with shared_cols as a
    /// column prefix — Descend() binary-searches the shared-key block
    /// without materializing projection keys.
    FlatRelation rows;
  };
  std::vector<TreeNode> nodes_;
  std::vector<int> order_;  ///< Root-first traversal order.
  /// Iteration state: per node, the [lo, hi) candidate range and cursor.
  struct Frame {
    int lo = 0, hi = 0, cursor = 0;
  };
  std::vector<Frame> frames_;
  /// Reusable projection-key buffer for Descend(): constant-delay Next()
  /// calls allocate nothing per answer.
  Tuple key_buf_;
  bool done_ = false;
  bool started_ = false;
  util::Budget* budget_ = nullptr;  ///< Not owned; may be null.
  util::RunStatus status_ = util::RunStatus::kCompleted;
};

}  // namespace qc::db

#endif  // QC_DB_ENUMERATION_H_
