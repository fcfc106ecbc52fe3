#ifndef QC_DB_GENERIC_JOIN_H_
#define QC_DB_GENERIC_JOIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/context.h"
#include "db/database.h"
#include "db/index_cache.h"
#include "db/trie_index.h"
#include "util/budget.h"
#include "util/trace.h"

namespace qc::db {

/// Effort counters for the worst-case-optimal join. Also exported through
/// ExecutionContext::counters under "generic_join.nodes" /
/// "generic_join.probes" / "generic_join.gallops" (the unified
/// util::Counters surface); the per-instance trie size is exported once at
/// construction under "trie.nodes".
struct GenericJoinStats {
  std::uint64_t nodes = 0;    ///< Search-tree nodes (partial bindings).
  std::uint64_t probes = 0;   ///< Bounded binary searches, each counted once.
  std::uint64_t gallops = 0;  ///< Doubling steps of the galloping seeks.
  /// Blocked kernel calls of the two-holder SIMD intersection path
  /// (kernels::IntersectPairPositions); zero under QC_SIMD=scalar, where
  /// long pairs leapfrog instead (short pairs merge at every level).
  std::uint64_t simd_blocks = 0;

  GenericJoinStats& operator+=(const GenericJoinStats& other) {
    nodes += other.nodes;
    probes += other.probes;
    gallops += other.gallops;
    simd_blocks += other.simd_blocks;
    return *this;
  }
};

/// One atom's rows handed to GenericJoin in place of the atom's relation:
/// `attributes` names the columns (the atom's distinct attributes, in any
/// order), and the rows may be unsorted and may repeat. Their trie is private
/// to the join and never enters ctx.index_cache, whose version-keyed entries
/// describe whole relations only.
struct AtomRows {
  std::vector<std::string> attributes;
  FlatRelation rows;
};

/// Worst-case-optimal join in the Generic Join / Leapfrog Triejoin family
/// (Theorem 3.3, [54, 61]): attributes are bound one at a time in a global
/// order; at each step the candidate values are the intersection of the
/// matching trie levels of every relation containing the attribute.
///
/// Each atom is materialized into flat columnar storage (FlatRelation),
/// sorted once, and indexed by a TrieIndex whose level l holds the distinct
/// prefixes of length l+1 as contiguous (value, child-range) spans. The
/// search descends the tries: binding attribute d moves every holder atom
/// from its matched node to that node's child span — a pointer bump — and
/// the per-level intersection leapfrogs the holder spans with galloping
/// (doubling probe + bounded std::lower_bound); two non-skewed holder spans
/// are merged instead (blocked SIMD kernel, or a scalar merge below its
/// 16-element floor). At the last level every match goes straight into the
/// entry point's sink (flat buffer, counter or emptiness flag). No tuple
/// rows are ever re-scanned or re-binary-searched during the descent. Runs
/// in O~(N^{rho*}) total time.
///
/// With `ctx.threads > 1` (or QC_THREADS set), EvaluateFlat/Count/IsEmpty
/// partition the trie level-0 candidate values into contiguous chunks
/// executed on the shared ThreadPool with per-chunk flat buffers and stats,
/// appended in candidate order — the answer (and, for full traversals, the
/// stats) are bit-identical to the serial run at any thread count.
/// Enumerate always streams serially: its visitor contract (in-order
/// delivery, early stop) is order-sensitive.
///
/// The join observes the budget resolved from `ctx` (deadline, row limit,
/// cancellation): the search polls it once per node and EvaluateFlat charges
/// one output row per materialized tuple. After any entry point, status()
/// reports how the run ended. Partial-result semantics on a trip:
/// EvaluateFlat returns the rows materialized so far with `truncated = true`
/// (a subset of the true answer, exactly `max_output_rows` rows when that
/// limit tripped); Count returns the count so far; IsEmpty's "empty" verdict
/// is only trustworthy when status() == kCompleted ("non-empty" is always
/// real). When the budget never trips, results are untouched.
///
/// When `ctx.index_cache` is set, construction looks each atom's trie up by
/// (relation name, relation version, projection signature) and only builds
/// on a miss — a warm cache skips materialize+sort+build entirely, and the
/// per-build "generic_join.build_trie" span is absent on hits. Answers and
/// stats are bit-identical with or without the cache at any thread count.
/// Atoms given as `direct` rows (AtomRows) always build a private trie.
class GenericJoin {
 public:
  /// Prepares sorted tries for `query` over `db`. If `attribute_order` is
  /// empty, the first-appearance order is used. `direct` is empty or holds
  /// one entry per atom; a filled entry supplies that atom's rows instead of
  /// its relation in `db`.
  GenericJoin(const JoinQuery& query, const Database& db,
              std::vector<std::string> attribute_order = {},
              const ExecutionContext& ctx = ExecutionContext(),
              std::vector<std::optional<AtomRows>> direct = {});

  /// Convenience: default attribute order with an execution context.
  GenericJoin(const JoinQuery& query, const Database& db,
              const ExecutionContext& ctx)
      : GenericJoin(query, db, {}, ctx) {}

  /// Materializes the full answer Q(D) into flat columnar storage, columns
  /// in attribute_order().
  FlatJoinResult EvaluateFlat();

  /// Row-form adapter over EvaluateFlat().
  JoinResult Evaluate() { return EvaluateFlat().ToRows(); }

  /// Decides emptiness (Boolean Join Query) with early exit.
  bool IsEmpty();

  /// |Q(D)| without materializing.
  std::uint64_t Count();

  /// Streams each answer tuple; return false from the visitor to stop.
  void Enumerate(const std::function<bool(const Tuple&)>& visitor);

  const GenericJoinStats& stats() const { return stats_; }
  /// How the most recent Evaluate/Count/IsEmpty/Enumerate ended.
  util::RunStatus status() const { return run_status_; }
  const std::vector<std::string>& attribute_order() const {
    return attribute_order_;
  }
  /// Total nodes across all atom tries (also exported as "trie.nodes").
  std::uint64_t trie_nodes() const { return trie_nodes_; }

 private:
  /// One atom's index. The trie lives behind an IndexCache entry pointer in
  /// both modes: with ctx.index_cache set the entry may be shared with other
  /// evaluations (warm hits skip the build entirely); without a cache, or for
  /// direct rows, the constructor builds a private entry. Either way the trie is immutable
  /// for this object's lifetime — eviction can't invalidate it.
  struct AtomIndex {
    std::vector<int> attr_positions;  ///< Global order index per trie level.
    IndexCache::EntryPtr entry;       ///< Never null after construction.

    const TrieIndex& trie() const { return entry->trie; }
    bool no_rows() const { return entry->no_rows; }
  };

  /// Live node-index span of one atom at its current trie level.
  struct Span {
    std::int32_t begin = 0;
    std::int32_t end = 0;
  };

  /// Per-depth reusable scratch (leapfrog cursors and saved spans), sized
  /// once per chunk/run so the descent allocates nothing per node.
  struct DepthScratch {
    std::vector<std::int32_t> cursors;  ///< One per holder of the attribute.
    std::vector<const Value*> values;   ///< Cached level value arrays.
    std::vector<std::int32_t> ends;     ///< Cached span ends.
    std::vector<Span> saved;            ///< Holder spans before the descent.
    /// Match-position buffers of the two-holder SIMD path (kPairChunk
    /// entries each, sized on first use).
    std::vector<std::int32_t> pos_a;
    std::vector<std::int32_t> pos_b;
  };

  /// The depth-0 candidate values with each holder's matched level-0 node,
  /// stored flat (stride = number of depth-0 holders) — the unit of
  /// parallel work.
  struct RootCandidates {
    std::vector<Value> values;
    std::vector<std::int32_t> positions;  ///< values.size() x holders(0).
  };

  /// Galloping lower bound for `target` in vals[pos..end), requiring
  /// vals[pos] < target. Counts one probe plus one gallop per doubling step.
  std::int32_t GallopSeek(const Value* vals, std::int32_t pos,
                          std::int32_t end, Value target,
                          GenericJoinStats* stats) const;

  /// Leapfrogs the holder spans of attribute `depth`; calls
  /// `emit(value, matched_positions)` for every value of the intersection
  /// in ascending order. `emit` returns false to stop early.
  template <class Emit>
  void LeapfrogIntersect(int depth, const std::vector<Span>& spans,
                         DepthScratch& scratch, GenericJoinStats* stats,
                         Emit&& emit) const;

  /// A-side chunk length of the two-holder blocked intersection: large
  /// enough to amortize the kernel call, small enough that an early-stopped
  /// emit wastes at most one chunk of kernel work.
  static constexpr std::int32_t kPairChunk = 2048;

  /// Two-holder intersection through the dispatched SIMD kernel: the A span
  /// is walked in kPairChunk blocks, the B span clipped per block by a
  /// galloping upper bound, and each block handed to
  /// kernels::IntersectPairPositions. Emits the identical (value, cursors)
  /// sequence as the leapfrog — the engine-level answers stay
  /// bit-identical across QC_SIMD levels. `scratch` cursors/values/ends must
  /// already be loaded for the two holders.
  template <class Emit>
  void PairIntersect(DepthScratch& scratch, GenericJoinStats* stats,
                     Emit&& emit) const;

  /// Shortest span the two-holder SIMD kernel takes; shorter non-skewed
  /// pairs are merged by MergeIntersect at every QC_SIMD level.
  static constexpr std::int64_t kSimdFloor = 16;

  /// Two-holder intersection by a branch-light scalar merge of the two
  /// spans; emits the identical (value, cursors) sequence as the leapfrog.
  /// `scratch` cursors/values/ends must already be loaded.
  template <class Emit>
  void MergeIntersect(DepthScratch& scratch, Emit&& emit) const;

  /// Moves holder `(atom, col)` from matched node `pos` to its child span.
  Span DescendSpan(int atom, int col, std::int32_t pos) const;

  /// Binds attribute `depth` and everything below it. At the last level
  /// each matched value goes straight to `sink` (a `bool(const Tuple&)`
  /// callable, false to stop) instead of opening another search frame; the
  /// node count, budget poll and level span are the same either way.
  template <class Sink>
  void Search(int depth, std::vector<Span>& spans,
              std::vector<DepthScratch>& scratch, Tuple& binding, Sink& sink,
              bool* stop, GenericJoinStats* stats) const;

  /// Enumerates the depth-0 intersection (the serial prefix of every
  /// parallel run). Returns false when some relation is empty or the query
  /// binds no attributes.
  bool ComputeRootCandidates(RootCandidates* candidates,
                             GenericJoinStats* stats) const;

  /// Runs the search subtree of candidate `i`. `spans` must hold every
  /// atom's full level-0 span; holder spans are restored before returning.
  /// `binding` is caller-owned scratch of size attribute_order().size().
  template <class Sink>
  void SearchCandidate(const RootCandidates& candidates, std::size_t i,
                       std::vector<Span>& spans,
                       std::vector<DepthScratch>& scratch, Tuple& binding,
                       Sink& sink, bool* stop, GenericJoinStats* stats) const;

  /// Searches candidates [begin, end) in order with fresh scratch, stopping
  /// at the first false from `sink`.
  template <class Sink>
  void SearchRange(const RootCandidates& candidates, std::size_t begin,
                   std::size_t end, Sink& sink, GenericJoinStats* stats) const;

  /// One full run behind every entry point: serial when `threads` <= 1,
  /// otherwise the root candidates split into contiguous chunks on the
  /// shared ThreadPool. `prepare(chunks)` runs once before any search with
  /// the chunk count (1 when serial, 0 when the join is trivially empty);
  /// `sink_for(c)` returns chunk c's sink. Chunks starting after `*done`
  /// turned true are skipped. Publishes the run's stats and status().
  template <class Prepare, class SinkFor>
  void RunSearch(int threads, Prepare&& prepare, SinkFor&& sink_for,
                 const std::atomic<bool>* done = nullptr);

  std::vector<Span> FullSpans() const;
  std::vector<DepthScratch> MakeScratch() const;

  /// True when some atom's relation is empty (the join is empty).
  bool HasEmptyAtom() const;

  int ResolvedThreads() const;

  /// Publishes one run's effort into ctx_.counters, if any.
  void ExportStats(const GenericJoinStats& run) const;

  std::vector<std::string> attribute_order_;
  std::vector<AtomIndex> atoms_;
  /// Atoms containing each attribute, with the trie level (column index) of
  /// the attribute in that atom.
  std::vector<std::vector<std::pair<int, int>>> atoms_of_attr_;
  /// Interned trace span ids (see DESIGN.md §9): the root intersection and
  /// one "generic_join.search.level<d>" per variable level. The per-level
  /// span is opened once per parent search node, so its count equals the
  /// number of nodes expanded at the level above — deterministic at any
  /// thread count because the traversal itself is.
  std::uint32_t root_span_ = 0;
  std::vector<std::uint32_t> level_spans_;
  std::uint64_t trie_nodes_ = 0;
  GenericJoinStats stats_;
  ExecutionContext ctx_;
  /// Resolved once at construction and shared by every worker; never null.
  std::shared_ptr<util::Budget> budget_;
  util::RunStatus run_status_ = util::RunStatus::kCompleted;
};

}  // namespace qc::db

#endif  // QC_DB_GENERIC_JOIN_H_
