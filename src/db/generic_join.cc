#include "db/generic_join.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>

#include "db/joins.h"
#include "kernels/dispatch.h"
#include "kernels/intersect.h"
#include "util/threadpool.h"

namespace qc::db {

namespace {

/// `given`'s rows with columns gathered into `attrs` order, sorted and
/// deduplicated: the relation a trie over the atom indexes.
FlatRelation SortedColumns(AtomRows given,
                           const std::vector<std::string>& attrs,
                           util::Arena* arena) {
  FlatRelation out;
  if (given.attributes == attrs) {
    out = std::move(given.rows);
  } else {
    std::vector<int> src;
    src.reserve(attrs.size());
    for (const auto& a : attrs) {
      src.push_back(static_cast<int>(
          std::find(given.attributes.begin(), given.attributes.end(), a) -
          given.attributes.begin()));
    }
    out = FlatRelation(static_cast<int>(attrs.size()));
    out.Reserve(given.rows.size());
    Tuple buffer(src.size());
    for (std::size_t r = 0; r < given.rows.size(); ++r) {
      const Value* row = given.rows.Row(r);
      for (std::size_t c = 0; c < src.size(); ++c) buffer[c] = row[src[c]];
      out.PushRow(buffer.data());
    }
  }
  out.SortLexAndDedup(FlatRelation::SortPolicy::kAuto, arena);
  return out;
}

}  // namespace

GenericJoin::GenericJoin(const JoinQuery& query, const Database& db,
                         std::vector<std::string> attribute_order,
                         const ExecutionContext& ctx,
                         std::vector<std::optional<AtomRows>> direct)
    : ctx_(ctx) {
  attribute_order_ = attribute_order.empty() ? query.AttributeOrder()
                                             : std::move(attribute_order);
  std::map<std::string, int> global;
  for (int i = 0; i < static_cast<int>(attribute_order_.size()); ++i) {
    global[attribute_order_[i]] = i;
  }
  atoms_of_attr_.resize(attribute_order_.size());
  root_span_ = util::Trace::InternName("generic_join.search.root");
  level_spans_.reserve(attribute_order_.size());
  for (std::size_t d = 0; d < attribute_order_.size(); ++d) {
    level_spans_.push_back(util::Trace::InternName(
        "generic_join.search.level" + std::to_string(d)));
  }

  static const std::uint32_t kBuildSpan =
      util::Trace::InternName("generic_join.build_trie");
  IndexCache* cache = ctx_.index_cache;
  // Without a cache every atom builds, so one span wraps the whole loop (the
  // historical shape). With a cache the span moves inside the builder: it
  // records only actual builds and is absent from a fully warm run.
  std::optional<util::ScopedSpan> all_builds_span;
  if (cache == nullptr) all_builds_span.emplace(kBuildSpan);
  for (std::size_t i = 0; i < query.atoms.size(); ++i) {
    const Atom& atom = query.atoms[i];
    std::optional<AtomRows>* given =
        i < direct.size() && direct[i].has_value() ? &direct[i] : nullptr;
    AtomIndex idx;
    // Deduplicated schema + equality filtering for repeated attributes,
    // columns permuted into global order: the atom's distinct attributes
    // sorted by global position, which is both the trie level order and the
    // canonical projection the cache keys on.
    std::vector<std::string> ordered = AtomAttributes(atom);
    std::sort(ordered.begin(), ordered.end(),
              [&](const std::string& a, const std::string& b) {
                return global.at(a) < global.at(b);
              });
    idx.attr_positions.reserve(ordered.size());
    for (const auto& a : ordered) idx.attr_positions.push_back(global.at(a));
    auto build = [&]() {
      std::optional<util::ScopedSpan> build_span;
      if (cache != nullptr) build_span.emplace(kBuildSpan);
      IndexCache::Entry entry;
      // ctx.arena backs the sort and trie-build scratch; the entry itself
      // owns its memory, so a cached trie never outlives into the arena.
      FlatRelation flat =
          given != nullptr
              ? SortedColumns(std::move(**given), ordered, ctx_.arena)
              : MaterializeSortedProjection(atom, db, ordered, ctx_.arena);
      entry.no_rows = flat.empty();
      entry.trie = TrieIndex(flat, ctx_.arena);
      return entry;
    };
    if (cache != nullptr && given == nullptr) {
      // Hit/miss/eviction accounting lives in the cache itself (exported
      // once per tool via ExportCounters, not per engine run, so
      // shared-cache totals are never double-counted).
      idx.entry = cache->GetOrBuild(atom.relation,
                                    db.RelationVersion(atom.relation),
                                    AtomProjectionSignature(atom, ordered),
                                    build);
    } else {
      idx.entry = std::make_shared<const IndexCache::Entry>(build());
    }
    int atom_id = static_cast<int>(atoms_.size());
    for (std::size_t col = 0; col < idx.attr_positions.size(); ++col) {
      atoms_of_attr_[idx.attr_positions[col]].push_back(
          {atom_id, static_cast<int>(col)});
    }
    trie_nodes_ += idx.trie().num_nodes();
    atoms_.push_back(std::move(idx));
  }
  ctx_.Count("trie.nodes", trie_nodes_);
  budget_ = ctx_.ResolveBudget();
}

int GenericJoin::ResolvedThreads() const { return ctx_.ResolvedThreads(); }

void GenericJoin::ExportStats(const GenericJoinStats& run) const {
  ctx_.Count("generic_join.nodes", run.nodes);
  ctx_.Count("generic_join.probes", run.probes);
  ctx_.Count("generic_join.gallops", run.gallops);
  ctx_.Count("generic_join.simd_blocks", run.simd_blocks);
}

bool GenericJoin::HasEmptyAtom() const {
  for (const auto& a : atoms_) {
    if (a.no_rows()) return true;
  }
  return false;
}

std::vector<GenericJoin::Span> GenericJoin::FullSpans() const {
  std::vector<Span> spans(atoms_.size());
  for (std::size_t a = 0; a < atoms_.size(); ++a) {
    const TrieIndex& trie = atoms_[a].trie();
    std::int32_t n = trie.levels() > 0
                         ? static_cast<std::int32_t>(trie.LevelSize(0))
                         : 0;
    spans[a] = Span{0, n};
  }
  return spans;
}

std::vector<GenericJoin::DepthScratch> GenericJoin::MakeScratch() const {
  std::vector<DepthScratch> scratch(atoms_of_attr_.size());
  for (std::size_t d = 0; d < atoms_of_attr_.size(); ++d) {
    const std::size_t h = atoms_of_attr_[d].size();
    scratch[d].cursors.resize(h);
    scratch[d].values.resize(h);
    scratch[d].ends.resize(h);
    scratch[d].saved.resize(h);
  }
  return scratch;
}

std::int32_t GenericJoin::GallopSeek(const Value* vals, std::int32_t pos,
                                     std::int32_t end, Value target,
                                     GenericJoinStats* stats) const {
  // Doubling probe: grow the window until it brackets the target (or hits
  // the span end), then one bounded binary search inside it.
  std::int32_t offset = 1;
  while (pos + offset < end && vals[pos + offset] < target) {
    ++stats->gallops;
    offset <<= 1;
  }
  std::int32_t lo = pos + (offset >> 1);
  std::int32_t hi = std::min<std::int64_t>(
      static_cast<std::int64_t>(pos) + offset + 1, end);
  ++stats->probes;
  return static_cast<std::int32_t>(
      std::lower_bound(vals + lo, vals + hi, target) - vals);
}

GenericJoin::Span GenericJoin::DescendSpan(int atom, int col,
                                           std::int32_t pos) const {
  const TrieIndex& trie = atoms_[atom].trie();
  if (col + 1 >= trie.levels()) return Span{0, 0};  // Leaf: fully bound.
  return Span{trie.ChildrenBegin(col, pos), trie.ChildrenEnd(col, pos)};
}

template <class Emit>
void GenericJoin::PairIntersect(DepthScratch& scratch, GenericJoinStats* stats,
                                Emit&& emit) const {
  auto& cur = scratch.cursors;
  const Value* A = scratch.values[0];
  const Value* B = scratch.values[1];
  const std::int32_t ea = scratch.ends[0], eb = scratch.ends[1];
  std::int32_t ia = cur[0], jb = cur[1];
  if (scratch.pos_a.size() < static_cast<std::size_t>(kPairChunk)) {
    scratch.pos_a.resize(kPairChunk);
    scratch.pos_b.resize(kPairChunk);
  }
  while (ia < ea && jb < eb) {
    const std::int32_t ca = std::min(kPairChunk, ea - ia);
    const Value amax = A[ia + ca - 1];
    // First B index past this chunk's maximum: doubling probe from jb, then
    // one bounded upper_bound — every B value at or below amax belongs to
    // this chunk and is consumed by it.
    std::int32_t off = 1;
    while (jb + off < eb && B[jb + off] <= amax) off <<= 1;
    const std::int32_t lo = jb + (off >> 1);
    const std::int32_t hi = static_cast<std::int32_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(jb) + off + 1, eb));
    const std::int32_t bhi =
        static_cast<std::int32_t>(std::upper_bound(B + lo, B + hi, amax) - B);
    const std::size_t k = kernels::IntersectPairPositions(
        A + ia, static_cast<std::size_t>(ca), B + jb,
        static_cast<std::size_t>(bhi - jb), scratch.pos_a.data(),
        scratch.pos_b.data());
    ++stats->simd_blocks;
    for (std::size_t t = 0; t < k; ++t) {
      cur[0] = ia + scratch.pos_a[t];
      cur[1] = jb + scratch.pos_b[t];
      if (!emit(A[cur[0]], cur.data())) return;
    }
    ia += ca;
    jb = bhi;
  }
}

template <class Emit>
void GenericJoin::LeapfrogIntersect(int depth, const std::vector<Span>& spans,
                                    DepthScratch& scratch,
                                    GenericJoinStats* stats,
                                    Emit&& emit) const {
  const auto& holders = atoms_of_attr_[depth];
  if (holders.empty()) std::abort();  // Every attribute comes from an atom.
  const int h = static_cast<int>(holders.size());
  auto& cur = scratch.cursors;
  auto& vals = scratch.values;
  auto& ends = scratch.ends;
  for (int i = 0; i < h; ++i) {
    auto [a, col] = holders[i];
    vals[i] = atoms_[a].trie().Values(col);
    cur[i] = spans[a].begin;
    ends[i] = spans[a].end;
    if (cur[i] >= ends[i]) return;  // Empty span: empty intersection.
  }
  if (h == 1) {
    // Single holder: every node value survives; pure pointer bump.
    for (; cur[0] < ends[0]; ++cur[0]) {
      if (!emit(vals[0][cur[0]], cur.data())) return;
    }
    return;
  }
  if (h == 2 && kernels::ActiveSimdLevel() != kernels::SimdLevel::kScalar) {
    // Two holders cover most real per-level intersections (binary-relation
    // queries); hand non-skewed, non-trivial pairs to the blocked SIMD
    // kernel. Skewed pairs stay on the leapfrog, whose galloping already is
    // the right algorithm there. QC_SIMD=scalar never enters this branch —
    // it runs the historical engine path unchanged.
    const std::int64_t na = ends[0] - cur[0], nb = ends[1] - cur[1];
    const std::int64_t shorter = std::min(na, nb);
    const std::int64_t longer = std::max(na, nb);
    if (shorter >= 16 &&
        longer <= shorter * static_cast<std::int64_t>(
                                kernels::kGallopSkewRatio)) {
      PairIntersect(scratch, stats, static_cast<Emit&&>(emit));
      return;
    }
  }
  Value max_v = vals[0][cur[0]];
  for (int i = 1; i < h; ++i) max_v = std::max(max_v, vals[i][cur[i]]);
  for (;;) {
    // Leapfrog: gallop every lagging cursor up to the current maximum until
    // all cursors agree; each overshoot raises the maximum.
    bool aligned = false;
    while (!aligned) {
      aligned = true;
      for (int i = 0; i < h; ++i) {
        if (vals[i][cur[i]] < max_v) {
          cur[i] = GallopSeek(vals[i], cur[i], ends[i], max_v, stats);
          if (cur[i] == ends[i]) return;
          if (vals[i][cur[i]] > max_v) {
            max_v = vals[i][cur[i]];
            aligned = false;
          }
        }
      }
    }
    if (!emit(max_v, cur.data())) return;
    if (++cur[0] == ends[0]) return;
    max_v = vals[0][cur[0]];
  }
}

void GenericJoin::Search(int depth, std::vector<Span>& spans,
                         std::vector<DepthScratch>& scratch, Tuple& binding,
                         const std::function<bool(const Tuple&)>& visitor,
                         bool* stop, GenericJoinStats* stats) const {
  if (depth == static_cast<int>(attribute_order_.size())) {
    if (!visitor(binding)) *stop = true;
    return;
  }
  // Span per parent node at this level (inclusive of the whole descent
  // below); ~1 relaxed load when tracing is off, same placement cost as the
  // budget poll.
  util::ScopedSpan level_span(level_spans_[depth]);
  const auto& holders = atoms_of_attr_[depth];
  const int h = static_cast<int>(holders.size());
  DepthScratch& ds = scratch[depth];
  LeapfrogIntersect(depth, spans, ds, stats,
                    [&](Value v, const std::int32_t* pos) {
                      // Safe point: one budget poll per search node (~1
                      // relaxed atomic load; see util::Budget).
                      if (budget_->Poll()) {
                        *stop = true;
                        return false;
                      }
                      ++stats->nodes;
                      binding[depth] = v;
                      for (int i = 0; i < h; ++i) {
                        auto [a, col] = holders[i];
                        ds.saved[i] = spans[a];
                        spans[a] = DescendSpan(a, col, pos[i]);
                      }
                      Search(depth + 1, spans, scratch, binding, visitor, stop,
                             stats);
                      for (int i = 0; i < h; ++i) {
                        spans[holders[i].first] = ds.saved[i];
                      }
                      return !*stop;
                    });
}

bool GenericJoin::ComputeRootCandidates(RootCandidates* candidates,
                                        GenericJoinStats* stats) const {
  if (attribute_order_.empty() || HasEmptyAtom()) return false;
  util::ScopedSpan root_span(root_span_);
  std::vector<Span> spans = FullSpans();
  const std::size_t h = atoms_of_attr_[0].size();
  DepthScratch scratch;
  scratch.cursors.resize(h);
  scratch.values.resize(h);
  scratch.ends.resize(h);
  LeapfrogIntersect(0, spans, scratch, stats,
                    [&](Value v, const std::int32_t* pos) {
                      // A tripped budget leaves a prefix of the candidates —
                      // a subset of the answer, consistent with truncation.
                      if (budget_->Poll()) return false;
                      candidates->values.push_back(v);
                      candidates->positions.insert(candidates->positions.end(),
                                                   pos, pos + h);
                      return true;
                    });
  return true;
}

void GenericJoin::SearchCandidate(
    const RootCandidates& candidates, std::size_t i, std::vector<Span>& spans,
    std::vector<DepthScratch>& scratch, Tuple& binding,
    const std::function<bool(const Tuple&)>& visitor, bool* stop,
    GenericJoinStats* stats) const {
  const auto& holders = atoms_of_attr_[0];
  const std::size_t h = holders.size();
  const std::int32_t* pos = candidates.positions.data() + i * h;
  // Level-0 span opens once per root candidate, independent of how the
  // candidate range is partitioned across worker threads.
  util::ScopedSpan level_span(level_spans_[0]);
  DepthScratch& ds = scratch[0];
  if (budget_->Poll()) {
    *stop = true;
    return;
  }
  ++stats->nodes;
  binding[0] = candidates.values[i];
  for (std::size_t j = 0; j < h; ++j) {
    auto [a, col] = holders[j];
    ds.saved[j] = spans[a];
    spans[a] = DescendSpan(a, col, pos[j]);
  }
  Search(1, spans, scratch, binding, visitor, stop, stats);
  for (std::size_t j = 0; j < h; ++j) {
    spans[holders[j].first] = ds.saved[j];
  }
}

void GenericJoin::Enumerate(const std::function<bool(const Tuple&)>& visitor) {
  GenericJoinStats run;
  if (attribute_order_.empty()) {
    // No attributes to bind: one empty answer unless some atom is empty.
    if (!HasEmptyAtom()) {
      Tuple binding;
      visitor(binding);
    }
  } else {
    RootCandidates candidates;
    if (ComputeRootCandidates(&candidates, &run)) {
      std::vector<Span> spans = FullSpans();
      std::vector<DepthScratch> scratch = MakeScratch();
      Tuple binding(attribute_order_.size());
      bool stop = false;
      for (std::size_t i = 0; i < candidates.values.size() && !stop; ++i) {
        SearchCandidate(candidates, i, spans, scratch, binding, visitor, &stop,
                        &run);
      }
    }
  }
  stats_ += run;
  ExportStats(run);
  run_status_ = budget_->status();
}

FlatJoinResult GenericJoin::EvaluateFlat() {
  FlatJoinResult out;
  out.attributes = attribute_order_;
  const int arity = static_cast<int>(attribute_order_.size());
  out.rows = FlatRelation(arity);
  if (ResolvedThreads() <= 1 || attribute_order_.empty()) {
    // Charge after appending: at a row limit R, exactly R rows materialize.
    Enumerate([this, &out](const Tuple& t) {
      out.rows.PushRow(t.data());
      return !budget_->ChargeRows(1);
    });
    run_status_ = budget_->status();
    out.truncated = run_status_ != util::RunStatus::kCompleted;
    return out;
  }

  GenericJoinStats run;
  RootCandidates candidates;
  if (ComputeRootCandidates(&candidates, &run)) {
    // Contiguous chunks of candidates with per-chunk flat buffers and stats
    // (not per-candidate: one buffer per chunk, not per root value),
    // appended in chunk order below — the result is bit-identical to the
    // serial enumeration order at any thread count.
    const std::int64_t n = static_cast<std::int64_t>(candidates.values.size());
    const int threads = ResolvedThreads();
    const std::int64_t chunks =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(threads) * 8);
    std::vector<FlatRelation> buffers(chunks, FlatRelation(arity));
    std::vector<GenericJoinStats> chunk_stats(chunks);
    util::ThreadPool::Shared().ParallelFor(
        0, chunks,
        [&](std::int64_t clo, std::int64_t chi) {
          for (std::int64_t c = clo; c < chi; ++c) {
            std::vector<Span> spans = FullSpans();
            std::vector<DepthScratch> scratch = MakeScratch();
            Tuple binding(attribute_order_.size());
            bool stop = false;
            auto sink = [this, &buffers, &stop, c](const Tuple& t) {
              buffers[c].PushRow(t.data());
              if (budget_->ChargeRows(1)) {
                stop = true;
                return false;
              }
              return true;
            };
            for (std::int64_t i = c * n / chunks;
                 i < (c + 1) * n / chunks && !stop; ++i) {
              SearchCandidate(candidates, static_cast<std::size_t>(i), spans,
                              scratch, binding, sink, &stop, &chunk_stats[c]);
            }
          }
        },
        threads, /*min_grain=*/1, budget_.get());
    std::size_t total = 0;
    for (const FlatRelation& b : buffers) total += b.size();
    out.rows.Reserve(total);
    for (std::int64_t c = 0; c < chunks; ++c) {
      run += chunk_stats[c];
      out.rows.Append(buffers[c]);
      buffers[c] = FlatRelation();
    }
    // Concurrent chunks may each append a last row before observing the
    // global row limit; truncate so the merged answer honours it exactly.
    if (budget_->row_limit() > 0) out.rows.Truncate(budget_->row_limit());
  }
  stats_ += run;
  ExportStats(run);
  run_status_ = budget_->status();
  out.truncated = run_status_ != util::RunStatus::kCompleted;
  return out;
}

bool GenericJoin::IsEmpty() {
  if (ResolvedThreads() <= 1 || attribute_order_.empty()) {
    bool found = false;
    Enumerate([&found](const Tuple&) {
      found = true;
      return false;
    });
    return !found;
  }
  // "Non-empty" is always a real witness; "empty" under a tripped budget
  // (status() != kCompleted) means Unknown.

  GenericJoinStats run;
  RootCandidates candidates;
  std::atomic<bool> found(false);
  if (ComputeRootCandidates(&candidates, &run)) {
    const std::int64_t n = static_cast<std::int64_t>(candidates.values.size());
    const int threads = ResolvedThreads();
    const std::int64_t chunks =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(threads) * 8);
    std::vector<GenericJoinStats> chunk_stats(chunks);
    util::ThreadPool::Shared().ParallelFor(
        0, chunks,
        [&](std::int64_t clo, std::int64_t chi) {
          for (std::int64_t c = clo; c < chi; ++c) {
            if (found.load(std::memory_order_relaxed)) return;
            std::vector<Span> spans = FullSpans();
            std::vector<DepthScratch> scratch = MakeScratch();
            Tuple binding(attribute_order_.size());
            bool stop = false;
            auto sink = [&found](const Tuple&) {
              found.store(true, std::memory_order_relaxed);
              return false;  // Stop this partition's search.
            };
            for (std::int64_t i = c * n / chunks;
                 i < (c + 1) * n / chunks && !stop; ++i) {
              SearchCandidate(candidates, static_cast<std::size_t>(i), spans,
                              scratch, binding, sink, &stop, &chunk_stats[c]);
            }
          }
        },
        threads, /*min_grain=*/1, budget_.get());
    for (const auto& cs : chunk_stats) run += cs;
  }
  stats_ += run;
  ExportStats(run);
  run_status_ = budget_->status();
  return !found.load();
}

std::uint64_t GenericJoin::Count() {
  // Counted rows are charged like materialized ones, so --max-rows bounds
  // counting effort too; on a trip the count-so-far is returned (a lower
  // bound on the true count) with status() recording the cause.
  if (ResolvedThreads() <= 1 || attribute_order_.empty()) {
    std::uint64_t count = 0;
    Enumerate([this, &count](const Tuple&) {
      ++count;
      return !budget_->ChargeRows(1);
    });
    return count;
  }

  GenericJoinStats run;
  RootCandidates candidates;
  std::uint64_t count = 0;
  if (ComputeRootCandidates(&candidates, &run)) {
    const std::int64_t n = static_cast<std::int64_t>(candidates.values.size());
    const int threads = ResolvedThreads();
    const std::int64_t chunks =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(threads) * 8);
    std::vector<std::uint64_t> counts(chunks, 0);
    std::vector<GenericJoinStats> chunk_stats(chunks);
    util::ThreadPool::Shared().ParallelFor(
        0, chunks,
        [&](std::int64_t clo, std::int64_t chi) {
          for (std::int64_t c = clo; c < chi; ++c) {
            std::vector<Span> spans = FullSpans();
            std::vector<DepthScratch> scratch = MakeScratch();
            Tuple binding(attribute_order_.size());
            bool stop = false;
            auto sink = [this, &counts, &stop, c](const Tuple&) {
              ++counts[c];
              if (budget_->ChargeRows(1)) {
                stop = true;
                return false;
              }
              return true;
            };
            for (std::int64_t i = c * n / chunks;
                 i < (c + 1) * n / chunks && !stop; ++i) {
              SearchCandidate(candidates, static_cast<std::size_t>(i), spans,
                              scratch, binding, sink, &stop, &chunk_stats[c]);
            }
          }
        },
        threads, /*min_grain=*/1, budget_.get());
    for (std::int64_t c = 0; c < chunks; ++c) {
      run += chunk_stats[c];
      count += counts[c];
    }
  }
  stats_ += run;
  ExportStats(run);
  run_status_ = budget_->status();
  return count;
}

}  // namespace qc::db
