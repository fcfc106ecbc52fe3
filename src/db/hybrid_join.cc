#include "db/hybrid_join.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "db/generic_join.h"
#include "db/joins.h"
#include "kernels/boolmm.h"
#include "util/trace.h"

namespace qc::db {

namespace {

/// True when work should stop (one work unit charged, budget tripped).
bool ChargeAndPoll(util::Budget* budget) {
  return budget != nullptr && budget->ChargeWork(1);
}

/// Set bits of `words[0..n)` as dense indices, in ascending order.
template <class Visit>
void ForEachBit(const std::uint64_t* words, std::size_t n, Visit&& visit) {
  for (std::size_t w = 0; w < n; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      visit(static_cast<int>(w * 64) + __builtin_ctzll(bits));
      bits &= bits - 1;
    }
  }
}

bool AnyBit(const std::uint64_t* words, std::size_t n) {
  for (std::size_t w = 0; w < n; ++w) {
    if (words[w] != 0) return true;
  }
  return false;
}

/// Set bits of `m` as (row, column) pairs in row-major order; stops when
/// `visit` returns false.
template <class Visit>
void ForEachSetPair(const graph::BoolMatrix& m, Visit&& visit) {
  const std::size_t n = m.words_per_row();
  for (int i = 0; i < m.rows(); ++i) {
    const std::uint64_t* words = m.RowWords(i);
    for (std::size_t w = 0; w < n; ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        if (!visit(i, static_cast<int>(w * 64) + __builtin_ctzll(bits))) {
          return;
        }
        bits &= bits - 1;
      }
    }
  }
}

/// Occurrence counts of one column's values. Small non-negative values (the
/// common vertex-id case) count through a flat array, grown on demand up to
/// `cap` entries; anything else falls back to hashing.
class ValueCounts {
 public:
  explicit ValueCounts(std::size_t cap)
      : cap_(cap), dense_(std::min<std::size_t>(cap, 256), 0) {}

  void Add(Value x) {
    const auto ux = static_cast<std::uint64_t>(x);
    if (ux < dense_.size()) {
      ++dense_[ux];
    } else {
      AddSlow(x);
    }
  }

  /// Appends every value counted more than `delta` times.
  void AppendOver(std::int64_t delta, std::vector<Value>* out) const {
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      if (dense_[i] > delta) out->push_back(static_cast<Value>(i));
    }
    for (const auto& [value, c] : sparse_) {
      if (c > delta) out->push_back(value);
    }
  }

 private:
  void AddSlow(Value x) {
    const auto ux = static_cast<std::uint64_t>(x);
    if (ux >= cap_) {
      ++sparse_[x];
      return;
    }
    dense_.resize(std::min<std::uint64_t>(
        cap_, std::max<std::uint64_t>(ux + 1, 2 * dense_.size())));
    ++dense_[ux];
  }

  std::uint64_t cap_;
  std::vector<std::int64_t> dense_;
  std::unordered_map<Value, std::int64_t> sparse_;
};

std::uint64_t PopcountWords(const std::uint64_t* words, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < n; ++w) {
    total += static_cast<std::uint64_t>(__builtin_popcountll(words[w]));
  }
  return total;
}

}  // namespace

HybridPattern DetectHybridPattern(const JoinQuery& query) {
  const std::vector<std::string> attrs = query.AttributeOrder();
  const int k = static_cast<int>(attrs.size());
  if (k < 3 || k > 5 || query.atoms.empty()) return HybridPattern::kNone;
  const std::map<std::string, int> index = query.AttributeIndex();
  std::set<std::pair<int, int>> pairs;
  for (const Atom& atom : query.atoms) {
    const std::vector<std::string> a = AtomAttributes(atom);
    if (a.size() != 2) return HybridPattern::kNone;
    int u = index.at(a[0]);
    int v = index.at(a[1]);
    if (u > v) std::swap(u, v);
    // A repeated pair would double-count in the disjoint partition.
    if (!pairs.insert({u, v}).second) return HybridPattern::kNone;
  }
  const std::size_t all = static_cast<std::size_t>(k) * (k - 1) / 2;
  if (pairs.size() == all) {
    if (k == 3) return HybridPattern::kTriangle;
    if (k == 4) return HybridPattern::kFourClique;
    return HybridPattern::kFiveClique;
  }
  if (k == 4 && pairs.size() == 4) {
    // 4 distinct pairs on 4 attributes with every attribute in exactly two
    // atoms is necessarily a single 4-cycle (two 2-cycles would need a
    // repeated pair, a triangle-plus-pendant has a degree-1 attribute).
    int deg[4] = {0, 0, 0, 0};
    for (const auto& [u, v] : pairs) {
      ++deg[u];
      ++deg[v];
    }
    for (int d : deg) {
      if (d != 2) return HybridPattern::kNone;
    }
    return HybridPattern::kFourCycle;
  }
  return HybridPattern::kNone;
}

HybridJoin::HybridJoin(const JoinQuery& query, const Database& db,
                       const ExecutionContext& ctx, std::int64_t delta)
    : query_(query), db_(db), ctx_(ctx), budget_(ctx.ResolveBudget()) {
  ctx_.budget = budget_;
  attribute_order_ = query.AttributeOrder();
  plan_.pattern = DetectHybridPattern(query);
  if (plan_.pattern == HybridPattern::kNone) return;
  for (const Atom& atom : query.atoms) {
    if (!db.HasRelation(atom.relation)) {
      // Leave malformed queries to the default engine's diagnostics.
      plan_.pattern = HybridPattern::kNone;
      return;
    }
  }
  if (delta <= 0 && ctx_.hybrid_delta > 0) delta = ctx_.hybrid_delta;
  static const std::uint32_t kPartitionSpan =
      util::Trace::InternName("hybrid.partition");
  util::ScopedSpan span(kPartitionSpan);
  BuildPartition(db, delta);
  ctx_.Count("hybrid.heavy_values", plan_.heavy_values);
  ctx_.Count("hybrid.heavy_tuples", plan_.heavy_tuples);
}

template <class Visit>
void HybridJoin::PatternAtom::ForEachRow(Visit&& visit) const {
  // Locals, not raw->...: the visitors write int64 counters, which could
  // alias the relation's size field and force a reload per row.
  const std::size_t n = raw->size();
  const std::size_t stride = static_cast<std::size_t>(raw->arity());
  const Value* row = raw->data().data();
  const int cu = col_u, cv = col_v;
  if (columns.eq_cols.empty()) {
    for (std::size_t r = 0; r < n; ++r, row += stride) visit(row[cu], row[cv]);
    return;
  }
  for (std::size_t r = 0; r < n; ++r, row += stride) {
    if (RowPassesEquality(row, columns)) visit(row[cu], row[cv]);
  }
}

void HybridJoin::BuildPartition(const Database& db,
                                std::int64_t delta_override) {
  const std::map<std::string, int> index = query_.AttributeIndex();
  const int k = static_cast<int>(attribute_order_.size());

  // Atom skeleton: attribute pair, the raw columns holding it (the kept
  // columns of a repeated-attribute atom, like MaterializeSortedProjection)
  // and the raw size.
  std::size_t max_rows = 0;
  for (const Atom& atom : query_.atoms) {
    PatternAtom pa;
    pa.columns = AnalyzeAtomColumns(atom);
    const int a0 = index.at(pa.columns.attributes[0]);
    const int a1 = index.at(pa.columns.attributes[1]);
    const bool swapped = a0 > a1;
    pa.u = swapped ? a1 : a0;
    pa.v = swapped ? a0 : a1;
    pa.col_u = pa.columns.keep_cols[swapped ? 1 : 0];
    pa.col_v = pa.columns.keep_cols[swapped ? 0 : 1];
    pa.raw = &db.Flat(atom.relation);
    max_rows = std::max(max_rows, pa.raw->size());
    atoms_.push_back(std::move(pa));
  }

  if (plan_.pattern == HybridPattern::kFourCycle) {
    // Canonical traversal order: start at attribute 0, take its
    // smaller-indexed neighbour first — deterministic across runs.
    std::vector<std::vector<int>> adj(k);
    for (const PatternAtom& pa : atoms_) {
      adj[pa.u].push_back(pa.v);
      adj[pa.v].push_back(pa.u);
    }
    for (auto& nbrs : adj) std::sort(nbrs.begin(), nbrs.end());
    cycle_[0] = 0;
    cycle_[1] = adj[0][0];
    cycle_[3] = adj[0][1];
    cycle_[2] =
        adj[cycle_[1]][0] == 0 ? adj[cycle_[1]][1] : adj[cycle_[1]][0];
  }

  // Threshold: Δ = max(1, √N) over the largest atom unless overridden —
  // the AGM-style balance point where the light residual's O(N·Δ) work and
  // the heavy core's (N/Δ)-sized dimensions meet, exactly the AYZ pick.
  if (delta_override > 0) {
    plan_.threshold = delta_override;
    plan_.threshold_overridden = true;
  } else {
    plan_.threshold = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::sqrt(static_cast<double>(max_rows))));
  }
  const std::int64_t delta = plan_.threshold;

  // Degree of value x for attribute d: the MAX occurrence count over every
  // (atom, column) pair holding d, counted in one pass over the atom's raw
  // rows that pass its equality filter. Heavy iff deg > Δ — the single
  // predicate both phases share (Δ-boundary values are light). The max
  // never needs merging: x is heavy exactly when SOME column count clears
  // Δ, so each column just contributes its over-Δ values and the union is
  // deduplicated at the end. Duplicate base rows inflate a raw count
  // relative to the deduplicated rows the phases evaluate; that only nudges
  // a value across the (free-to-choose) split, never the result.
  std::vector<std::vector<Value>> heavy_candidates(k);
  for (const PatternAtom& pa : atoms_) {
    const std::size_t cap = 4 * pa.raw->size() + 1024;
    ValueCounts cu(cap), cv(cap);
    pa.ForEachRow([&](Value x, Value y) {
      cu.Add(x);
      cv.Add(y);
    });
    cu.AppendOver(delta, &heavy_candidates[pa.u]);
    cv.AppendOver(delta, &heavy_candidates[pa.v]);
  }
  heavy_.resize(k);
  for (int d = 0; d < k; ++d) {
    std::vector<Value>& values = heavy_candidates[d];
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    HeavyDomain& dom = heavy_[d];
    dom.values = std::move(values);
    plan_.heavy_values += dom.values.size();
    if (dom.values.empty()) continue;
    dom.lo = dom.values.front();
    const std::uint64_t range = static_cast<std::uint64_t>(dom.values.back()) -
                                static_cast<std::uint64_t>(dom.lo) + 1;
    if (range <= 4 * max_rows + 1024) {
      dom.dense.assign(static_cast<std::size_t>(range) + 1, -1);
      for (std::size_t i = 0; i < dom.values.size(); ++i) {
        dom.dense[static_cast<std::size_t>(dom.values[i] - dom.lo)] =
            static_cast<std::int32_t>(i);
      }
    } else {
      for (std::size_t i = 0; i < dom.values.size(); ++i) {
        dom.sparse.emplace(dom.values[i], static_cast<int>(i));
      }
    }
  }
  if (plan_.heavy_values == 0) {
    // All-light fast path: the entire instance IS the light residual, so
    // the original query runs through one pure GenericJoin (shared cache
    // allowed — it evaluates the original, unfiltered atoms).
    plan_.delegated = true;
    return;
  }

  // Heavy core, straight from the raw rows: per atom the bit-packed
  // bi-adjacency of its both-ends-heavy tuples. A bit set twice is one
  // distinct pair, so the popcount is exactly the number of distinct heavy
  // tuples — ProfitableUnderAuto's input, known without sorting anything.
  // The transposes the heavy phase also reads wait for RunHeavy.
  for (PatternAtom& pa : atoms_) {
    const HeavyDomain& hu = heavy_[pa.u];
    const HeavyDomain& hv = heavy_[pa.v];
    pa.fwd = graph::BoolMatrix(static_cast<int>(hu.values.size()),
                               static_cast<int>(hv.values.size()));
    if (hu.values.empty() || hv.values.empty()) continue;
    // Word pointer and stride as locals: the bit stores are 64-bit, like
    // the matrix's size fields, so BoolMatrix::Set would reload those per
    // row.
    std::uint64_t* words = pa.fwd.RowWords(0);
    const std::size_t stride = pa.fwd.words_per_row();
    auto set = [words, stride](int iu, int iv) {
      if ((iu | iv) < 0) return;  // Either end light.
      words[iu * stride + (iv >> 6)] |= std::uint64_t{1} << (iv & 63);
    };
    if (!hu.dense.empty() && !hv.dense.empty()) {
      // HeavyDomain::Find inlined with its fields in registers: this pass
      // is most of what an auto-mode decline costs.
      const std::int32_t* du = hu.dense.data();
      const std::int32_t* dv = hv.dense.data();
      const std::uint64_t mu = hu.dense.size() - 1, mv = hv.dense.size() - 1;
      const auto lu = static_cast<std::uint64_t>(hu.lo);
      const auto lv = static_cast<std::uint64_t>(hv.lo);
      pa.ForEachRow([=](Value x, Value y) {
        set(du[std::min(static_cast<std::uint64_t>(x) - lu, mu)],
            dv[std::min(static_cast<std::uint64_t>(y) - lv, mv)]);
      });
    } else {
      pa.ForEachRow([&](Value x, Value y) { set(hu.Find(x), hv.Find(y)); });
    }
    for (int i = 0; i < pa.fwd.rows(); ++i) {
      plan_.heavy_tuples += PopcountWords(pa.fwd.RowWords(i), stride);
    }
  }
}

const std::vector<Value>& HybridJoin::HeavyValues(int attribute) const {
  static const std::vector<Value> kNone;
  if (attribute < 0 || attribute >= static_cast<int>(heavy_.size())) {
    return kNone;
  }
  return heavy_[attribute].values;
}

FlatRelation HybridJoin::LightRows(const PatternAtom& pa, int part) const {
  // 0 = unrestricted, 1 = light-only, 2 = heavy-only.
  auto col_class = [part](int attr) {
    if (attr == part) return 1;
    return attr < part ? 2 : 0;
  };
  const int cu = col_class(pa.u);
  const int cv = col_class(pa.v);
  const HeavyDomain& hu = heavy_[pa.u];
  const HeavyDomain& hv = heavy_[pa.v];
  FlatRelation rows(2);
  pa.ForEachRow([&](Value x, Value y) {
    if (cu != 0 && hu.IsHeavy(x) != (cu == 2)) return;
    if (cv != 0 && hv.IsHeavy(y) != (cv == 2)) return;
    const Value row[2] = {x, y};
    rows.PushRow(row);
  });
  return rows;
}

const HybridJoin::PatternAtom& HybridJoin::AtomOf(int i, int j) const {
  const int u = std::min(i, j);
  const int v = std::max(i, j);
  for (const PatternAtom& pa : atoms_) {
    if (pa.u == u && pa.v == v) return pa;
  }
  // Unreachable for detected patterns; keep the compiler honest.
  return atoms_.front();
}

const graph::BoolMatrix& HybridJoin::Mat(int i, int j) const {
  const PatternAtom& pa = AtomOf(i, j);
  return i < j ? pa.fwd : pa.rev;
}

bool HybridJoin::ProfitableUnderAuto() const {
  if (!applicable() || plan_.delegated) return false;
  // The heavy core pays when its average degree clears the word-parallel
  // break-even: each bitset row op touches H/64 words, so per-vertex work
  // amortizes once a heavy value participates in a few dozen heavy tuples.
  const std::uint64_t avg_heavy_degree =
      plan_.heavy_tuples / std::max<std::uint64_t>(1, plan_.heavy_values);
  return plan_.heavy_tuples >= 256 && avg_heavy_degree >= 16;
}

void HybridJoin::RunLight(Mode mode, FlatRelation* out,
                          std::uint64_t* count, bool* found) {
  static const std::uint32_t kLightSpan =
      util::Trace::InternName("hybrid.light");
  util::ScopedSpan span(kLightSpan);
  // Light residuals: partition i keeps tuples whose attribute-i columns are
  // light, attribute-j columns for j < i are heavy, and later columns are
  // unrestricted. A result tuple lands in exactly the partition of its
  // first light attribute, so the parts (and the all-heavy core) are
  // disjoint. Every part is filtered from the raw rows before any runs, so
  // light_tuples is the same however the evaluation ends; the rows then
  // move into GenericJoin, which sorts, deduplicates and indexes them in
  // private tries.
  const int k = static_cast<int>(attribute_order_.size());
  std::vector<std::vector<std::optional<AtomRows>>> parts(k);
  std::vector<bool> has_empty_atom(k, false);
  plan_.light_tuples = 0;
  for (int i = 0; i < k; ++i) {
    for (const PatternAtom& pa : atoms_) {
      FlatRelation rows = LightRows(pa, i);
      if (rows.empty()) has_empty_atom[i] = true;
      plan_.light_tuples += rows.size();
      parts[i].push_back(AtomRows{
          {attribute_order_[pa.u], attribute_order_[pa.v]}, std::move(rows)});
    }
  }
  ctx_.Count("hybrid.light_tuples", plan_.light_tuples);
  for (int i = 0; i < k; ++i) {
    if (Stopped()) return;
    if (mode == Mode::kIsEmpty && *found) return;
    if (has_empty_atom[i]) continue;
    GenericJoin gj(query_, db_, attribute_order_, ctx_, std::move(parts[i]));
    switch (mode) {
      case Mode::kEvaluate: {
        FlatJoinResult r = gj.EvaluateFlat();
        plan_.light_rows += r.rows.size();
        out->Append(r.rows);
        break;
      }
      case Mode::kCount: {
        const std::uint64_t c = gj.Count();
        plan_.light_rows += c;
        *count += c;
        break;
      }
      case Mode::kIsEmpty:
        if (!gj.IsEmpty()) *found = true;
        break;
    }
  }
}

void HybridJoin::RunHeavy(Mode mode, FlatRelation* out,
                          std::uint64_t* count, bool* found) {
  static const std::uint32_t kHeavySpan =
      util::Trace::InternName("hybrid.heavy");
  util::ScopedSpan span(kHeavySpan);
  if (Stopped()) return;
  if (mode == Mode::kIsEmpty && *found) return;
  if (!transposed_) {
    for (PatternAtom& pa : atoms_) {
      pa.rev = graph::BoolMatrix(pa.fwd.cols(), pa.fwd.rows());
      ForEachSetPair(pa.fwd, [&pa](int iu, int iv) {
        pa.rev.Set(iv, iu);
        return true;
      });
    }
    transposed_ = true;
  }
  switch (plan_.pattern) {
    case HybridPattern::kTriangle:
      HeavyTriangle(mode, out, count, found);
      break;
    case HybridPattern::kFourCycle:
      HeavyFourCycle(mode, out, count, found);
      break;
    case HybridPattern::kFourClique:
    case HybridPattern::kFiveClique:
      HeavyClique(mode, out, count, found);
      break;
    case HybridPattern::kNone:
      break;
  }
}

void HybridJoin::HeavyTriangle(Mode mode, FlatRelation* out,
                               std::uint64_t* count, bool* found) {
  // Attributes 0,1,2. MM prefilter: P = M(1,0)·M(0,2) marks the (b, c)
  // pairs with at least one heavy-0 witness; the per-pair witness set is
  // then one word-AND of two rows over the H_0 dimension.
  const graph::BoolMatrix* p = nullptr;
  graph::BoolMatrix product;
  {
    static const std::uint32_t kMmSpan = util::Trace::InternName("hybrid.mm");
    util::ScopedSpan mm_span(kMmSpan);
    product =
        Mat(1, 0).Multiply(Mat(0, 2), ctx_.ResolvedThreads(), budget_.get());
    p = &product;
  }
  if (Stopped()) return;
  const graph::BoolMatrix& m10 = Mat(1, 0);
  const graph::BoolMatrix& m20 = Mat(2, 0);
  const std::size_t wn = m10.words_per_row();  // H_0 words (== m20's)
  std::vector<std::uint64_t> witness(wn);
  Tuple binding(3);
  // Heavy (b, c) tuples in (H_1, H_2) order, read off the atom's bits.
  ForEachSetPair(AtomOf(1, 2).fwd, [&](int b, int c) {
    if (ChargeAndPoll(budget_.get())) return false;
    if (!p->Test(b, c)) return true;
    switch (mode) {
      case Mode::kCount: {
        const std::uint64_t w =
            kernels::AndPopcount(m10.RowWords(b), m20.RowWords(c), wn);
        plan_.heavy_rows += w;
        *count += w;
        return true;
      }
      case Mode::kIsEmpty:
        // The product bit already proves a witness exists.
        *found = true;
        return false;
      case Mode::kEvaluate: {
        kernels::AndWords2(witness.data(), m10.RowWords(b), m20.RowWords(c),
                           wn);
        bool stop = false;
        ForEachBit(witness.data(), wn, [&](int a) {
          if (stop) return;
          binding[0] = heavy_[0].values[a];
          binding[1] = heavy_[1].values[b];
          binding[2] = heavy_[2].values[c];
          out->PushRow(binding);
          ++plan_.heavy_rows;
          // Charge after materializing, like GenericJoin: exactly
          // row_limit rows land at the limit.
          if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
        });
        return !stop;
      }
    }
    return true;
  });
}

void HybridJoin::HeavyFourCycle(Mode mode, FlatRelation* out,
                                std::uint64_t* count, bool* found) {
  const int c0 = cycle_[0], c1 = cycle_[1], c2 = cycle_[2], c3 = cycle_[3];
  // Two MM prefilters over the opposite corner pair (c0, c2): P1 routes
  // through c1, P2 through c3. A bit set in both means at least one full
  // 4-cycle crosses that corner pair.
  graph::BoolMatrix p1, p2;
  {
    static const std::uint32_t kMmSpan = util::Trace::InternName("hybrid.mm");
    util::ScopedSpan mm_span(kMmSpan);
    p1 = Mat(c0, c1).Multiply(Mat(c1, c2), ctx_.ResolvedThreads(),
                              budget_.get());
    if (!Stopped()) {
      p2 = Mat(c0, c3).Multiply(Mat(c3, c2), ctx_.ResolvedThreads(),
                                budget_.get());
    }
  }
  if (Stopped()) return;
  const graph::BoolMatrix& m01 = Mat(c0, c1);
  const graph::BoolMatrix& m21 = Mat(c2, c1);
  const graph::BoolMatrix& m03 = Mat(c0, c3);
  const graph::BoolMatrix& m23 = Mat(c2, c3);
  const std::size_t corner_words = p1.words_per_row();  // H_c2 words
  const std::size_t b_words = m01.words_per_row();      // H_c1 words
  const std::size_t d_words = m03.words_per_row();      // H_c3 words
  std::vector<std::uint64_t> corners(corner_words);
  std::vector<std::uint64_t> side_b(b_words);
  std::vector<std::uint64_t> side_d(d_words);
  Tuple binding(4);
  const int rows = p1.rows();
  for (int x = 0; x < rows; ++x) {
    if (ChargeAndPoll(budget_.get())) return;
    kernels::AndWords2(corners.data(), p1.RowWords(x), p2.RowWords(x),
                       corner_words);
    bool stop = false;
    ForEachBit(corners.data(), corner_words, [&](int z) {
      if (stop) return;
      switch (mode) {
        case Mode::kCount: {
          // |witnesses through c1| x |witnesses through c3|, no
          // enumeration: both popcounts are nonzero by the prefilter.
          const std::uint64_t nb =
              kernels::AndPopcount(m01.RowWords(x), m21.RowWords(z), b_words);
          const std::uint64_t nd =
              kernels::AndPopcount(m03.RowWords(x), m23.RowWords(z), d_words);
          plan_.heavy_rows += nb * nd;
          *count += nb * nd;
          break;
        }
        case Mode::kIsEmpty:
          *found = true;
          stop = true;
          break;
        case Mode::kEvaluate: {
          kernels::AndWords2(side_b.data(), m01.RowWords(x), m21.RowWords(z),
                             b_words);
          kernels::AndWords2(side_d.data(), m03.RowWords(x), m23.RowWords(z),
                             d_words);
          binding[c0] = heavy_[c0].values[x];
          binding[c2] = heavy_[c2].values[z];
          ForEachBit(side_b.data(), b_words, [&](int b) {
            if (stop) return;
            binding[c1] = heavy_[c1].values[b];
            ForEachBit(side_d.data(), d_words, [&](int d) {
              if (stop) return;
              binding[c3] = heavy_[c3].values[d];
              out->PushRow(binding);
              ++plan_.heavy_rows;
              if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
            });
          });
          break;
        }
      }
    });
    if (stop) return;  // emptiness witnessed, or row budget tripped
  }
}

void HybridJoin::HeavyClique(Mode mode, FlatRelation* out,
                             std::uint64_t* count, bool* found) {
  // k-clique (k = 4 or 5) by bitset descent over the heavy tuples of atom
  // (0,1): candidate sets for each later attribute are word-ANDs of the
  // rows of every already-bound attribute.
  const bool five = plan_.pattern == HybridPattern::kFiveClique;
  const std::size_t w2 = Mat(0, 2).words_per_row();
  const std::size_t w3 = Mat(0, 3).words_per_row();
  const std::size_t w4 = five ? Mat(0, 4).words_per_row() : 0;
  std::vector<std::uint64_t> s2(w2), s3ab(w3), s3(w3), s4ab(w4), s4(w4),
      s4d(w4);
  Tuple binding(five ? 5 : 4);
  ForEachSetPair(AtomOf(0, 1).fwd, [&](int a, int b) {
    if (ChargeAndPoll(budget_.get())) return false;
    kernels::AndWords2(s2.data(), Mat(0, 2).RowWords(a), Mat(1, 2).RowWords(b),
                       w2);
    if (!AnyBit(s2.data(), w2)) return true;
    kernels::AndWords2(s3ab.data(), Mat(0, 3).RowWords(a),
                       Mat(1, 3).RowWords(b), w3);
    if (five) {
      kernels::AndWords2(s4ab.data(), Mat(0, 4).RowWords(a),
                         Mat(1, 4).RowWords(b), w4);
    }
    binding[0] = heavy_[0].values[a];
    binding[1] = heavy_[1].values[b];
    bool stop = false;
    ForEachBit(s2.data(), w2, [&](int c) {
      if (stop) return;
      kernels::AndWords2(s3.data(), s3ab.data(), Mat(2, 3).RowWords(c), w3);
      binding[2] = heavy_[2].values[c];
      if (!five) {
        switch (mode) {
          case Mode::kCount: {
            const std::uint64_t n = PopcountWords(s3.data(), w3);
            plan_.heavy_rows += n;
            *count += n;
            break;
          }
          case Mode::kIsEmpty:
            if (AnyBit(s3.data(), w3)) {
              *found = true;
              stop = true;
            }
            break;
          case Mode::kEvaluate:
            ForEachBit(s3.data(), w3, [&](int d) {
              if (stop) return;
              binding[3] = heavy_[3].values[d];
              out->PushRow(binding);
              ++plan_.heavy_rows;
              if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
            });
            break;
        }
        return;
      }
      kernels::AndWords2(s4.data(), s4ab.data(), Mat(2, 4).RowWords(c), w4);
      ForEachBit(s3.data(), w3, [&](int d) {
        if (stop) return;
        binding[3] = heavy_[3].values[d];
        switch (mode) {
          case Mode::kCount: {
            const std::uint64_t n =
                kernels::AndPopcount(s4.data(), Mat(3, 4).RowWords(d), w4);
            plan_.heavy_rows += n;
            *count += n;
            break;
          }
          case Mode::kIsEmpty:
            if (kernels::AndPopcount(s4.data(), Mat(3, 4).RowWords(d), w4) >
                0) {
              *found = true;
              stop = true;
            }
            break;
          case Mode::kEvaluate:
            kernels::AndWords2(s4d.data(), s4.data(), Mat(3, 4).RowWords(d),
                               w4);
            ForEachBit(s4d.data(), w4, [&](int e) {
              if (stop) return;
              binding[4] = heavy_[4].values[e];
              out->PushRow(binding);
              ++plan_.heavy_rows;
              if (budget_ != nullptr && budget_->ChargeRows(1)) stop = true;
            });
            break;
        }
      });
    });
    return !stop;  // false: emptiness witnessed, or row budget tripped
  });
}

FlatJoinResult HybridJoin::EvaluateFlat() {
  FlatJoinResult result;
  result.attributes = attribute_order_;
  result.rows = FlatRelation(static_cast<int>(attribute_order_.size()));
  if (!applicable()) return result;
  plan_.heavy_rows = 0;
  plan_.light_rows = 0;
  if (plan_.delegated) {
    GenericJoin gj(query_, db_, attribute_order_, ctx_);
    result = gj.EvaluateFlat();
    plan_.light_rows = result.rows.size();
    run_status_ = gj.status();
    return result;
  }
  RunLight(Mode::kEvaluate, &result.rows, nullptr, nullptr);
  RunHeavy(Mode::kEvaluate, &result.rows, nullptr, nullptr);
  {
    // The parts are disjoint, so this dedup never drops rows — the sort
    // alone re-establishes GenericJoin's lexicographic output order. The
    // radix scratch comes from the heap, not the monotonic ctx_.arena, so
    // it is freed here instead of staying resident until the request ends.
    static const std::uint32_t kMergeSpan =
        util::Trace::InternName("hybrid.merge");
    util::ScopedSpan span(kMergeSpan);
    result.rows.SortLexAndDedup();
  }
  run_status_ = Stopped() ? budget_->status() : util::RunStatus::kCompleted;
  result.truncated = run_status_ != util::RunStatus::kCompleted;
  ctx_.Count("hybrid.heavy_rows", plan_.heavy_rows);
  ctx_.Count("hybrid.light_rows", plan_.light_rows);
  return result;
}

std::uint64_t HybridJoin::Count() {
  if (!applicable()) return 0;
  plan_.heavy_rows = 0;
  plan_.light_rows = 0;
  if (plan_.delegated) {
    GenericJoin gj(query_, db_, attribute_order_, ctx_);
    const std::uint64_t c = gj.Count();
    plan_.light_rows = c;
    run_status_ = gj.status();
    return c;
  }
  std::uint64_t count = 0;
  RunLight(Mode::kCount, nullptr, &count, nullptr);
  RunHeavy(Mode::kCount, nullptr, &count, nullptr);
  run_status_ = Stopped() ? budget_->status() : util::RunStatus::kCompleted;
  ctx_.Count("hybrid.heavy_rows", plan_.heavy_rows);
  ctx_.Count("hybrid.light_rows", plan_.light_rows);
  return count;
}

bool HybridJoin::IsEmpty() {
  if (!applicable()) return true;
  if (plan_.delegated) {
    GenericJoin gj(query_, db_, attribute_order_, ctx_);
    const bool empty = gj.IsEmpty();
    run_status_ = gj.status();
    return empty;
  }
  bool found = false;
  RunLight(Mode::kIsEmpty, nullptr, nullptr, &found);
  if (!found) RunHeavy(Mode::kIsEmpty, nullptr, nullptr, &found);
  run_status_ = (!found && Stopped()) ? budget_->status()
                                      : util::RunStatus::kCompleted;
  return !found;
}

}  // namespace qc::db
