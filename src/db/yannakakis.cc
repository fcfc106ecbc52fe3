#include "db/yannakakis.h"

#include <algorithm>
#include <map>
#include <optional>

#include "db/generic_join.h"
#include "graph/hypergraph.h"
#include "util/trace.h"

namespace qc::db {

/// Join-tree structure from the GYO reduction: parent per atom (-1 at the
/// root) and a root-last processing order. Returns false if cyclic.
bool BuildJoinTree(const JoinQuery& query, std::vector<int>* parent,
                   std::vector<int>* order) {
  graph::Hypergraph h = query.Hypergraph();
  if (!graph::IsAlphaAcyclic(h, parent)) return false;
  const int m = static_cast<int>(query.atoms.size());
  // Topological order: parents after children (root last). Kahn-style.
  std::vector<int> child_count(m, 0);
  for (int e = 0; e < m; ++e) {
    if ((*parent)[e] >= 0) ++child_count[(*parent)[e]];
  }
  std::vector<int> queue;
  for (int e = 0; e < m; ++e) {
    if (child_count[e] == 0) queue.push_back(e);
  }
  order->clear();
  for (std::size_t head = 0; head < queue.size(); ++head) {
    int e = queue[head];
    order->push_back(e);
    int p = (*parent)[e];
    if (p >= 0 && --child_count[p] == 0) queue.push_back(p);
  }
  return static_cast<int>(order->size()) == m;
}

bool IsAcyclicQuery(const JoinQuery& query) {
  graph::Hypergraph h = query.Hypergraph();
  return graph::IsAlphaAcyclic(h);
}

namespace {

/// a ⋉ b in place: keeps the rows of `a` whose projection onto the
/// attributes shared with `b` occurs in `b`, marking `a` shrunk when any row
/// goes. The key set is a trie over b's projection; while b is unshrunk it
/// equals the projection of b's relation, so with a cache it is fetched by
/// relation version and shared across calls and runs. Polls `budget` once
/// per probed row and stops at a trip.
void SemijoinInPlace(ReducedAtom* a, const ReducedAtom& b, const Atom& b_atom,
                     const Database& db, IndexCache* cache,
                     util::Budget* budget, util::Arena* arena) {
  std::vector<std::string> shared;
  std::vector<int> a_cols, b_cols;
  for (std::size_t j = 0; j < b.attributes.size(); ++j) {
    auto it = std::find(a->attributes.begin(), a->attributes.end(),
                        b.attributes[j]);
    if (it == a->attributes.end()) continue;
    shared.push_back(b.attributes[j]);
    b_cols.push_back(static_cast<int>(j));
    a_cols.push_back(static_cast<int>(it - a->attributes.begin()));
  }
  const std::size_t before = a->rows.size();
  if (shared.empty()) {
    // No shared attributes: keep all of a iff b is nonempty.
    if (b.rows.empty()) a->rows.Clear();
  } else {
    Tuple key(shared.size());
    auto build = [&]() {
      FlatRelation keys(static_cast<int>(shared.size()));
      keys.Reserve(b.rows.size());
      for (std::size_t r = 0; r < b.rows.size(); ++r) {
        const Value* row = b.rows.Row(r);
        for (std::size_t i = 0; i < b_cols.size(); ++i) key[i] = row[b_cols[i]];
        keys.PushRow(key.data());
      }
      keys.SortLexAndDedup(FlatRelation::SortPolicy::kAuto, arena);
      IndexCache::Entry entry;
      entry.no_rows = keys.empty();
      entry.trie = TrieIndex(keys, arena);
      return entry;
    };
    IndexCache::EntryPtr keys =
        cache != nullptr && !b.shrunk
            ? cache->GetOrBuild(b_atom.relation,
                                db.RelationVersion(b_atom.relation),
                                AtomProjectionSignature(b_atom, shared), build)
            : std::make_shared<const IndexCache::Entry>(build());
    FlatRelation kept(a->rows.arity());
    kept.Reserve(before);
    for (std::size_t r = 0; r < before; ++r) {
      if (budget != nullptr && budget->Poll()) break;
      const Value* row = a->rows.Row(r);
      for (std::size_t i = 0; i < a_cols.size(); ++i) key[i] = row[a_cols[i]];
      if (keys->trie.ContainsRow(key.data())) kept.PushRow(row);
    }
    a->rows = std::move(kept);
  }
  if (a->rows.size() < before) a->shrunk = true;
}

bool Stopped(const util::Budget* budget) {
  return budget != nullptr && budget->Stopped();
}

}  // namespace

std::optional<FullReduction> ReduceAcyclicQuery(const JoinQuery& query,
                                                const Database& db,
                                                Sweeps sweeps,
                                                util::Budget* budget,
                                                IndexCache* cache,
                                                util::Arena* arena) {
  FullReduction red;
  if (!BuildJoinTree(query, &red.parent, &red.order)) return std::nullopt;
  const int m = static_cast<int>(query.atoms.size());
  std::map<std::string, int> position;
  for (auto it = red.order.rbegin(); it != red.order.rend(); ++it) {
    for (const auto& a : query.atoms[*it].attributes) {
      if (position.emplace(a, static_cast<int>(red.variables.size())).second) {
        red.variables.push_back(a);
      }
    }
  }
  // One span per phase of Theorem 4.1's evaluation, shared by every caller
  // of the reducer.
  static const std::uint32_t kMaterializeSpan =
      util::Trace::InternName("yannakakis.materialize");
  static const std::uint32_t kUpSpan =
      util::Trace::InternName("yannakakis.semijoin_up");
  static const std::uint32_t kDownSpan =
      util::Trace::InternName("yannakakis.semijoin_down");
  red.atoms.resize(m);
  {
    util::ScopedSpan span(kMaterializeSpan);
    for (int e = 0; e < m; ++e) {
      if (budget != nullptr && budget->Poll()) return red;
      const Atom& atom = query.atoms[e];
      ReducedAtom& ra = red.atoms[e];
      ra.attributes = AtomAttributes(atom);
      std::sort(ra.attributes.begin(), ra.attributes.end(),
                [&](const std::string& x, const std::string& y) {
                  return position.at(x) < position.at(y);
                });
      // The sorted projection is exactly what the atom's cached trie
      // indexes (GenericJoin keys the same signature), so a warm cache
      // serves it back with no scan or sort. A trie cannot represent a
      // nonempty arity-0 projection; those atoms stay on the direct path.
      if (cache != nullptr && !ra.attributes.empty()) {
        IndexCache::EntryPtr entry = cache->GetOrBuild(
            atom.relation, db.RelationVersion(atom.relation),
            AtomProjectionSignature(atom, ra.attributes), [&]() {
              IndexCache::Entry fresh;
              FlatRelation proj =
                  MaterializeSortedProjection(atom, db, ra.attributes, arena);
              fresh.no_rows = proj.empty();
              fresh.trie = TrieIndex(proj, arena);
              return fresh;
            });
        ra.rows = entry->trie.ToFlat();
      } else {
        ra.rows = MaterializeSortedProjection(atom, db, ra.attributes, arena);
      }
    }
  }
  {
    util::ScopedSpan span(kUpSpan);
    for (int e : red.order) {
      const int p = red.parent[e];
      if (p < 0) continue;
      SemijoinInPlace(&red.atoms[p], red.atoms[e], query.atoms[e], db, cache,
                      budget, arena);
      if (Stopped(budget)) return red;
    }
  }
  if (sweeps == Sweeps::kUp) return red;
  {
    util::ScopedSpan span(kDownSpan);
    for (auto it = red.order.rbegin(); it != red.order.rend(); ++it) {
      const int p = red.parent[*it];
      if (p < 0) continue;
      SemijoinInPlace(&red.atoms[*it], red.atoms[p], query.atoms[p], db,
                      cache, budget, arena);
      if (Stopped(budget)) return red;
    }
  }
  return red;
}

std::optional<FlatJoinResult> EvaluateYannakakisFlat(
    const JoinQuery& query, const Database& db, const ExecutionContext& ctx,
    JoinStats* stats) {
  std::shared_ptr<util::Budget> budget = ctx.ResolveBudget();
  std::optional<FullReduction> red = ReduceAcyclicQuery(
      query, db, Sweeps::kUpAndDown, budget.get(), ctx.index_cache, ctx.arena);
  if (!red.has_value()) return std::nullopt;
  const std::vector<std::string> want = query.AttributeOrder();
  if (budget->Stopped()) {
    FlatJoinResult out;
    out.attributes = want;
    out.rows = FlatRelation(static_cast<int>(want.size()));
    out.truncated = true;
    return out;
  }
  static const std::uint32_t kJoinSpan =
      util::Trace::InternName("yannakakis.join");
  util::ScopedSpan span(kJoinSpan);
  std::vector<std::optional<AtomRows>> direct(red->atoms.size());
  for (std::size_t e = 0; e < red->atoms.size(); ++e) {
    ReducedAtom& ra = red->atoms[e];
    if (stats != nullptr) {
      stats->intermediate_tuples += ra.rows.size();
      stats->max_intermediate =
          std::max<std::uint64_t>(stats->max_intermediate, ra.rows.size());
    }
    if (ra.shrunk) {
      direct[e] = AtomRows{std::move(ra.attributes), std::move(ra.rows)};
    }
  }
  ExecutionContext sub = ctx;
  sub.budget = budget;
  GenericJoin join(query, db, red->variables, sub, std::move(direct));
  FlatJoinResult out = join.EvaluateFlat();
  if (stats != nullptr) stats->probes += join.stats().probes;
  if (out.attributes != want) {
    std::vector<int> src;
    src.reserve(want.size());
    for (const auto& a : want) {
      src.push_back(static_cast<int>(
          std::find(out.attributes.begin(), out.attributes.end(), a) -
          out.attributes.begin()));
    }
    out.rows.PermuteColumns(src);
    out.attributes = want;
  }
  return out;
}

std::optional<JoinResult> EvaluateYannakakis(const JoinQuery& query,
                                             const Database& db,
                                             const ExecutionContext& ctx,
                                             JoinStats* stats) {
  std::optional<FlatJoinResult> flat =
      EvaluateYannakakisFlat(query, db, ctx, stats);
  if (!flat.has_value()) return std::nullopt;
  return flat->ToRows();
}

std::optional<JoinResult> EvaluateYannakakis(const JoinQuery& query,
                                             const Database& db,
                                             JoinStats* stats,
                                             util::Budget* budget,
                                             IndexCache* cache,
                                             util::Arena* arena) {
  ExecutionContext ctx;
  ctx.index_cache = cache;
  ctx.arena = arena;
  // Non-owning: the caller keeps `budget` alive for the call.
  if (budget != nullptr) {
    ctx.budget =
        std::shared_ptr<util::Budget>(std::shared_ptr<util::Budget>(), budget);
  }
  return EvaluateYannakakis(query, db, ctx, stats);
}

std::optional<bool> BooleanYannakakis(const JoinQuery& query,
                                      const Database& db,
                                      util::Budget* budget,
                                      IndexCache* cache,
                                      util::Arena* arena) {
  std::optional<FullReduction> red =
      ReduceAcyclicQuery(query, db, Sweeps::kUp, budget, cache, arena);
  if (!red.has_value()) return std::nullopt;
  if (Stopped(budget)) return false;  // Unknown.
  return red->order.empty() || !red->atoms[red->order.back()].rows.empty();
}

}  // namespace qc::db
