#include "db/ivm.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/context.h"
#include "db/generic_join.h"
#include "db/joins.h"
#include "db/parser.h"
#include "db/yannakakis.h"

namespace qc::db {

namespace {

/// Skew threshold at which intersection counting switches from a linear
/// merge to galloping probes of the larger side — same policy (and ratio)
/// as the kernel layer's kGallopSkewRatio, restated here because the IVM
/// adjacency lists are plain sorted vectors, not kernel spans.
constexpr std::size_t kGallopSkewRatio = 32;

std::uint64_t CountSortedIntersect(const std::vector<Value>& a,
                                   const std::vector<Value>& b) {
  const std::vector<Value>& small = a.size() <= b.size() ? a : b;
  const std::vector<Value>& large = a.size() <= b.size() ? b : a;
  if (small.empty()) return 0;
  std::uint64_t count = 0;
  if (large.size() / small.size() >= kGallopSkewRatio) {
    auto lo = large.begin();
    for (Value x : small) {
      lo = std::lower_bound(lo, large.end(), x);
      if (lo == large.end()) break;
      if (*lo == x) {
        ++count;
        ++lo;
      }
    }
    return count;
  }
  auto ia = small.begin();
  auto ib = large.begin();
  while (ia != small.end() && ib != large.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

/// Inserts into a sorted vector keeping it sorted; false if already there.
bool SortedInsert(std::vector<Value>& vec, Value x) {
  auto it = std::lower_bound(vec.begin(), vec.end(), x);
  if (it != vec.end() && *it == x) return false;
  vec.insert(it, x);
  return true;
}

/// The one-row [count] relation a kTriangleCount read returns.
std::shared_ptr<const FlatRelation> CountRelation(std::uint64_t count) {
  auto rel = std::make_shared<FlatRelation>(1);
  const Value value = static_cast<Value>(count);
  rel->PushRow(&value);
  return rel;
}

std::string TrimCopy(const std::string& text) {
  std::size_t b = text.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = text.find_last_not_of(" \t\r\n");
  return text.substr(b, e - b + 1);
}

}  // namespace

namespace ivm_internal {

/// Per-view maintained state. The join-side members implement the delta
/// rule; the triangle-side members the per-edge counting. Exactly one side
/// is populated, per def.kind.
struct ViewState {
  ViewDefinition def;
  std::uint64_t epoch = 0;
  /// Relations the view reads — the commit filter.
  std::set<std::string> relations;

  // ---- kJoin ----

  /// Canonical schema (query AttributeOrder) and the published result:
  /// lex-sorted, duplicate-free rows over it. Copy-on-write: Read() hands
  /// out this pointer as const, and a commit extends the relation in place
  /// only while no reader holds it, else it publishes an extended copy.
  std::vector<std::string> attributes;
  std::shared_ptr<FlatRelation> rows;

  /// Per atom: its repeated-attribute filter, the attribute order of the
  /// delta join run when the atom is dirty (its own attributes first, then
  /// the join tree breadth-first), and that order's column per canonical
  /// attribute.
  std::vector<AtomColumns> columns;
  std::vector<std::vector<std::string>> delta_orders;
  std::vector<std::vector<int>> to_canonical;

  // ---- kTriangleCount ----

  std::uint64_t count = 0;
  /// Sorted out-/in-neighbor lists (set semantics: duplicate edge rows are
  /// ignored on insert).
  std::unordered_map<Value, std::vector<Value>> out_adj;
  std::unordered_map<Value, std::vector<Value>> in_adj;
};

}  // namespace ivm_internal

namespace {

using View = ivm_internal::ViewState;

/// Fills the per-atom delta plans. The breadth-first walk from the dirty
/// atom binds the delta's attributes first, so every level of the delta
/// join is a lookup keyed by rows already bound; attribute-disjoint
/// components (cross products) follow, each walked from its first atom.
/// Caller guarantees the query is acyclic (Validate ran).
void BuildDeltaPlans(View& v) {
  const JoinQuery& query = v.def.query;
  const std::size_t m = query.atoms.size();
  v.attributes = query.AttributeOrder();
  std::vector<int> parent, order;
  BuildJoinTree(query, &parent, &order);
  std::vector<std::vector<int>> adj(m);
  for (std::size_t a = 0; a < m; ++a) {
    v.columns.push_back(AnalyzeAtomColumns(query.atoms[a]));
    if (parent[a] >= 0) {
      adj[a].push_back(parent[a]);
      adj[parent[a]].push_back(static_cast<int>(a));
    }
  }
  for (std::size_t d = 0; d < m; ++d) {
    std::vector<std::string> attrs;
    std::vector<char> used(m, 0);
    auto visit = [&](int a) {
      used[a] = 1;
      for (const std::string& attr : v.columns[a].attributes) {
        if (std::find(attrs.begin(), attrs.end(), attr) == attrs.end()) {
          attrs.push_back(attr);
        }
      }
    };
    std::vector<int> starts{static_cast<int>(d)};
    for (std::size_t a = 0; a < m; ++a) starts.push_back(static_cast<int>(a));
    for (int start : starts) {
      if (used[start]) continue;
      visit(start);
      std::deque<int> queue{start};
      while (!queue.empty()) {
        int cur = queue.front();
        queue.pop_front();
        for (int nb : adj[cur]) {
          if (used[nb]) continue;
          visit(nb);
          queue.push_back(nb);
        }
      }
    }
    std::vector<int> src;
    for (const std::string& attr : v.attributes) {
      src.push_back(static_cast<int>(
          std::find(attrs.begin(), attrs.end(), attr) - attrs.begin()));
    }
    v.delta_orders.push_back(std::move(attrs));
    v.to_canonical.push_back(std::move(src));
  }
}

/// The view's rows for writing: in place when the registry holds the only
/// reference, else a private copy that replaces the published one. Readers
/// copy the pointer only under the registry lock, which the caller holds,
/// so no new reference can appear. Taking one more reference is an
/// acquire-release step on the shared count, which orders the write after
/// the reads of every reader that has let go.
FlatRelation& MutableRows(View& v) {
  if (v.rows.use_count() == 1) {
    std::shared_ptr<FlatRelation> sync = v.rows;
  } else {
    v.rows = std::make_shared<FlatRelation>(*v.rows);
  }
  return *v.rows;
}

/// The normalized answer of a kJoin view (Yannakakis, then lex-sorted).
std::optional<FlatRelation> EvaluateSorted(const JoinQuery& query,
                                           const Database& db) {
  std::optional<FlatJoinResult> result =
      EvaluateYannakakisFlat(query, db, ExecutionContext());
  if (!result.has_value()) return std::nullopt;
  result->rows.SortLexAndDedup();
  return std::move(result->rows);
}

/// Directed edge u->w becomes present (caller already dropped duplicates
/// and updated the adjacency lists to the post-insert state E'). Counts
/// the triangles the new edge completes, in each of its three possible
/// roles, with inclusion–exclusion for triangles that use it twice:
///
///   as E(a,b): c in out'(w) ∩ out'(u)
///   as E(b,c): a in in'(u) ∩ in'(w)
///   as E(a,c): b in out'(u) ∩ in'(w)
///   minus [ (w,w) in E' ] + [ (u,u) in E' ]
///
/// The subtractions remove the double count of triangles (u,w,w) and
/// (u,u,w), which use the new edge in two roles at once; when u == w the
/// self-triangle (u,u,u) is counted three times and both corrections fire.
std::uint64_t TriangleDeltaForEdge(const View& v, Value u, Value w) {
  static const std::vector<Value> kEmpty;
  auto list = [&](const std::unordered_map<Value, std::vector<Value>>& adj,
                  Value x) -> const std::vector<Value>& {
    auto it = adj.find(x);
    return it == adj.end() ? kEmpty : it->second;
  };
  auto has_edge = [&](Value a, Value b) {
    const std::vector<Value>& outs = list(v.out_adj, a);
    return std::binary_search(outs.begin(), outs.end(), b);
  };
  std::uint64_t delta = CountSortedIntersect(list(v.out_adj, w),
                                             list(v.out_adj, u)) +
                        CountSortedIntersect(list(v.in_adj, u),
                                             list(v.in_adj, w)) +
                        CountSortedIntersect(list(v.out_adj, u),
                                             list(v.in_adj, w));
  if (has_edge(w, w)) --delta;
  if (has_edge(u, u)) --delta;
  return delta;
}

/// Applies one edge row; false (and no state change) on a duplicate.
bool ApplyEdgeInsert(View& v, Value u, Value w) {
  if (!SortedInsert(v.out_adj[u], w)) return false;
  SortedInsert(v.in_adj[w], u);
  v.count += TriangleDeltaForEdge(v, u, w);
  return true;
}

}  // namespace

ViewRegistry::ViewRegistry() = default;
ViewRegistry::~ViewRegistry() = default;

namespace {

MutationResult ValidateDefinition(const ViewDefinition& def,
                                  const Database& db) {
  if (def.name.empty()) {
    return MutationResult::Fail("view name must be non-empty");
  }
  switch (def.kind) {
    case ViewDefinition::Kind::kJoin: {
      if (def.query.atoms.empty()) {
        return MutationResult::Fail("view '" + def.name +
                                    "': query has no atoms");
      }
      for (const Atom& atom : def.query.atoms) {
        if (!db.HasRelation(atom.relation)) {
          return MutationResult::Fail("view '" + def.name +
                                      "': unknown relation '" +
                                      atom.relation + "'");
        }
        if (static_cast<int>(atom.attributes.size()) !=
            db.Arity(atom.relation)) {
          return MutationResult::Fail(
              "view '" + def.name + "': atom over '" + atom.relation +
              "' has " + std::to_string(atom.attributes.size()) +
              " attributes, relation arity is " +
              std::to_string(db.Arity(atom.relation)));
        }
      }
      if (!IsAcyclicQuery(def.query)) {
        return MutationResult::Fail("view '" + def.name +
                                    "': query is not acyclic (only "
                                    "alpha-acyclic joins are maintainable)");
      }
      return MutationResult::Ok();
    }
    case ViewDefinition::Kind::kTriangleCount: {
      if (!db.HasRelation(def.relation)) {
        return MutationResult::Fail("view '" + def.name +
                                    "': unknown relation '" + def.relation +
                                    "'");
      }
      if (db.Arity(def.relation) != 2) {
        return MutationResult::Fail(
            "view '" + def.name + "': triangle counting needs a binary "
            "relation, '" + def.relation + "' has arity " +
            std::to_string(db.Arity(def.relation)));
      }
      return MutationResult::Ok();
    }
  }
  return MutationResult::Fail("view '" + def.name + "': unknown kind");
}

}  // namespace

MutationResult ViewRegistry::Validate(const ViewDefinition& def,
                                      const Database& db) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.count(def.name) != 0) {
    return MutationResult::Fail("view '" + def.name +
                                "' is already registered");
  }
  return ValidateDefinition(def, db);
}

MutationResult ViewRegistry::Register(const ViewDefinition& def,
                                      const Database& db,
                                      std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.count(def.name) != 0) {
    return MutationResult::Fail("view '" + def.name +
                                "' is already registered");
  }
  MutationResult valid = ValidateDefinition(def, db);
  if (!valid) return valid;

  auto view = std::make_unique<ivm_internal::ViewState>();
  view->def = def;
  view->epoch = epoch;
  if (def.kind == ViewDefinition::Kind::kJoin) {
    for (const Atom& atom : def.query.atoms) {
      view->relations.insert(atom.relation);
    }
    BuildDeltaPlans(*view);
  } else {
    view->relations.insert(def.relation);
  }
  MutationResult computed = RecomputeLocked(*view, db);
  if (!computed) return computed;
  views_[def.name] = std::move(view);
  stats_.views = views_.size();
  return MutationResult::Ok();
}

bool ViewRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  bool erased = views_.erase(name) != 0;
  stats_.views = views_.size();
  return erased;
}

ViewRead ViewRegistry::Read(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  ViewRead out;
  auto it = views_.find(name);
  if (it == views_.end()) {
    out.error = "no such view '" + name + "'";
    return out;
  }
  const View& v = *it->second;
  out.ok = true;
  out.kind = v.def.kind;
  out.epoch = v.epoch;
  if (v.def.kind == ViewDefinition::Kind::kJoin) {
    out.attributes = v.attributes;
    out.rows = v.rows;
  } else {
    out.attributes = {"count"};
    out.rows = CountRelation(v.count);
  }
  return out;
}

bool ViewRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.count(name) != 0;
}

std::vector<std::string> ViewRegistry::ViewNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

bool ViewRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.empty();
}

std::size_t ViewRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

IvmStats ViewRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<WalRecord> ViewRegistry::DefinitionRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalRecord> records;
  records.reserve(views_.size());
  for (const auto& [name, view] : views_) {
    records.push_back(ViewDefinitionRecord(view->def));
  }
  return records;
}

void ViewRegistry::OnCommit(const Database& db, std::uint64_t epoch,
                            const std::vector<RelationDelta>& deltas) {
  std::lock_guard<std::mutex> lock(mu_);
  if (views_.empty()) return;
  bool touched_any = false;
  for (auto& [name, view] : views_) {
    view->epoch = epoch;
    bool touched = false;
    for (const RelationDelta& delta : deltas) {
      if (view->relations.count(delta.relation) != 0) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    touched_any = true;
    MaintainLocked(*view, db, deltas);
  }
  if (touched_any) ++stats_.updates;
}

void ViewRegistry::MaintainLocked(ivm_internal::ViewState& view,
                                  const Database& db,
                                  const std::vector<RelationDelta>& deltas) {
  // Any replace-style delta on a view relation forfeits the delta rule.
  for (const RelationDelta& delta : deltas) {
    if (view.relations.count(delta.relation) != 0 &&
        delta.kind == RelationDelta::Kind::kReplace) {
      RecomputeLocked(view, db);
      return;
    }
  }

  if (view.def.kind == ViewDefinition::Kind::kTriangleCount) {
    for (const RelationDelta& delta : deltas) {
      if (delta.relation != view.def.relation) continue;
      const FlatRelation& flat = db.Flat(delta.relation);
      std::size_t from = std::min(delta.old_size, flat.size());
      if (from >= flat.size()) continue;
      ++stats_.dirty_subtree_sweeps;
      for (std::size_t r = from; r < flat.size(); ++r) {
        if (ApplyEdgeInsert(view, flat.At(r, 0), flat.At(r, 1))) {
          ++stats_.rows_delta_applied;
        }
      }
    }
    return;
  }

  // Delta rule: dQ = union over dirty atoms d of Q[d -> delta_d], all
  // other atoms at their post-commit state. Sound under insert-only set
  // semantics (a new result row uses a new tuple in at least one atom);
  // the union's overcount is dropped before the merge into the stored rows.
  std::map<std::string, const RelationDelta*> by_relation;
  for (const RelationDelta& delta : deltas) by_relation[delta.relation] = &delta;
  const JoinQuery& query = view.def.query;
  FlatRelation candidates(static_cast<int>(view.attributes.size()));
  for (std::size_t a = 0; a < query.atoms.size(); ++a) {
    auto it = by_relation.find(query.atoms[a].relation);
    if (it == by_relation.end()) continue;
    const FlatRelation& flat = db.Flat(it->first);
    std::size_t from = std::min(it->second->old_size, flat.size());
    if (from >= flat.size()) continue;
    ++stats_.dirty_subtree_sweeps;
    const AtomColumns& cols = view.columns[a];
    AtomRows delta{cols.attributes,
                   FlatRelation(static_cast<int>(cols.keep_cols.size()))};
    Tuple kept(cols.keep_cols.size());
    for (std::size_t r = from; r < flat.size(); ++r) {
      const Value* row = flat.Row(r);
      if (!RowPassesEquality(row, cols)) continue;
      for (std::size_t k = 0; k < kept.size(); ++k) {
        kept[k] = row[cols.keep_cols[k]];
      }
      delta.rows.PushRow(kept.data());
    }
    if (delta.rows.empty()) continue;
    std::vector<std::optional<AtomRows>> direct(query.atoms.size());
    direct[a] = std::move(delta);
    ExecutionContext ctx;
    ctx.threads = 1;
    ctx.index_cache = &cache_;
    GenericJoin join(query, db, view.delta_orders[a], ctx, std::move(direct));
    FlatJoinResult part = join.EvaluateFlat();
    part.rows.PermuteColumns(view.to_canonical[a]);
    candidates.Append(part.rows);
  }
  candidates.SortLexAndDedup();
  FlatRelation fresh(candidates.arity());
  auto positions = std::views::iota(std::size_t{0}, view.rows->size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const RowView row = candidates.View(c);
    auto it = std::ranges::lower_bound(
        positions, row, std::less<>{},
        [&](std::size_t i) { return view.rows->View(i); });
    if (it == positions.end() || view.rows->View(*it) != row) {
      fresh.PushRow(row.data);
    }
  }
  if (fresh.empty()) return;
  stats_.rows_delta_applied += fresh.size();
  MutableRows(view).MergeSorted(fresh);
}

MutationResult ViewRegistry::RecomputeLocked(ivm_internal::ViewState& view,
                                             const Database& db) {
  ++stats_.full_recomputes;
  if (view.def.kind == ViewDefinition::Kind::kTriangleCount) {
    view.count = 0;
    view.out_adj.clear();
    view.in_adj.clear();
    const FlatRelation& flat = db.Flat(view.def.relation);
    for (std::size_t r = 0; r < flat.size(); ++r) {
      ApplyEdgeInsert(view, flat.At(r, 0), flat.At(r, 1));
    }
    return MutationResult::Ok();
  }
  std::optional<FlatRelation> rows = EvaluateSorted(view.def.query, db);
  if (!rows.has_value()) {
    return MutationResult::Fail("view '" + view.def.name +
                                "': query is not acyclic");
  }
  view.rows = std::make_shared<FlatRelation>(std::move(*rows));
  return MutationResult::Ok();
}

WalRecord ViewDefinitionRecord(const ViewDefinition& def) {
  WalRecord record;
  record.kind = WalRecord::Kind::kViewDef;
  record.relation = def.name;
  record.arity = static_cast<int>(def.kind);
  record.dataset = def.text;
  return record;
}

MutationResult ViewDefinitionFromRecord(const WalRecord& record,
                                        ViewDefinition* out) {
  if (record.kind != WalRecord::Kind::kViewDef) {
    return MutationResult::Fail("not a view definition record");
  }
  ViewDefinition def;
  def.name = record.relation;
  def.text = record.dataset;
  switch (record.arity) {
    case 0: {
      def.kind = ViewDefinition::Kind::kJoin;
      ParseResult<JoinQuery> parsed = ParseJoinQuery(record.dataset);
      if (!parsed) {
        return MutationResult::Fail("view '" + def.name + "': " +
                                    parsed.error.ToString());
      }
      def.query = std::move(*parsed);
      break;
    }
    case 1:
      def.kind = ViewDefinition::Kind::kTriangleCount;
      def.relation = TrimCopy(record.dataset);
      if (def.relation.empty()) {
        return MutationResult::Fail("view '" + def.name +
                                    "': empty relation name");
      }
      break;
    default:
      return MutationResult::Fail("view '" + def.name +
                                  "': unknown view kind " +
                                  std::to_string(record.arity));
  }
  *out = std::move(def);
  return MutationResult::Ok();
}

ViewRead RecomputeView(const ViewDefinition& def, const Database& db,
                       std::uint64_t epoch) {
  ViewRead out;
  out.kind = def.kind;
  out.epoch = epoch;
  if (def.kind == ViewDefinition::Kind::kJoin) {
    std::optional<FlatRelation> rows = EvaluateSorted(def.query, db);
    if (!rows.has_value()) {
      out.error = "view '" + def.name + "': query is not acyclic";
      return out;
    }
    out.ok = true;
    out.attributes = def.query.AttributeOrder();
    out.rows = std::make_shared<const FlatRelation>(std::move(*rows));
    return out;
  }
  // Independent static count (different code path from the incremental
  // maintenance on purpose): every triangle (a,b,c) is counted exactly
  // once, by its (a,b) edge, as |out(a) ∩ out(b)|.
  if (!db.HasRelation(def.relation) || db.Arity(def.relation) != 2) {
    out.error = "view '" + def.name + "': relation '" + def.relation +
                "' missing or not binary";
    return out;
  }
  std::unordered_map<Value, std::vector<Value>> out_adj;
  const FlatRelation& flat = db.Flat(def.relation);
  for (std::size_t r = 0; r < flat.size(); ++r) {
    SortedInsert(out_adj[flat.At(r, 0)], flat.At(r, 1));
  }
  std::uint64_t total = 0;
  for (const auto& [a, outs] : out_adj) {
    for (Value b : outs) {
      auto it = out_adj.find(b);
      if (it == out_adj.end()) continue;
      total += CountSortedIntersect(outs, it->second);
    }
  }
  out.ok = true;
  out.attributes = {"count"};
  out.rows = CountRelation(total);
  return out;
}

}  // namespace qc::db
