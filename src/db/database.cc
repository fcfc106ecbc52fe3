#include "db/database.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>

namespace qc::db {

JoinQuery& JoinQuery::Add(std::string relation,
                          std::vector<std::string> attributes) {
  atoms.push_back(Atom{std::move(relation), std::move(attributes)});
  return *this;
}

std::vector<std::string> JoinQuery::AttributeOrder() const {
  std::vector<std::string> order;
  for (const auto& atom : atoms) {
    for (const auto& a : atom.attributes) {
      if (std::find(order.begin(), order.end(), a) == order.end()) {
        order.push_back(a);
      }
    }
  }
  return order;
}

std::map<std::string, int> JoinQuery::AttributeIndex() const {
  std::map<std::string, int> index;
  std::vector<std::string> order = AttributeOrder();
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    index[order[i]] = i;
  }
  return index;
}

graph::Hypergraph JoinQuery::Hypergraph() const {
  std::map<std::string, int> index = AttributeIndex();
  graph::Hypergraph h(static_cast<int>(index.size()));
  for (const auto& atom : atoms) {
    std::vector<int> edge;
    for (const auto& a : atom.attributes) edge.push_back(index[a]);
    h.AddEdge(std::move(edge));
  }
  return h;
}

graph::Graph JoinQuery::PrimalGraph() const { return Hypergraph().PrimalGraph(); }

namespace {

/// Process-wide version stamps: unique across relations and Database
/// instances, never 0. Uniqueness is what lets the shared IndexCache key on
/// (name, version) without ever confusing two databases that reuse a name.
std::uint64_t NextVersionStamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

void Database::Touch(Rel& rel) { rel.version = NextVersionStamp(); }

MutationResult Database::SetRelation(const std::string& name, int arity,
                                     std::vector<Tuple> tuples) {
  if (arity < 0) {
    return MutationResult::Fail("relation " + name + ": negative arity " +
                                std::to_string(arity));
  }
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (static_cast<int>(tuples[i].size()) != arity) {
      return MutationResult::Fail(
          "relation " + name + ": tuple " + std::to_string(i) + " has arity " +
          std::to_string(tuples[i].size()) + ", expected " +
          std::to_string(arity));
    }
  }
  return SetRelation(name, FlatRelation::FromRows(arity, tuples));
}

MutationResult Database::SetRelation(const std::string& name,
                                     FlatRelation relation) {
  Rel& rel = relations_[name];
  // A replacement never mutates the old payload in place, so clones that
  // still hold the previous shared_ptr keep reading their snapshot.
  rel.flat = std::make_shared<FlatRelation>(std::move(relation));
  rel.maybe_shared = false;
  Touch(rel);
  return MutationResult::Ok();
}

MutationResult Database::AddTuple(const std::string& name, Tuple tuple) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return MutationResult::Fail("no such relation " + name);
  }
  Rel& rel = it->second;
  if (static_cast<int>(tuple.size()) != rel.flat->arity()) {
    return MutationResult::Fail(
        "relation " + name + ": tuple has arity " +
        std::to_string(tuple.size()) + ", expected " +
        std::to_string(rel.flat->arity()));
  }
  if (rel.maybe_shared) {
    // Copy-on-write: a Clone() snapshot still reads the old payload. One
    // private copy here un-shares the relation, so a burst of appends
    // between snapshots pays the copy once and then appends in place.
    rel.flat = std::make_shared<FlatRelation>(*rel.flat);
    rel.maybe_shared = false;
  }
  rel.flat->PushRow(tuple);
  Touch(rel);
  return MutationResult::Ok();
}

Database Database::Clone() const {
  Database out;
  for (const auto& [name, rel] : relations_) {
    Rel& copy = out.relations_[name];
    copy.flat = rel.flat;
    copy.version = rel.version;
    // Both sides now share one payload; whichever mutates first copies.
    copy.maybe_shared = true;
    rel.maybe_shared = true;
  }
  return out;
}

bool Database::HasRelation(const std::string& name) const {
  return relations_.count(name) > 0;
}

int Database::Arity(const std::string& name) const {
  return relations_.at(name).flat->arity();
}

const FlatRelation& Database::Flat(const std::string& name) const {
  return *relations_.at(name).flat;
}

std::size_t Database::NumTuples(const std::string& name) const {
  return relations_.at(name).flat->size();
}

std::uint64_t Database::RelationVersion(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? 0 : it->second.version;
}

std::vector<Tuple> Database::Tuples(const std::string& name) const {
  return Flat(name).ToRows();
}

std::size_t Database::MaxRelationSize() const {
  std::size_t n = 0;
  for (const auto& [name, rel] : relations_) {
    n = std::max(n, rel.flat->size());
  }
  return n;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  for (const auto& [name, rel] : relations_) names.push_back(name);
  return names;
}

void JoinResult::Normalize() {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
}

JoinResult FlatJoinResult::ToRows() const {
  return JoinResult{attributes, rows.ToRows(), truncated};
}

bool TupleSatisfiesQuery(const JoinQuery& query, const Database& db,
                         const std::vector<std::string>& attrs,
                         const Tuple& tuple) {
  for (const auto& atom : query.atoms) {
    Tuple projection;
    projection.reserve(atom.attributes.size());
    for (const auto& a : atom.attributes) {
      auto it = std::find(attrs.begin(), attrs.end(), a);
      if (it == attrs.end()) std::abort();
      projection.push_back(tuple[it - attrs.begin()]);
    }
    const FlatRelation& rel = db.Flat(atom.relation);
    if (static_cast<std::size_t>(rel.arity()) != projection.size()) {
      return false;
    }
    bool found = false;
    for (std::size_t r = 0; r < rel.size() && !found; ++r) {
      found = std::equal(projection.begin(), projection.end(), rel.Row(r));
    }
    if (!found) return false;
  }
  return true;
}

JoinResult EvaluateNestedLoop(const JoinQuery& query, const Database& db) {
  JoinResult result;
  result.attributes = query.AttributeOrder();
  const int n = static_cast<int>(result.attributes.size());
  // Candidate values per attribute: intersection over the atoms containing
  // it of the values in the matching column.
  std::vector<std::vector<Value>> candidates(n);
  std::map<std::string, int> index = query.AttributeIndex();
  std::vector<bool> seen(n, false);
  for (const auto& atom : query.atoms) {
    for (std::size_t col = 0; col < atom.attributes.size(); ++col) {
      int ai = index[atom.attributes[col]];
      std::set<Value> column;
      const FlatRelation& rel = db.Flat(atom.relation);
      for (std::size_t r = 0; r < rel.size(); ++r) {
        column.insert(rel.At(r, static_cast<int>(col)));
      }
      if (!seen[ai]) {
        candidates[ai].assign(column.begin(), column.end());
        seen[ai] = true;
      } else {
        std::vector<Value> kept;
        for (Value v : candidates[ai]) {
          if (column.count(v)) kept.push_back(v);
        }
        candidates[ai] = std::move(kept);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (candidates[i].empty()) return result;
  }
  // Odometer over the candidate grid.
  std::vector<std::size_t> idx(n, 0);
  Tuple tuple(n);
  while (true) {
    for (int i = 0; i < n; ++i) tuple[i] = candidates[i][idx[i]];
    if (TupleSatisfiesQuery(query, db, result.attributes, tuple)) {
      result.tuples.push_back(tuple);
    }
    int i = 0;
    while (i < n && ++idx[i] == candidates[i].size()) {
      idx[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return result;
}

}  // namespace qc::db
