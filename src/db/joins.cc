#include "db/joins.h"

#include <algorithm>
#include <map>

namespace qc::db {

AtomColumns AnalyzeAtomColumns(const Atom& atom) {
  AtomColumns cols;
  for (std::size_t i = 0; i < atom.attributes.size(); ++i) {
    auto it = std::find(cols.attributes.begin(), cols.attributes.end(),
                        atom.attributes[i]);
    if (it == cols.attributes.end()) {
      cols.attributes.push_back(atom.attributes[i]);
      cols.keep_cols.push_back(static_cast<int>(i));
    } else {
      cols.eq_cols.push_back(
          {cols.keep_cols[it - cols.attributes.begin()], static_cast<int>(i)});
    }
  }
  return cols;
}

bool RowPassesEquality(const Value* row, const AtomColumns& cols) {
  for (auto [first, repeat] : cols.eq_cols) {
    if (row[first] != row[repeat]) return false;
  }
  return true;
}

JoinResult MaterializeAtom(const Atom& atom, const Database& db) {
  AtomColumns cols = AnalyzeAtomColumns(atom);
  JoinResult out;
  out.attributes = cols.attributes;
  const FlatRelation& rel = db.Flat(atom.relation);
  out.tuples.reserve(rel.size());
  for (std::size_t r = 0; r < rel.size(); ++r) {
    const Value* row = rel.Row(r);
    if (!RowPassesEquality(row, cols)) continue;
    Tuple projected;
    projected.reserve(cols.keep_cols.size());
    for (int c : cols.keep_cols) projected.push_back(row[c]);
    out.tuples.push_back(std::move(projected));
  }
  return out;
}

std::vector<std::string> AtomAttributes(const Atom& atom) {
  return AnalyzeAtomColumns(atom).attributes;
}

std::string AtomProjectionSignature(const Atom& atom,
                                    const std::vector<std::string>& attrs) {
  AtomColumns cols = AnalyzeAtomColumns(atom);
  std::string sig = "e:";
  for (auto [first, repeat] : cols.eq_cols) {
    sig += std::to_string(first) + "=" + std::to_string(repeat) + ";";
  }
  sig += "c:";
  for (const auto& a : attrs) {
    auto it = std::find(cols.attributes.begin(), cols.attributes.end(), a);
    // Unknown attribute: encode an impossible column so the signature can
    // never alias a valid one (callers pass attributes of the atom).
    int col = it == cols.attributes.end()
                  ? -1
                  : cols.keep_cols[it - cols.attributes.begin()];
    sig += std::to_string(col) + ";";
  }
  return sig;
}

FlatRelation MaterializeSortedProjection(const Atom& atom, const Database& db,
                                         const std::vector<std::string>& attrs,
                                         util::Arena* scratch) {
  AtomColumns cols = AnalyzeAtomColumns(atom);
  std::vector<int> src_cols;
  src_cols.reserve(attrs.size());
  for (const auto& a : attrs) {
    auto it = std::find(cols.attributes.begin(), cols.attributes.end(), a);
    if (it != cols.attributes.end()) {
      src_cols.push_back(cols.keep_cols[it - cols.attributes.begin()]);
    }
  }
  const FlatRelation& rel = db.Flat(atom.relation);
  FlatRelation out(static_cast<int>(src_cols.size()));
  out.Reserve(rel.size());
  Tuple buffer(src_cols.size());
  for (std::size_t r = 0; r < rel.size(); ++r) {
    const Value* row = rel.Row(r);
    if (!RowPassesEquality(row, cols)) continue;
    for (std::size_t c = 0; c < src_cols.size(); ++c) {
      buffer[c] = row[src_cols[c]];
    }
    out.PushRow(buffer.data());
  }
  out.SortLexAndDedup(FlatRelation::SortPolicy::kAuto, scratch);
  return out;
}

JoinResult HashJoin(const JoinResult& left, const JoinResult& right,
                    JoinStats* stats, util::Budget* budget) {
  // Shared attributes and column maps.
  std::vector<int> left_shared, right_shared, right_extra;
  JoinResult out;
  out.attributes = left.attributes;
  out.truncated = left.truncated || right.truncated;
  for (std::size_t j = 0; j < right.attributes.size(); ++j) {
    auto it = std::find(left.attributes.begin(), left.attributes.end(),
                        right.attributes[j]);
    if (it != left.attributes.end()) {
      left_shared.push_back(static_cast<int>(it - left.attributes.begin()));
      right_shared.push_back(static_cast<int>(j));
    } else {
      right_extra.push_back(static_cast<int>(j));
      out.attributes.push_back(right.attributes[j]);
    }
  }
  // Build on the smaller side conceptually; here: build on right.
  std::map<Tuple, std::vector<const Tuple*>> index;
  for (const auto& t : right.tuples) {
    Tuple key;
    key.reserve(right_shared.size());
    for (int c : right_shared) key.push_back(t[c]);
    index[std::move(key)].push_back(&t);
  }
  for (const auto& t : left.tuples) {
    if (budget != nullptr && budget->Poll()) {
      out.truncated = true;
      break;
    }
    Tuple key;
    key.reserve(left_shared.size());
    for (int c : left_shared) key.push_back(t[c]);
    if (stats != nullptr) ++stats->probes;
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (const Tuple* rt : it->second) {
      Tuple combined = t;
      for (int c : right_extra) combined.push_back((*rt)[c]);
      out.tuples.push_back(std::move(combined));
    }
  }
  if (stats != nullptr) {
    stats->intermediate_tuples += out.tuples.size();
    stats->max_intermediate =
        std::max<std::uint64_t>(stats->max_intermediate, out.tuples.size());
  }
  return out;
}

JoinResult EvaluateBinaryJoinPlan(const JoinQuery& query, const Database& db,
                                  const std::vector<int>& atom_order,
                                  JoinStats* stats) {
  JoinResult acc;
  bool first = true;
  for (int idx : atom_order) {
    JoinResult next = MaterializeAtom(query.atoms[idx], db);
    if (first) {
      acc = std::move(next);
      first = false;
      if (stats != nullptr) {
        stats->intermediate_tuples += acc.tuples.size();
        stats->max_intermediate = std::max<std::uint64_t>(
            stats->max_intermediate, acc.tuples.size());
      }
    } else {
      acc = HashJoin(acc, next, stats);
    }
  }
  return acc;
}

std::vector<int> GreedyJoinOrder(const JoinQuery& query, const Database& db) {
  const int m = static_cast<int>(query.atoms.size());
  std::vector<bool> used(m, false);
  std::vector<int> order;
  std::vector<std::string> bound;  // Attributes bound so far.
  // Start with the smallest relation.
  int first = -1;
  for (int i = 0; i < m; ++i) {
    if (first < 0 || db.NumTuples(query.atoms[i].relation) <
                         db.NumTuples(query.atoms[first].relation)) {
      first = i;
    }
  }
  auto bind = [&](int i) {
    used[i] = true;
    order.push_back(i);
    for (const auto& a : query.atoms[i].attributes) {
      if (std::find(bound.begin(), bound.end(), a) == bound.end()) {
        bound.push_back(a);
      }
    }
  };
  if (first >= 0) bind(first);
  while (static_cast<int>(order.size()) < m) {
    int best = -1;
    bool best_connected = false;
    for (int i = 0; i < m; ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const auto& a : query.atoms[i].attributes) {
        if (std::find(bound.begin(), bound.end(), a) != bound.end()) {
          connected = true;
          break;
        }
      }
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected &&
           db.NumTuples(query.atoms[i].relation) <
               db.NumTuples(query.atoms[best].relation))) {
        best = i;
        best_connected = connected;
      }
    }
    bind(best);
  }
  return order;
}

JoinResult EvaluateGreedyBinaryJoin(const JoinQuery& query, const Database& db,
                                    JoinStats* stats) {
  return EvaluateBinaryJoinPlan(query, db, GreedyJoinOrder(query, db), stats);
}

}  // namespace qc::db
