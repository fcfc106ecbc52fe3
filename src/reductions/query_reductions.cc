#include "reductions/query_reductions.h"

#include <algorithm>
#include <set>

namespace qc::reductions {

db::Tuple QueryToCspReduction::DecodeTuple(
    const std::vector<int>& assignment) const {
  db::Tuple tuple;
  tuple.reserve(assignment.size());
  for (int v : assignment) tuple.push_back(domain_values[v]);
  return tuple;
}

QueryToCspReduction CspFromJoinQuery(const db::JoinQuery& query,
                                     const db::Database& db) {
  QueryToCspReduction red;
  red.attributes = query.AttributeOrder();
  // Active domain: every value occurring in a referenced relation.
  std::set<db::Value> values;
  for (const auto& atom : query.atoms) {
    const db::FlatRelation& rel = db.Flat(atom.relation);
    values.insert(rel.data().begin(), rel.data().end());
  }
  red.domain_values.assign(values.begin(), values.end());
  std::map<db::Value, int> value_id;
  for (int i = 0; i < static_cast<int>(red.domain_values.size()); ++i) {
    value_id[red.domain_values[i]] = i;
  }
  std::map<std::string, int> attr_id = query.AttributeIndex();

  red.csp.num_vars = static_cast<int>(red.attributes.size());
  red.csp.domain_size = static_cast<int>(red.domain_values.size());
  for (const auto& atom : query.atoms) {
    std::vector<int> scope;
    scope.reserve(atom.attributes.size());
    for (const auto& a : atom.attributes) scope.push_back(attr_id[a]);
    csp::Relation rel(static_cast<int>(atom.attributes.size()));
    const db::FlatRelation& rows = db.Flat(atom.relation);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::vector<int> encoded;
      encoded.reserve(static_cast<std::size_t>(rows.arity()));
      for (int c = 0; c < rows.arity(); ++c) {
        encoded.push_back(value_id[rows.At(r, c)]);
      }
      rel.Add(std::move(encoded));
    }
    red.csp.AddConstraint(std::move(scope), std::move(rel));
  }
  return red;
}

std::vector<int> CspToQueryReduction::DecodeAssignment(
    const db::Tuple& tuple) const {
  std::vector<std::string> order = query.AttributeOrder();
  std::vector<int> assignment(num_vars, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    // Attribute names are "v<j>".
    int var = std::stoi(order[i].substr(1));
    assignment[var] = static_cast<int>(tuple[i]);
  }
  return assignment;
}

CspToQueryReduction JoinQueryFromCsp(const csp::CspInstance& csp) {
  CspToQueryReduction red;
  red.num_vars = csp.num_vars;
  auto attr_name = [](int v) { return "v" + std::to_string(v); };

  std::vector<bool> constrained(csp.num_vars, false);
  for (int ci = 0; ci < static_cast<int>(csp.constraints.size()); ++ci) {
    const auto& c = csp.constraints[ci];
    std::vector<std::string> attrs;
    attrs.reserve(c.scope.size());
    for (int v : c.scope) {
      attrs.push_back(attr_name(v));
      constrained[v] = true;
    }
    std::string rel_name = "C" + std::to_string(ci);
    std::vector<db::Tuple> tuples;
    tuples.reserve(c.relation.tuples().size());
    for (const auto& t : c.relation.tuples()) {
      tuples.emplace_back(t.begin(), t.end());
    }
    red.db.SetRelation(rel_name, c.relation.arity(), std::move(tuples));
    red.query.Add(rel_name, std::move(attrs));
  }
  // Unconstrained variables get the full unary domain atom so the answer
  // schema covers every variable.
  bool dom_created = false;
  for (int v = 0; v < csp.num_vars; ++v) {
    if (constrained[v]) continue;
    if (!dom_created) {
      std::vector<db::Tuple> all;
      all.reserve(csp.domain_size);
      for (int d = 0; d < csp.domain_size; ++d) {
        all.push_back({static_cast<db::Value>(d)});
      }
      red.db.SetRelation("Dom", 1, std::move(all));
      dom_created = true;
    }
    red.query.Add("Dom", {attr_name(v)});
  }
  return red;
}

}  // namespace qc::reductions
