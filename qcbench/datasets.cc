#include "datasets.h"

#include <set>
#include <utility>

#include "db/generic_join.h"
#include "db/parser.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace qcbench {

namespace {

// E17 triangle: 3 x 1500 uniform rows over a 48-value domain.
constexpr int kTriangleRows = 1500;
constexpr int kTriangleDomain = 48;
// Hub instance: every hub is adjacent to every vertex, so the hubs form a
// dense heavy core (degree above the sqrt(N) threshold) big enough for the
// planner's auto mode to take the Boolean-MM route; the answer stays in
// the tens of thousands of rows.
constexpr int kHubVertices = 30;
constexpr int kHubs = 17;
constexpr int kHubPeripheryEdges = 10;
// Large answer: R(a,b), S(b,c) with 32k rows each over 1600 join values,
// ~640k answer rows.
constexpr int kLargeRows = 32000;
constexpr int kLargeJoinValues = 1600;
// Ingest: a sparse random digraph and a join pair of a few thousand rows.
constexpr int kEdgeVertices = 600;
constexpr int kEdges = 6000;
constexpr int kJoinRows = 2000;
constexpr int kJoinValues = 1000;

db::Tuple Pair(db::Value a, db::Value b) { return db::Tuple{a, b}; }

}  // namespace

std::string DatasetText(const std::vector<Relation>& relations) {
  std::string text;
  for (const Relation& rel : relations) {
    text += "relation " + rel.name + ":\n";
    for (const db::Tuple& row : rel.rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i > 0) text += ' ';
        text += std::to_string(row[i]);
      }
      text += '\n';
    }
  }
  return text;
}

RowDigest ReferenceDigest(const std::string& query_text,
                          const std::vector<Relation>& relations) {
  db::Database d;
  for (const Relation& rel : relations) {
    d.SetRelation(rel.name, static_cast<int>(rel.rows.front().size()),
                  rel.rows);
  }
  auto query = db::ParseJoinQuery(query_text);
  qc::ExecutionContext ctx;
  ctx.threads = 1;
  return DigestTuples(db::GenericJoin(*query, d, ctx).Evaluate().tuples);
}

TriangleReadData MakeTriangleRead(std::uint64_t seed) {
  TriangleReadData data;
  qc::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (const char* name : {"R1", "R2", "R3"}) {
    Relation rel{name, {}};
    for (int i = 0; i < kTriangleRows; ++i) {
      rel.rows.push_back(Pair(
          static_cast<db::Value>(rng.NextBounded(kTriangleDomain)),
          static_cast<db::Value>(rng.NextBounded(kTriangleDomain))));
    }
    data.relations.push_back(std::move(rel));
  }
  // Vertex ids are shuffled so hubs are not always the smallest values.
  std::vector<db::Value> label(kHubVertices);
  for (int v = 0; v < kHubVertices; ++v) label[v] = v;
  for (int v = kHubVertices - 1; v > 0; --v) {
    std::swap(label[v], label[rng.NextBounded(static_cast<std::uint64_t>(v) + 1)]);
  }
  qc::graph::Graph g =
      qc::graph::HubGraph(kHubVertices, kHubs, kHubPeripheryEdges, &rng);
  Relation hub{"H", {}};
  for (const auto& [u, v] : g.Edges()) {
    hub.rows.push_back(Pair(label[u], label[v]));
    hub.rows.push_back(Pair(label[v], label[u]));
  }
  data.relations.push_back(std::move(hub));
  data.query = "R1(a,b), R2(a,c), R3(b,c)";
  data.hub_query = "H(a,b), H(a,c), H(b,c)";
  return data;
}

LargeAnswerData MakeLargeAnswer(std::uint64_t seed) {
  LargeAnswerData data;
  qc::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  Relation r{"R", {}}, s{"S", {}};
  for (int i = 0; i < kLargeRows; ++i) {
    r.rows.push_back(
        Pair(i, static_cast<db::Value>(rng.NextBounded(kLargeJoinValues))));
    s.rows.push_back(
        Pair(static_cast<db::Value>(rng.NextBounded(kLargeJoinValues)), i));
  }
  data.relations = {std::move(r), std::move(s)};
  data.query = "R(a,b), S(b,c)";
  return data;
}

IngestData MakeIngest(std::uint64_t seed, std::size_t mutations) {
  IngestData data;
  qc::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 43);
  std::set<std::pair<db::Value, db::Value>> edges;
  auto fresh_edge = [&] {
    for (;;) {
      const auto u = static_cast<db::Value>(rng.NextBounded(kEdgeVertices));
      const auto v = static_cast<db::Value>(rng.NextBounded(kEdgeVertices));
      if (u != v && edges.insert({u, v}).second) return Pair(u, v);
    }
  };
  Relation e{"E", {}}, r{"R", {}}, s{"S", {}};
  for (int i = 0; i < kEdges; ++i) e.rows.push_back(fresh_edge());
  db::Value next_a = 0, next_c = 0;
  for (int i = 0; i < kJoinRows; ++i) {
    r.rows.push_back(
        Pair(next_a++, static_cast<db::Value>(rng.NextBounded(kJoinValues))));
    s.rows.push_back(
        Pair(static_cast<db::Value>(rng.NextBounded(kJoinValues)), next_c++));
  }
  static const char* kNames[] = {"E", "R", "S"};
  for (std::size_t k = 0; k < mutations; ++k) {
    Mutation m;
    m.relation = static_cast<int>(k % 3);
    if (m.relation == 0) {
      m.tuple = fresh_edge();
    } else if (m.relation == 1) {
      m.tuple = Pair(next_a++,
                     static_cast<db::Value>(rng.NextBounded(kJoinValues)));
    } else {
      m.tuple = Pair(static_cast<db::Value>(rng.NextBounded(kJoinValues)),
                     next_c++);
    }
    m.body = std::string("relation ") + kNames[m.relation] + ":\n" +
             std::to_string(m.tuple[0]) + " " + std::to_string(m.tuple[1]) +
             "\n";
    m.request_id = ((seed & 0xffffff) << 32) + k + 1;
    data.mutations.push_back(std::move(m));
  }
  data.relations = {std::move(e), std::move(r), std::move(s)};
  data.query = "E(a,b), E(b,c), E(a,c)";
  data.join_view_query = "R(a,b), S(b,c)";
  return data;
}

IngestReference::IngestReference(const IngestData& data) {
  for (int rel = 0; rel < 3; ++rel) {
    for (const db::Tuple& row : data.relations[rel].rows) {
      Apply(Mutation{rel, row, "", 0});
    }
  }
}

void IngestReference::Apply(const Mutation& m) {
  const db::Value x = m.tuple[0], y = m.tuple[1];
  if (m.relation == 0) {
    AddEdge(x, y);
  } else if (m.relation == 1) {
    for (db::Value c : s_by_b_[y]) join_.Add(db::Tuple{x, y, c});
    r_by_b_[y].push_back(x);
  } else {
    for (db::Value a : r_by_b_[x]) join_.Add(db::Tuple{a, x, y});
    s_by_b_[x].push_back(y);
  }
}

void IngestReference::AddEdge(db::Value x, db::Value y) {
  // Rows of E(a,b), E(b,c), E(a,c) that use the new edge (x,y) once, in
  // each of its three positions. Edges are distinct and loop-free, so the
  // three sets are disjoint and no row uses the edge twice.
  auto both = [](const std::unordered_set<db::Value>& p,
                 const std::unordered_set<db::Value>& q, auto&& emit) {
    const auto& small = p.size() <= q.size() ? p : q;
    const auto& large = p.size() <= q.size() ? q : p;
    for (db::Value v : small) {
      if (large.count(v) != 0) emit(v);
    }
  };
  both(out_[y], out_[x], [&](db::Value c) { triangles_.Add(db::Tuple{x, y, c}); });
  both(in_[x], in_[y], [&](db::Value a) { triangles_.Add(db::Tuple{a, x, y}); });
  both(out_[x], in_[y], [&](db::Value b) { triangles_.Add(db::Tuple{x, b, y}); });
  out_[x].insert(y);
  in_[y].insert(x);
}

}  // namespace qcbench
