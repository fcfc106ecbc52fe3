// Seeded inputs of the three workloads and their in-process references.
// The server only ever sees the dataset text and request bodies built
// here; the same seed always yields the same inputs.
#ifndef QCBENCH_DATASETS_H_
#define QCBENCH_DATASETS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"

namespace qcbench {

struct Relation {
  std::string name;
  std::vector<db::Tuple> rows;
};

/// The shared dataset text format (api::LoadDataset) for `relations`.
std::string DatasetText(const std::vector<Relation>& relations);

/// Answer digest of `query_text` over `relations`, computed in process by
/// GenericJoin (the reference every served answer is checked against).
RowDigest ReferenceDigest(const std::string& query_text,
                          const std::vector<Relation>& relations);

/// triangle_read: the E17 triangle over three uniform relations (op
/// `query`) and the same triangle shape over a hub graph whose heavy core
/// makes the hybrid planner take its Boolean-MM route (op `hub_query`).
struct TriangleReadData {
  std::vector<Relation> relations;  ///< R1, R2, R3, H.
  std::string query;
  std::string hub_query;
};
TriangleReadData MakeTriangleRead(std::uint64_t seed);

/// large_answer: an acyclic two-atom join whose answer is ~640k rows.
struct LargeAnswerData {
  std::vector<Relation> relations;  ///< R, S.
  std::string query;
};
LargeAnswerData MakeLargeAnswer(std::uint64_t seed);

/// One single-tuple insert of ingest_views, new to its relation.
struct Mutation {
  int relation = 0;  ///< 0 = E, 1 = R, 2 = S.
  db::Tuple tuple;
  std::string body;  ///< mutate frame body (dataset text).
  std::uint64_t request_id = 0;
};

/// ingest_views: an edge relation E queried for triangles and watched by
/// a triangle_count view, plus R and S under a join view, and a stream of
/// inserts into all three.
struct IngestData {
  std::vector<Relation> relations;  ///< E, R, S.
  std::string query;                ///< Triangles over E.
  std::string join_view_query;      ///< R(a,b), S(b,c).
  std::vector<Mutation> mutations;
};
IngestData MakeIngest(std::uint64_t seed, std::size_t mutations);

/// Reference state of ingest_views as inserts arrive: the triangle answer
/// over E and the R-S join, both maintained incrementally by adjacency
/// intersection. Independent of the engines it checks.
class IngestReference {
 public:
  explicit IngestReference(const IngestData& data);

  void Apply(const Mutation& m);
  const RowDigest& triangles() const { return triangles_; }
  const RowDigest& join() const { return join_; }

 private:
  void AddEdge(db::Value x, db::Value y);

  std::unordered_map<db::Value, std::unordered_set<db::Value>> out_, in_;
  std::unordered_map<db::Value, std::vector<db::Value>> r_by_b_, s_by_b_;
  RowDigest triangles_;
  RowDigest join_;
};

}  // namespace qcbench

#endif  // QCBENCH_DATASETS_H_
