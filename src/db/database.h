#ifndef QC_DB_DATABASE_H_
#define QC_DB_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/flat_relation.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"

namespace qc::db {

/// Outcome of a Database mutation. Malformed input (arity mismatch, missing
/// relation) is a diagnostic, not a process abort: the mutation is rejected,
/// the database is left unchanged, and the caller decides how to surface the
/// message (the CLIs print it and exit 1 — the same structured-error
/// convention the text parsers follow with util::ParseError).
struct MutationResult {
  bool ok = true;
  std::string message;  ///< Meaningful only when !ok.

  explicit operator bool() const { return ok; }

  static MutationResult Ok() { return MutationResult{}; }
  static MutationResult Fail(std::string message) {
    return MutationResult{false, std::move(message)};
  }
};

/// One atom R(a1, ..., ar) of a join query.
struct Atom {
  std::string relation;                 ///< Relation name.
  std::vector<std::string> attributes;  ///< Column attribute names.
};

/// A (natural) join query Q = R1(...) |><| ... |><| Rm(...) as in
/// Section 2.1. Repeated relation names are allowed (self-joins); repeated
/// attributes within an atom are allowed and mean equality on the columns.
struct JoinQuery {
  std::vector<Atom> atoms;

  /// Adds an atom and returns *this (builder style).
  JoinQuery& Add(std::string relation, std::vector<std::string> attributes);

  /// Distinct attributes in order of first appearance — the result schema.
  std::vector<std::string> AttributeOrder() const;

  /// Index of each attribute in AttributeOrder().
  std::map<std::string, int> AttributeIndex() const;

  /// Query hypergraph (Section 3): vertices = attributes, one hyperedge per
  /// atom.
  graph::Hypergraph Hypergraph() const;

  /// Primal graph of the query.
  graph::Graph PrimalGraph() const;
};

/// A database instance: named relations with explicit arity.
///
/// Storage is flat and columnar (FlatRelation): every relation is one
/// contiguous Value array with arity stride. The engines (Generic Join's
/// trie build, semijoins, enumeration) read the flat data directly via
/// Flat(); the row-wise Tuples() accessor copies the rows out on each call.
///
/// Every successful mutation stamps the relation with a process-unique
/// version (RelationVersion); derived read-side structures — the shared
/// trie IndexCache — key on that stamp, so any mutation path provably
/// invalidates them without per-site cache-clearing code. Versions are unique across relations and Database instances, which
/// makes (name, version) a safe cache key even when several databases reuse
/// a relation name.
///
/// Relation storage is copy-on-write: Clone() produces a second Database
/// that *shares* every relation's flat payload (and keeps its version
/// stamp, so IndexCache entries built against the original stay valid for
/// the clone). The first mutation of a shared relation copies it privately
/// first — a clone is therefore an immutable point-in-time snapshot for as
/// long as nobody mutates the clone itself. This is the primitive
/// db::MvccDatabase builds reader snapshots from.
///
/// Threading contract: concurrent *const* access (Flat, Tuples, versions,
/// lookups) from any number of threads is safe: const members never write.
/// Mutations and Clone() are not synchronized
/// against readers or each other: mutate/clone before sharing, or
/// externally serialize them with reads (the same "arm before sharing"
/// contract as util::Budget; MvccDatabase provides that serialization).
class Database {
 public:
  /// Creates/replaces a relation. All tuples must have size `arity`; on a
  /// mismatch the database is unchanged and the result carries a diagnostic.
  MutationResult SetRelation(const std::string& name, int arity,
                             std::vector<Tuple> tuples);

  /// Creates/replaces a relation from flat storage directly (zero-copy).
  MutationResult SetRelation(const std::string& name, FlatRelation relation);

  /// Appends one tuple. Fails (database unchanged) when the relation does
  /// not exist or the tuple's arity does not match.
  MutationResult AddTuple(const std::string& name, Tuple tuple);

  bool HasRelation(const std::string& name) const;
  int Arity(const std::string& name) const;

  /// Version stamp of the relation's last mutation: process-unique, bumped
  /// by every SetRelation/AddTuple, never 0 for an existing relation.
  /// Returns 0 when the relation does not exist.
  std::uint64_t RelationVersion(const std::string& name) const;

  /// Flat columnar storage of the relation — the primary representation.
  const FlatRelation& Flat(const std::string& name) const;

  /// Number of tuples without materializing rows.
  std::size_t NumTuples(const std::string& name) const;

  /// Row-wise copy of the relation (tests and text output; engines read
  /// Flat()).
  std::vector<Tuple> Tuples(const std::string& name) const;

  /// N = max number of tuples in any relation (0 for the empty database).
  std::size_t MaxRelationSize() const;

  std::vector<std::string> RelationNames() const;

  /// Copy-on-write snapshot: the clone shares every relation's flat payload
  /// and keeps its version stamp. O(#relations) pointer copies — no tuple
  /// data moves until one side mutates a shared relation (that mutation
  /// pays one private copy of just that relation). Must be serialized with
  /// mutations of *this* database (see the class threading contract).
  Database Clone() const;

 private:
  struct Rel {
    /// Shared flat payload. Never null for a live relation; shared (use
    /// maybe_shared) with clones until the next mutation copies it.
    std::shared_ptr<FlatRelation> flat;
    /// True when `flat` may be shared with a Clone(): the next in-place
    /// mutation must copy first. Set on both sides by Clone(), cleared by
    /// the copy (plain bool — Clone and mutations are externally
    /// serialized per the class contract).
    mutable bool maybe_shared = false;
    /// Stamp of the last mutation; see RelationVersion().
    std::uint64_t version = 0;
  };

  /// Stamps `rel` with a fresh version after a mutation.
  static void Touch(Rel& rel);

  std::map<std::string, Rel> relations_;
};

/// A materialized query result: schema plus tuples. This row-wise struct is
/// the stable materialized-output boundary — engines compute on FlatRelation
/// internally and convert at the edges.
struct JoinResult {
  std::vector<std::string> attributes;
  std::vector<Tuple> tuples;
  /// True when the producing engine stopped early (deadline, row limit,
  /// cancellation): `tuples` is a subset of the true answer.
  bool truncated = false;

  /// Sorts tuples (for order-insensitive comparison in tests) and removes
  /// duplicates.
  void Normalize();
};

/// A join answer in columnar form: the one result every served engine
/// route fills (GenericJoin, the acyclic route, the hybrid merge) and the
/// reply encoder reads. Row form exists only at the JoinResult edge.
struct FlatJoinResult {
  std::vector<std::string> attributes;
  /// One row per answer, columns ordered as `attributes`.
  FlatRelation rows;
  /// True when the producing engine stopped early (deadline, row limit,
  /// cancellation): `rows` is a subset of the true answer.
  bool truncated = false;

  /// The row-form adapter kept for tests, benches and external callers.
  JoinResult ToRows() const;
};

/// Reference evaluation by full nested-loop enumeration over the attribute
/// domains induced by the database; exponential, for testing only.
JoinResult EvaluateNestedLoop(const JoinQuery& query, const Database& db);

/// True if `tuple` (aligned with `attrs`) satisfies every atom of `query`.
bool TupleSatisfiesQuery(const JoinQuery& query, const Database& db,
                         const std::vector<std::string>& attrs,
                         const Tuple& tuple);

}  // namespace qc::db

#endif  // QC_DB_DATABASE_H_
