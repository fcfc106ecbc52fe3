#ifndef QC_API_QUERY_API_H_
#define QC_API_QUERY_API_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/session_options.h"
#include "db/database.h"
#include "db/index_cache.h"
#include "util/run_report.h"

namespace qc::api {

/// One dataset-input problem, pinned to the 1-based line of the dataset
/// text it occurred on. Unlike the old per-binary plumbing — which
/// surfaced only the *first* MutationResult of a batched append, with no
/// position — every bad statement gets its own line-numbered diagnostic.
struct InputDiagnostic {
  int line = 0;
  std::string message;

  /// "line L: message".
  std::string ToString() const;
};

/// Outcome of LoadDataset. `ok` means the database now reflects the input:
/// under abort semantics that requires zero diagnostics (any error and
/// *nothing* is applied — the batched-append counterpart of SetRelation's
/// atomic validation); under continue semantics the valid rows are applied,
/// each bad one is skipped and reported, and `ok` stays true.
struct DatasetLoad {
  bool ok = false;
  bool applied = false;  ///< False when abort semantics rejected the input.
  std::string query_text;  ///< From the "query:" line; empty when absent.
  std::size_t tuples_applied = 0;
  std::size_t tuples_skipped = 0;  ///< Continue mode: bad rows skipped.
  std::vector<InputDiagnostic> diagnostics;
};

/// Parses the shared dataset text format
///
///   query: R(a,b), S(b,c)        (optional; at most one wins, last kept)
///   relation R:                  (block header)
///   1 2                          (one tuple per line; '#' comments, blank
///   2 3                           lines ignored)
///
/// and applies it to `db`. A block for an existing relation appends
/// (AddTuple per row); a new name creates the relation with the arity of
/// its first valid row. The whole text is validated before anything is
/// applied: with `continue_on_error == false` (abort) any diagnostic means
/// `db` is untouched; with true, bad rows are skipped individually. Used by
/// query_cli for its input file and by qc_serverd for `mutate` request
/// bodies, so both surfaces share one error model.
DatasetLoad LoadDataset(const std::string& text, db::Database* db,
                        bool continue_on_error);

/// LoadDataset split at its parse/apply seam, for callers that must
/// validate under one lock and mutate under the same lock without a staged
/// database clone (MvccDatabase::MutateLoggedInPlace). StageDataset runs
/// the parse and validation passes read-only against `db` and resolves
/// every block into a structured batch; `load` carries the verdict with
/// the exact diagnostics/skipped accounting LoadDataset reports. When
/// `load.ok`, ApplyDataset(&staging, db) against the SAME database state
/// cannot fail; it fills `load.tuples_applied` and flips `load.applied`.
struct DatasetStaging {
  struct Block {
    std::string relation;
    int header_line = 0;
    int arity = 0;
    bool create = false;  ///< SetRelation (new name) vs per-row append.
    std::vector<db::Tuple> tuples;
  };
  std::vector<Block> blocks;
  DatasetLoad load;
};
DatasetStaging StageDataset(const std::string& text, const db::Database& db,
                            bool continue_on_error);
db::MutationResult ApplyDataset(DatasetStaging* staging, db::Database* db);

/// LoadDataset over a file, with the failure classes kept apart: an
/// unreadable file (missing, permission, I/O error mid-read) sets
/// `io_ok == false` with an errno-backed `io_error` and never touches the
/// database, while a readable file with bad content surfaces through
/// `load.diagnostics` exactly like the in-memory form. Callers that used
/// to funnel both through one "load failed" message can now report (and
/// exit-code) them differently — an I/O error is an environment problem,
/// a parse error is an input problem.
struct DatasetFileLoad {
  bool io_ok = false;
  std::string io_error;  ///< Meaningful only when !io_ok.
  DatasetLoad load;      ///< Meaningful only when io_ok.
};
DatasetFileLoad LoadDatasetFile(const std::string& path, db::Database* db,
                                bool continue_on_error);

/// One query execution request against a pinned database snapshot — the
/// single programmatic entry point shared by query_cli and qc_serverd.
struct QueryRequest {
  std::uint64_t id = 0;  ///< Caller-chosen; echoed into report.server.
  std::string query_text;  ///< "R1(a,b), R2(b,c), ..." text form.
  SessionOptions options;  ///< Effective knobs (threads/deadline/rows).
  bool want_analysis = false;  ///< Also run the structural analyzer.
  /// Collect a span tree into the report. Requires exclusive use of the
  /// process-wide Trace (single-request tools only — qc_serverd leaves it
  /// off because concurrent requests would interleave spans).
  bool collect_trace = false;
};

/// What came back: either an input error (input_ok == false, `error` says
/// why, exit code 1) or an engine run with its status, result and a fully
/// populated RunReport (tool/server fields left for the caller to brand).
struct QueryResponse {
  bool input_ok = false;
  std::string error;  ///< Parse error / missing relation when !input_ok.
  /// The engine died on a resource failure (allocation) that is neither an
  /// input error nor a budget trip. `error` carries the diagnostic, the
  /// result is empty, and ExitCode() is 7 ("internal"). Callers can treat
  /// it as retryable — the next attempt may find memory.
  bool internal_error = false;
  util::RunStatus status = util::RunStatus::kCompleted;
  std::string method;         ///< Engine the auto-router picked.
  std::string analysis_text;  ///< Filled when want_analysis.
  db::FlatJoinResult result;  ///< Columnar answer; result.ToRows() for rows.
  util::RunReport report;

  /// 1 for input errors, 7 for internal errors, else util::ExitCode(status).
  int ExitCode() const;
};

/// Parses, routes and evaluates `req.query_text` against `db`, which must
/// stay immutable for the duration (a Database the caller owns, or an MVCC
/// snapshot). `cache` may be shared across concurrent calls (or null).
QueryResponse ExecuteQuery(const QueryRequest& req, const db::Database& db,
                           db::IndexCache* cache);

/// The one finishing path behind `--report-json`: writes `report` to
/// `opts.report_json` when set, prints the internal-error diagnostic for
/// unknown statuses, and returns the process exit code for `status` (or 1
/// when the report file cannot be written). Collapses the emission logic
/// query_cli, fpt_toolbox and the bench harnesses used to hand-roll.
int FinishReport(const SessionOptions& opts, const util::RunReport& report,
                 util::RunStatus status);

}  // namespace qc::api

#endif  // QC_API_QUERY_API_H_
