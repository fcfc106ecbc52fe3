#include "api/query_api.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <new>
#include <set>

#include "core/analyzer.h"
#include "core/autosolver.h"
#include "db/parser.h"
#include "kernels/dispatch.h"
#include "util/arena.h"
#include "util/fault.h"
#include "util/trace.h"

namespace qc::api {

std::string InputDiagnostic::ToString() const {
  return "line " + std::to_string(line) + ": " + message;
}

namespace {

/// One staged tuple with the input line it came from.
struct StagedRow {
  int line = 0;
  db::Tuple tuple;
};

/// One "relation X:" block occurrence, rows already parsed.
struct StagedBlock {
  std::string relation;
  int header_line = 0;
  std::vector<StagedRow> rows;
};

bool IsBlankOrComment(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

DatasetStaging StageDataset(const std::string& text, const db::Database& db,
                            bool continue_on_error) {
  DatasetStaging staging;
  DatasetLoad& out = staging.load;
  std::vector<StagedBlock> blocks;
  StagedBlock* current = nullptr;

  // Pass 1: split into the query line and relation blocks, parsing each
  // tuple line individually so every malformed row gets its own
  // line-numbered diagnostic (not just the first).
  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      if (pos == text.size()) break;
      eol = text.size();
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;

    if (line.rfind("query:", 0) == 0) {
      out.query_text = line.substr(6);
      continue;
    }
    if (line.rfind("relation ", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon == std::string::npos) {
        out.diagnostics.push_back(
            {line_no, "relation header is missing ':'"});
        current = nullptr;
        continue;
      }
      std::string name = line.substr(9, colon - 9);
      while (!name.empty() && (name.back() == ' ' || name.back() == '\t')) {
        name.pop_back();
      }
      if (name.empty()) {
        out.diagnostics.push_back({line_no, "relation header has no name"});
        current = nullptr;
        continue;
      }
      blocks.push_back(StagedBlock{std::move(name), line_no, {}});
      current = &blocks.back();
      continue;
    }
    if (IsBlankOrComment(line)) continue;
    if (current == nullptr) {
      out.diagnostics.push_back(
          {line_no, "tuple outside any 'relation X:' block"});
      continue;
    }
    auto parsed = db::ParseTuples(line);
    if (!parsed) {
      out.diagnostics.push_back(
          {line_no, "relation " + current->relation + ": column " +
                        std::to_string(parsed.error.column) + ": " +
                        parsed.error.message});
      continue;
    }
    for (auto& t : *parsed) {
      current->rows.push_back(StagedRow{line_no, std::move(t)});
    }
  }

  // Pass 2: resolve arities and validate every row before anything is
  // applied. Existing relations fix the arity; a new name takes the arity
  // of its first valid row.
  std::map<std::string, int> arity;
  for (StagedBlock& block : blocks) {
    auto it = arity.find(block.relation);
    int expected = -1;
    if (it != arity.end()) {
      expected = it->second;
    } else if (db.HasRelation(block.relation)) {
      expected = db.Arity(block.relation);
      arity[block.relation] = expected;
    }
    std::vector<StagedRow> kept;
    kept.reserve(block.rows.size());
    for (StagedRow& row : block.rows) {
      if (expected < 0) {
        expected = static_cast<int>(row.tuple.size());
        arity[block.relation] = expected;
      }
      if (static_cast<int>(row.tuple.size()) != expected) {
        out.diagnostics.push_back(
            {row.line, "relation " + block.relation + ": tuple has arity " +
                           std::to_string(row.tuple.size()) + ", expected " +
                           std::to_string(expected)});
        ++out.tuples_skipped;
        continue;
      }
      kept.push_back(std::move(row));
    }
    block.rows = std::move(kept);
    if (expected < 0) arity[block.relation] = 1;  // Empty new relation.
  }

  // Abort semantics: any diagnostic rejects the whole input — the database
  // is untouched, mirroring SetRelation's all-or-nothing validation.
  if (!out.diagnostics.empty() && !continue_on_error) {
    out.ok = false;
    out.applied = false;
    out.tuples_skipped = 0;
    return staging;
  }

  // Resolve blocks into apply-ready batches, block order preserved. The
  // FIRST block of a name the database does not know creates the relation;
  // every later block of that name (and every block of an existing name)
  // appends — the same decision pass 3 used to make against the live
  // database mid-apply.
  std::set<std::string> created;
  staging.blocks.reserve(blocks.size());
  for (StagedBlock& block : blocks) {
    DatasetStaging::Block resolved;
    resolved.relation = block.relation;
    resolved.header_line = block.header_line;
    resolved.arity = arity.at(block.relation);
    resolved.create =
        !db.HasRelation(block.relation) && created.insert(block.relation).second;
    resolved.tuples.reserve(block.rows.size());
    for (StagedRow& row : block.rows) {
      resolved.tuples.push_back(std::move(row.tuple));
    }
    staging.blocks.push_back(std::move(resolved));
  }
  out.ok = true;
  return staging;
}

db::MutationResult ApplyDataset(DatasetStaging* staging, db::Database* db) {
  DatasetLoad& out = staging->load;
  if (!out.ok) {
    return db::MutationResult::Fail("dataset staging was rejected");
  }
  for (DatasetStaging::Block& block : staging->blocks) {
    db::MutationResult r;
    if (block.create) {
      const std::size_t rows = block.tuples.size();
      r = db->SetRelation(block.relation, block.arity,
                          std::move(block.tuples));
      if (r) out.tuples_applied += rows;
    } else {
      // Unreachable failures after staging validated arities — but the
      // database may have changed if the caller broke the same-state
      // contract, so surface instead of ignoring.
      for (db::Tuple& tuple : block.tuples) {
        r = db->AddTuple(block.relation, std::move(tuple));
        if (!r) break;
        ++out.tuples_applied;
      }
    }
    if (!r) {
      out.diagnostics.push_back({block.header_line, r.message});
      out.ok = false;
      return r;
    }
  }
  out.applied = true;
  return db::MutationResult::Ok();
}

DatasetLoad LoadDataset(const std::string& text, db::Database* db,
                        bool continue_on_error) {
  DatasetStaging staging = StageDataset(text, *db, continue_on_error);
  if (staging.load.ok) ApplyDataset(&staging, db);
  return std::move(staging.load);
}

DatasetFileLoad LoadDatasetFile(const std::string& path, db::Database* db,
                                bool continue_on_error) {
  DatasetFileLoad out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.io_error = path + ": " + std::strerror(errno);
    return out;
  }
  std::string text;
  char buf[1 << 16];
  while (true) {
    std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    text.append(buf, n);
    if (n < sizeof(buf)) {
      if (std::ferror(f)) {
        out.io_error = path + ": read error: " + std::strerror(errno);
        std::fclose(f);
        return out;
      }
      break;
    }
  }
  std::fclose(f);
  out.io_ok = true;
  out.load = LoadDataset(text, db, continue_on_error);
  return out;
}

int QueryResponse::ExitCode() const {
  if (!input_ok) return 1;
  if (internal_error) return 7;
  return util::ExitCode(status);
}

QueryResponse ExecuteQuery(const QueryRequest& req, const db::Database& db,
                           db::IndexCache* cache) {
  QueryResponse resp;
  auto query = db::ParseJoinQuery(req.query_text);
  if (!query) {
    resp.error = "query parse error: " + query.error.ToString();
    return resp;
  }
  for (const auto& atom : query->atoms) {
    if (!db.HasRelation(atom.relation)) {
      resp.error = "missing relation " + atom.relation;
      return resp;
    }
  }
  resp.input_ok = true;

  util::Counters counters;
  ExecutionContext ctx;
  req.options.ApplyTo(&ctx);
  ctx.counters = &counters;
  ctx.index_cache = cache;
  // Per-request scratch arena: the serial engines route their join-time
  // buffers (sort scratch, trie-build ranges, semijoin keys) through it and
  // the whole footprint is released here when the request finishes.
  util::Arena arena;
  ctx.arena = &arena;
  // One budget across analysis and evaluation: the deadline is end-to-end
  // and the row meter survives both phases.
  auto budget = req.options.MakeBudget();
  ctx.budget = budget;
  if (req.collect_trace) util::Trace::Enable();
  auto start = std::chrono::steady_clock::now();

  // Allocation failure (a genuinely exhausted heap, or the arena.alloc
  // fault point) must come back as a structured internal error, not a
  // crash: the engines assume allocation succeeds, so the containment
  // boundary is here, where a per-request failure cannot take down the
  // process (qc_serverd turns it into a retryable code-7 error frame).
  try {
    if (req.want_analysis) {
      core::Analysis analysis = core::AnalyzeQuery(*query, ctx);
      resp.analysis_text = analysis.ToString();
      if (analysis.status != util::RunStatus::kCompleted) {
        resp.analysis_text +=
            "\n(analysis degraded to heuristic measures: " +
            std::string(util::ToString(analysis.status)) + ")";
      }
    }

    core::AutoQueryResult result = core::EvaluateQueryAuto(*query, db, ctx);
    resp.status = result.status;
    resp.method = core::ToString(result.method);
    resp.result = std::move(result.result);
    resp.report.planner = result.plan;
  } catch (const std::bad_alloc&) {
    resp.internal_error = true;
    resp.error = "allocation failure during query evaluation";
    resp.result = db::FlatJoinResult{};
  }

  resp.report.status = resp.status;
  resp.report.threads = ctx.ResolvedThreads();
  resp.report.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  resp.report.FillBudget(*budget, req.options.deadline_ms > 0);
  if (cache != nullptr) {
    // One snapshot feeds both the section and the index_cache.* counters.
    resp.report.cache = cache->stats();
    db::IndexCache::ExportCounters(resp.report.cache, &counters);
  }
  // With fault injection active, the report shows which failure paths this
  // request exercised ("fault.<point>.evals"/".fires").
  if (util::FaultsEnabled()) {
    util::FaultRegistry::Global().ExportCounters(&counters);
  }
  resp.report.stats.arena_high_water_bytes = arena.high_water_bytes();
  resp.report.counters = std::move(counters);
  resp.report.counters.Set("threads", ctx.ResolvedThreads());
  resp.report.counters.Set(
      "simd.level", static_cast<std::uint64_t>(kernels::ActiveSimdLevel()));
  resp.report.counters.Set("arena.high_water_bytes",
                           arena.high_water_bytes());
  if (req.collect_trace) {
    resp.report.trace = util::Trace::Collect();
    util::Trace::Disable();
  }
  resp.report.server.request_id = req.id;
  return resp;
}

int FinishReport(const SessionOptions& opts, const util::RunReport& report,
                 util::RunStatus status) {
  if (!opts.report_json.empty() && !report.WriteJsonFile(opts.report_json)) {
    return 1;
  }
  if (!util::IsKnown(status)) {
    std::fprintf(stderr,
                 "internal error: unknown run status %d (please report)\n",
                 static_cast<int>(status));
  }
  return util::ExitCode(status);
}

}  // namespace qc::api
