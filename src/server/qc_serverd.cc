// qc_serverd: the MVCC-snapshot query daemon.
//
// Serves concurrent qcp/1 clients over loopback TCP. Every query pins a
// consistent snapshot of the database (writers never block readers), runs
// under the merged per-request budget, passes global admission control,
// and streams back batched rows plus a machine-readable RunReport.
//
// Usage:
//   qc_serverd [--port N] [--host ADDR] [--preload FILE]
//              [--view NAME=QUERY] [--triangle-view NAME=REL]
//              [--wal-dir DIR] [--fsync always|batch|off]
//              [--wal-batch-bytes N] [--wal-compact-bytes N]
//              [--max-concurrent N] [--queue-capacity N]
//              [--queue-timeout-ms N] [--batch-rows N]
//              [session flags: --threads/--deadline-ms/--max-rows/...]
//
// With --wal-dir the daemon is durable: it replays DIR's snapshot + log on
// boot (truncating any torn tail a crash left), logs every mutation before
// acknowledging it, and a kill -9 at any point recovers to exactly the
// acknowledged state (fsync=always) or a bounded tail (fsync=batch).
//
// Prints "qc_serverd listening on HOST:PORT" once ready (scripts key off
// this line), then serves until SIGINT/SIGTERM or a `shutdown` frame, then
// prints final stats JSON to stderr.

#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/query_api.h"
#include "api/session_options.h"
#include "server/server.h"

namespace {

qc::server::QueryServer* g_server = nullptr;

extern "C" void HandleSignal(int) {
  if (g_server != nullptr) g_server->SignalShutdown();
}

void PrintUsage() {
  std::cout
      << "usage: qc_serverd [options]\n"
      << "  --port N              listen port (default 0 = ephemeral)\n"
      << "  --host ADDR           listen address (default 127.0.0.1)\n"
      << "  --preload FILE        load a dataset file before serving\n"
      << "  --view NAME=QUERY     register a maintained join view (repeat "
         "ok)\n"
      << "  --triangle-view NAME=REL  register a triangle-count view over "
         "edge relation REL\n"
      << "  --max-concurrent N    queries executing at once (default 8)\n"
      << "  --queue-capacity N    admission queue slots (default 64)\n"
      << "  --queue-timeout-ms N  max queue wait, 0 = forever (default 0)\n"
      << "  --batch-rows N        rows per result batch frame (default 256)\n"
      << "  --wal-dir DIR         write-ahead-log directory (durability on)\n"
      << "  --fsync POLICY        always|batch|off (default always)\n"
      << "  --wal-batch-bytes N   fsync=batch: bytes between syncs (1MiB)\n"
      << "  --wal-compact-bytes N log size triggering compaction (64MiB)\n"
      << "  session defaults:" << qc::api::SessionFlagsUsage() << "\n";
}

bool ParseIntFlag(const char* flag, const char* text, int min_value,
                  int* out) {
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min_value || v > 1 << 30) {
    std::cerr << flag << ": bad value '" << text << "'\n";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qc::server::ServerOptions options;
  std::string preload_path;
  // (name, kind, body) triples registered after recovery + preload.
  std::vector<std::array<std::string, 3>> view_flags;

  for (int i = 1; i < argc;) {
    std::string arg = argv[i];
    std::string error;
    int consumed =
        qc::api::ParseSessionFlag(argc, argv, i, &options.session, &error);
    if (consumed < 0) {
      std::cerr << error << "\n";
      return 1;
    }
    if (consumed > 0) {
      i += consumed;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << ": missing value\n";
        return nullptr;
      }
      return argv[i + 1];
    };
    if (arg == "--port") {
      const char* v = need_value("--port");
      if (v == nullptr || !ParseIntFlag("--port", v, 0, &options.port))
        return 1;
      i += 2;
    } else if (arg == "--host") {
      const char* v = need_value("--host");
      if (v == nullptr) return 1;
      options.host = v;
      i += 2;
    } else if (arg == "--preload") {
      const char* v = need_value("--preload");
      if (v == nullptr) return 1;
      preload_path = v;
      i += 2;
    } else if (arg == "--view" || arg == "--triangle-view") {
      const char* v = need_value(arg.c_str());
      if (v == nullptr) return 1;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') {
        std::cerr << arg << ": want NAME=" 
                  << (arg == "--view" ? "QUERY" : "RELATION") << "\n";
        return 1;
      }
      view_flags.push_back(
          {std::string(v, eq - v),
           arg == "--view" ? std::string("join")
                           : std::string("triangle_count"),
           std::string(eq + 1)});
      i += 2;
    } else if (arg == "--max-concurrent") {
      const char* v = need_value("--max-concurrent");
      if (v == nullptr ||
          !ParseIntFlag("--max-concurrent", v, 0,
                        &options.admission.max_concurrent))
        return 1;
      i += 2;
    } else if (arg == "--queue-capacity") {
      const char* v = need_value("--queue-capacity");
      if (v == nullptr ||
          !ParseIntFlag("--queue-capacity", v, 0,
                        &options.admission.queue_capacity))
        return 1;
      i += 2;
    } else if (arg == "--queue-timeout-ms") {
      const char* v = need_value("--queue-timeout-ms");
      int ms = 0;
      if (v == nullptr || !ParseIntFlag("--queue-timeout-ms", v, 0, &ms))
        return 1;
      options.admission.queue_timeout_ms = static_cast<std::uint64_t>(ms);
      i += 2;
    } else if (arg == "--batch-rows") {
      const char* v = need_value("--batch-rows");
      if (v == nullptr ||
          !ParseIntFlag("--batch-rows", v, 1, &options.batch_rows))
        return 1;
      i += 2;
    } else if (arg == "--wal-dir") {
      const char* v = need_value("--wal-dir");
      if (v == nullptr) return 1;
      options.wal.dir = v;
      i += 2;
    } else if (arg == "--fsync") {
      const char* v = need_value("--fsync");
      if (v == nullptr) return 1;
      if (!qc::db::ParseFsyncPolicy(v, &options.wal.fsync)) {
        std::cerr << "--fsync: bad value '" << v
                  << "' (want always|batch|off)\n";
        return 1;
      }
      i += 2;
    } else if (arg == "--wal-batch-bytes") {
      const char* v = need_value("--wal-batch-bytes");
      int n = 0;
      if (v == nullptr || !ParseIntFlag("--wal-batch-bytes", v, 1, &n))
        return 1;
      options.wal.batch_bytes = static_cast<std::uint64_t>(n);
      i += 2;
    } else if (arg == "--wal-compact-bytes") {
      const char* v = need_value("--wal-compact-bytes");
      int n = 0;
      if (v == nullptr || !ParseIntFlag("--wal-compact-bytes", v, 0, &n))
        return 1;
      options.wal.compact_bytes = static_cast<std::uint64_t>(n);
      i += 2;
    } else {
      std::cerr << "unknown flag '" << arg << "' (see --help)\n";
      return 1;
    }
  }

  qc::server::QueryServer server(options);

  std::string error;
  if (!server.Recover(&error)) {
    std::cerr << "qc_serverd: " << error << "\n";
    return 7;
  }
  const qc::server::RecoveryInfo rec = server.recovery();
  if (rec.ran) {
    std::cerr << "recovered:";
    rec.ForEachField([](std::string_view key, auto value, qc::util::FieldKind) {
      std::cerr << ' ' << key << '=' << value;
    });
    std::cerr << "\n";
  }

  // A durable restart already holds its data; re-applying --preload on top
  // would double every row. Preload only seeds an empty store.
  const bool skip_preload =
      rec.ran && (rec.snapshot_records + rec.log_records) > 0;
  if (!preload_path.empty() && skip_preload) {
    std::cerr << "skipping --preload " << preload_path
              << ": WAL recovery restored existing data\n";
  }
  if (!preload_path.empty() && !skip_preload) {
    // LoadDatasetFile keeps environment problems (unreadable file, exit 3
    // with an errno-backed message) apart from input problems (parse
    // diagnostics). Probe against a scratch database first so the I/O and
    // parse outcome is known before anything touches the live store.
    qc::db::Database probe;
    qc::api::DatasetFileLoad file_load = qc::api::LoadDatasetFile(
        preload_path, &probe, options.session.continue_on_input_error);
    if (!file_load.io_ok) {
      std::cerr << "cannot read preload file: " << file_load.io_error
                << "\n";
      return 3;
    }
    for (const auto& d : file_load.load.diagnostics) {
      std::cerr << preload_path << ": " << d.ToString() << "\n";
    }
    if (!file_load.load.ok) {
      std::cerr << "preload rejected; nothing applied\n";
      return 3;
    }
    // Re-read for the live (and, with --wal-dir, logged) application: a
    // preload must be durable like any other mutation, or a crash after
    // ingest would recover the ingested rows onto an empty base.
    std::ifstream in(preload_path);
    std::ostringstream text;
    text << in.rdbuf();
    qc::db::WalRecord record;
    record.kind = qc::db::WalRecord::Kind::kDataset;
    record.dataset = text.str();
    record.continue_on_error = options.session.continue_on_input_error;
    qc::api::DatasetLoad load;
    qc::db::MutationResult committed = server.database().MutateLogged(
        record, [&](qc::db::Database& db) {
          load = qc::api::LoadDataset(
              record.dataset, &db,
              options.session.continue_on_input_error);
          return load.ok
                     ? qc::db::MutationResult::Ok()
                     : qc::db::MutationResult::Fail("preload rejected");
        });
    if (!committed) {
      std::cerr << "preload failed: " << committed.message << "\n";
      return 3;
    }
    std::cerr << "preloaded " << load.tuples_applied << " tuples from "
              << preload_path << "\n";
  }

  // Register maintained views last: against the recovered + preloaded
  // state. A durable restart may already have rebuilt the same view from
  // its kViewDef record — an "already registered" rejection is then the
  // expected outcome, not an error.
  for (const auto& [name, kind, body] : view_flags) {
    // Same parse path the server's view_register frames and WAL recovery
    // use: build the durable record and decode it.
    qc::db::WalRecord record;
    record.kind = qc::db::WalRecord::Kind::kViewDef;
    record.relation = name;
    record.arity = kind == "join" ? 0 : 1;
    record.dataset = body;
    qc::db::ViewDefinition def;
    qc::db::MutationResult r = qc::db::ViewDefinitionFromRecord(record, &def);
    if (r) r = server.database().RegisterView(def);
    if (!r && r.message.find("already registered") != std::string::npos) {
      std::cerr << "view " << name << ": already registered (recovered)\n";
      continue;
    }
    if (!r) {
      std::cerr << "view " << name << ": " << r.message << "\n";
      return 3;
    }
    std::cerr << "view " << name << " registered (" << kind << ")\n";
  }

  if (!server.Start(&error)) {
    std::cerr << "qc_serverd: " << error << "\n";
    return 7;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::cout << "qc_serverd listening on " << options.host << ":"
            << server.port() << std::endl;

  server.Wait();
  server.Stop();
  g_server = nullptr;

  std::cerr << server.StatsJson() << "\n";
  return 0;
}
