// A tour of the parameterized-algorithmics toolbox of Section 5 on one
// input graph: kernelization + bounded-depth branching for Vertex Cover
// (the FPT side), colour coding for k-Path, and the treewidth dynamic
// programs — against the brute-force baselines whose optimality the
// paper's lower bounds assert for the W[1]-hard problems (Clique).
//
// Flags are the shared qc::api session set: --deadline-ms N caps the
// tour's wall-clock time (the budgeted engines — exact treewidth, colour
// coding — stop at the next safe point; exit code 4), --threads N feeds
// the parallel engines. --max-rows N and --index-cache-mb N are accepted
// for interface parity with query_cli but the graph engines here produce
// no row stream and build no relational indexes (the report's cache
// section records the configured capacity with zero traffic).
// --report-json FILE writes a machine-readable RunReport (same schema as
// query_cli's, emitted through the same api::FinishReport path).

#include <chrono>
#include <cstdio>
#include <string>

#include "api/query_api.h"
#include "api/session_options.h"
#include "graph/cliques.h"
#include "graph/colorcoding.h"
#include "graph/generators.h"
#include "graph/nice_decomposition.h"
#include "graph/treewidth.h"
#include "graph/vertexcover.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/run_report.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

/// Shared by every exit path so --report-json sees aborted tours too.
struct ReportSink {
  qc::api::SessionOptions options;
  std::chrono::steady_clock::time_point start;

  /// Builds the tour's RunReport and hands it to api::FinishReport — the
  /// same finishing path query_cli and qc_serverd use. Returns the exit
  /// code.
  int Finish(const qc::util::Budget& budget, qc::util::RunStatus status) {
    qc::util::RunReport report;
    report.tool = "fpt_toolbox";
    report.status = status;
    report.threads = options.threads > 0 ? options.threads : 1;
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    report.FillBudget(budget, options.deadline_ms > 0);
    // The tour builds no IndexCache, so the cache section stays absent
    // (enabled = false) whatever --index-cache-mb says.
    if (!options.report_json.empty()) {
      report.trace = qc::util::Trace::Collect();
      qc::util::Trace::Disable();
    }
    return qc::api::FinishReport(options, report, status);
  }
};

ReportSink g_report;

/// If the shared budget tripped, report how and exit with its code.
int FinishIfTripped(qc::util::Budget* budget) {
  if (!budget->Stopped()) return 0;
  std::printf("\nstatus: %s (tour cut short)\n",
              std::string(qc::util::ToString(budget->status())).c_str());
  return g_report.Finish(*budget, budget->status());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qc;
  util::Rng rng(11);

  for (int i = 1; i < argc;) {
    std::string error;
    int consumed =
        api::ParseSessionFlag(argc, argv, i, &g_report.options, &error);
    if (consumed < 0) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (consumed == 0) {
      std::fprintf(stderr, "usage: %s%s\n", argv[0],
                   api::SessionFlagsUsage().c_str());
      return 1;
    }
    i += consumed;
  }
  auto budget_ptr = g_report.options.MakeBudget();
  util::Budget& budget = *budget_ptr;
  const int threads = g_report.options.threads;
  g_report.start = std::chrono::steady_clock::now();
  if (!g_report.options.report_json.empty()) util::Trace::Enable();

  // A sparse graph with some high-degree hubs: the friendly regime for the
  // Buss kernel.
  graph::Graph g = graph::SkewedGraph(400, 12, 0.8, 1, &rng);
  std::printf("graph: %d vertices, %d edges\n\n", g.num_vertices(),
              g.num_edges());

  // --- Vertex Cover: FPT via kernel + 2^k branching. The budget comes
  // from the maximal-matching 2-approximation, so a cover exists and the
  // branching descends greedily instead of exhausting 2^k.
  const int k = static_cast<int>(graph::TwoApproxVertexCover(g).size());
  util::Timer timer;
  graph::VertexCoverKernel kernel = graph::KernelizeVertexCover(g, k);
  std::printf("[vertex cover] Buss kernel for k = %d: %zu forced vertices, "
              "%zu residual vertices (%.2f ms)\n",
              k, kernel.forced.size(), kernel.kernel_vertices.size(),
              timer.Millis());
  // At a tight budget the high-degree rule actually fires: every hub with
  // degree > k' is forced into the cover.
  graph::VertexCoverKernel tight = graph::KernelizeVertexCover(g, 20);
  std::printf("[vertex cover] Buss kernel for k = 20: %zu forced hubs, "
              "verdict: %s\n",
              tight.forced.size(),
              tight.definitely_no ? "definitely no" : "undecided");
  timer.Reset();
  auto cover = graph::FindVertexCoverKernelized(g, k);
  std::printf("[vertex cover] kernelized 2^k branching: %s (%.2f ms)\n",
              cover ? "cover found" : "no cover <= k", timer.Millis());
  if (cover && !graph::IsVertexCover(g, *cover)) return 1;
  budget.Poll();  // Safe point between phases (the VC engines don't poll).
  if (int code = FinishIfTripped(&budget)) return code;

  // --- k-Path: randomized FPT via colour coding. ---
  timer.Reset();
  auto path = graph::FindKPathColorCoding(g, 7, &rng, /*rounds=*/0, threads,
                                          &budget);
  std::printf("[k-path]       colour coding, k = 7: %s (%.2f ms)\n",
              path ? "path found" : "none found", timer.Millis());
  if (int code = FinishIfTripped(&budget)) return code;
  if (path && !graph::IsSimplePath(g, *path)) return 1;

  // --- Treewidth DPs on a bounded-width instance. ---
  graph::Graph ktree = graph::RandomPartialKTree(200, 3, 0.85, &rng);
  timer.Reset();
  graph::ExactTreewidthResult exact_tw =
      graph::ExactTreewidth(graph::RandomPartialKTree(16, 3, 0.85, &rng), 24,
                            threads, &budget);
  std::printf("[treewidth]    exact DP on 16 vertices: width %d (%.2f ms)\n",
              exact_tw.treewidth, timer.Millis());
  if (int code = FinishIfTripped(&budget)) return code;
  graph::TreeDecomposition td = graph::HeuristicTreewidth(ktree).decomposition;
  graph::NiceTreeDecomposition ntd =
      graph::NiceTreeDecomposition::FromTreeDecomposition(td, ktree);
  timer.Reset();
  int mis = graph::MaxIndependentSetTreewidth(ktree, ntd);
  double mis_ms = timer.Millis();
  timer.Reset();
  int gamma = graph::MinDominatingSetTreewidth(ktree, ntd);
  double ds_ms = timer.Millis();
  std::printf("[treewidth]    width-%d graph on 200 vertices: alpha = %d "
              "(%.2f ms), gamma = %d (%.2f ms)\n",
              ntd.Width(), mis, mis_ms, gamma, ds_ms);

  // --- Contrast: Clique is W[1]-hard; brute force n^k is the state of the
  // art (Theorem 6.3), and it shows.
  graph::Graph dense = graph::RandomGnp(64, 0.5, &rng);
  for (int kc : {4, 6, 8}) {
    timer.Reset();
    auto clique = graph::FindKCliqueBruteForce(dense, kc);
    std::printf("[clique]       k = %d on G(64, .5): %s (%.2f ms)\n", kc,
                clique ? "found" : "none", timer.Millis());
  }
  std::printf("\n(vertex cover, k-path and the treewidth problems are FPT; "
              "clique's cost climbs with k — the FPT vs W[1] divide of "
              "Section 5)\n");
  return g_report.Finish(budget, budget.status());
}
