#include "util/run_report.h"

#include <cstdio>

#include "kernels/dispatch.h"
#include "util/json.h"

namespace qc::util {

namespace {

void WriteSpans(JsonWriter* w, const TraceNode& node) {
  w->BeginArray();
  for (const auto& [name, child] : node.children) {
    w->BeginObject();
    w->Key("name").String(name);
    w->Key("count").Uint(child.count);
    w->Key("total_ms").Double(static_cast<double>(child.total_ns) / 1e6);
    w->Key("children");
    WriteSpans(w, child);
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

void RunReport::FillBudget(const Budget& b, bool deadline_armed) {
  budget.deadline_armed = deadline_armed;
  budget.work_used = b.work_used();
  budget.work_limit = b.work_limit();
  budget.rows_used = b.rows_used();
  budget.row_limit = b.row_limit();
}

void RunReport::Emit(JsonWriter& w) const {
  w.BeginObject();
  w.Key("tool").String(tool);
  w.Key("status").String(ToString(status));
  w.Key("exit_code").Int(ExitCode(status));
  w.Key("threads").Int(threads);
  w.Key("wall_ms").Double(wall_ms);
  w.Key("budget").BeginObject();
  w.Key("deadline_armed").Bool(budget.deadline_armed);
  w.Key("work_used").Uint(budget.work_used);
  w.Key("work_limit").Uint(budget.work_limit);
  w.Key("rows_used").Uint(budget.rows_used);
  w.Key("row_limit").Uint(budget.row_limit);
  w.EndObject();
  WriteSection(w, "cache", cache);
  w.Key("stats").BeginObject();
  w.Key("simd_level")
      .String(kernels::SimdLevelName(kernels::ActiveSimdLevel()));
  w.Key("arena_high_water_bytes").Uint(stats.arena_high_water_bytes);
  w.EndObject();
  w.Key("counters").BeginObject();
  for (const auto& [key, value] : counters.items()) {
    if (!counters.IsGauge(key)) w.Key(key).Uint(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [key, value] : counters.items()) {
    if (counters.IsGauge(key)) w.Key(key).Uint(value);
  }
  w.EndObject();
  w.Key("spans");
  WriteSpans(&w, trace.root);
  if (server.present) {
    w.Key("server").BeginObject();
    w.Key("request_id").Uint(server.request_id);
    w.Key("queue_ms").Double(server.queue_ms);
    w.Key("snapshot_epoch").Uint(server.snapshot_epoch);
    w.EndObject();
  }
  if (planner.pattern != HybridPattern::kNone) {
    WriteSection(w, "planner", planner);
  }
  if (ivm) WriteSection(w, "ivm", *ivm);
  w.EndObject();
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  Emit(w);
  return w.Take();
}

bool RunReport::WriteJsonFile(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --report-json file %s\n", path.c_str());
    return false;
  }
  std::string json = ToJson();
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace qc::util
