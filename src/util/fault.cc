#include "util/fault.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace qc::util {

namespace {

/// ShouldFailFn installed into fault_hook::g_should_fail: routes header
/// injection sites to the global registry.
bool GlobalShouldFail(std::string_view point) {
  return FaultRegistry::Global().ShouldFail(point);
}

bool ParseU64(std::string_view value, std::uint64_t* out) {
  if (value.empty() || value.size() > 19) return false;
  std::uint64_t v = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// Probability literal: "0", "1", "0.25", ".5". Hand-rolled so a malformed
/// spec is rejected rather than strtod-guessed.
bool ParseProb(std::string_view value, double* out) {
  if (value.empty() || value.size() > 12) return false;
  double v = 0.0;
  std::size_t i = 0;
  while (i < value.size() && value[i] >= '0' && value[i] <= '9') {
    v = v * 10.0 + (value[i] - '0');
    ++i;
  }
  if (i < value.size()) {
    if (value[i] != '.') return false;
    ++i;
    if (i == value.size()) return false;
    double scale = 0.1;
    while (i < value.size()) {
      if (value[i] < '0' || value[i] > '9') return false;
      v += (value[i] - '0') * scale;
      scale *= 0.1;
      ++i;
    }
  }
  if (v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

}  // namespace

FaultRegistry::~FaultRegistry() {
  // Keep the global gate honest if a rule-holding test registry dies.
  if (active_.load(std::memory_order_relaxed)) {
    fault_hook::g_active.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool FaultRegistry::Configure(std::string_view spec, std::uint64_t seed,
                              std::string* error) {
  std::vector<Point> parsed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;

    std::size_t colon = entry.find(':');
    std::size_t eq = entry.find('=');
    if (colon == std::string_view::npos || eq == std::string_view::npos ||
        colon == 0 || eq < colon + 2 || eq + 1 >= entry.size()) {
      if (error != nullptr) {
        *error = "bad fault entry '" + std::string(entry) +
                 "' (want point:kind=value)";
      }
      return false;
    }
    std::string_view name = entry.substr(0, colon);
    std::string_view kind = entry.substr(colon + 1, eq - colon - 1);
    std::string_view value = entry.substr(eq + 1);

    Rule rule;
    bool ok = false;
    if (kind == "after") {
      rule.kind = Rule::Kind::kAfter;
      ok = ParseU64(value, &rule.n);
    } else if (kind == "once") {
      rule.kind = Rule::Kind::kOnce;
      ok = ParseU64(value, &rule.n) && rule.n >= 1;
    } else if (kind == "every") {
      rule.kind = Rule::Kind::kEvery;
      ok = ParseU64(value, &rule.n) && rule.n >= 1;
    } else if (kind == "prob") {
      rule.kind = Rule::Kind::kProb;
      ok = ParseProb(value, &rule.prob);
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "bad fault rule '" + std::string(entry) +
                 "' (kinds: after=N once=N every=N prob=P)";
      }
      return false;
    }

    Point* existing = nullptr;
    for (Point& p : parsed) {
      if (p.name == name) existing = &p;
    }
    if (existing == nullptr) {
      parsed.push_back(Point{std::string(name), rule, true, 0, 0});
    } else {
      existing->rule = rule;  // Last spec for a point wins.
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  // Carry stats across reconfiguration for points that survive.
  for (Point& p : parsed) {
    for (const Point& old : points_) {
      if (old.name == p.name) {
        p.evals = old.evals;
        p.fires = old.fires;
      }
    }
  }
  points_ = std::move(parsed);
  rng_ = seed != 0 ? seed : 1;  // Xorshift must never be seeded with 0.
  const bool now_active = !points_.empty();
  const bool was_active = active_.exchange(now_active,
                                           std::memory_order_relaxed);
  if (now_active != was_active) {
    // The hook pointer is published before the activity count so a site
    // that observes g_active > 0 always finds a callable hook.
    fault_hook::g_should_fail.store(&GlobalShouldFail,
                                    std::memory_order_release);
    fault_hook::g_active.fetch_add(now_active ? 1 : -1,
                                   std::memory_order_relaxed);
  }
  return true;
}

void FaultRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Point& p : points_) p.has_rule = false;
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [](const Point& p) {
                                 return p.evals == 0 && p.fires == 0;
                               }),
                points_.end());
  if (active_.exchange(false, std::memory_order_relaxed)) {
    fault_hook::g_active.fetch_sub(1, std::memory_order_relaxed);
  }
}

FaultRegistry::Point* FaultRegistry::FindLocked(std::string_view name) {
  for (Point& p : points_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

bool FaultRegistry::ShouldFail(std::string_view point) {
  if (!active()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  Point* p = FindLocked(point);
  if (p == nullptr || !p->has_rule) return false;
  ++p->evals;
  bool fire = false;
  switch (p->rule.kind) {
    case Rule::Kind::kAfter:
      fire = p->evals > p->rule.n;
      break;
    case Rule::Kind::kOnce:
      fire = p->evals == p->rule.n;
      break;
    case Rule::Kind::kEvery:
      fire = p->evals % p->rule.n == 0;
      break;
    case Rule::Kind::kProb: {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      // 53-bit mantissa draw in [0, 1).
      const double draw =
          static_cast<double>(rng_ >> 11) / 9007199254740992.0;
      fire = draw < p->rule.prob;
      break;
    }
  }
  if (fire) ++p->fires;
  return fire;
}

std::vector<FaultRegistry::PointStats> FaultRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PointStats> out;
  out.reserve(points_.size());
  for (const Point& p : points_) {
    if (p.evals == 0 && p.fires == 0) continue;
    out.push_back(PointStats{p.name, p.evals, p.fires});
  }
  std::sort(out.begin(), out.end(),
            [](const PointStats& a, const PointStats& b) {
              return a.point < b.point;
            });
  return out;
}

void FaultRegistry::ExportCounters(Counters* sink) const {
  for (const PointStats& p : stats()) {
    ExportFields(sink, "fault." + p.point + ".", p);
  }
}

void FaultRegistry::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Point& p : points_) {
    p.evals = 0;
    p.fires = 0;
  }
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [](const Point& p) { return !p.has_rule; }),
                points_.end());
}

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry* registry = [] {
    auto* r = new FaultRegistry();
    const char* spec = std::getenv("QC_FAULTS");
    if (spec != nullptr && spec[0] != '\0') {
      std::uint64_t seed = 1;
      const char* seed_env = std::getenv("QC_FAULT_SEED");
      if (seed_env != nullptr) {
        std::uint64_t parsed = 0;
        if (ParseU64(seed_env, &parsed)) seed = parsed;
      }
      std::string error;
      if (!r->Configure(spec, seed, &error)) {
        std::fprintf(stderr, "QC_FAULTS ignored: %s\n", error.c_str());
      }
    }
    return r;
  }();
  return *registry;
}

namespace {

/// Forces the QC_FAULTS env spec into the global registry at load time —
/// without this, the FaultsEnabled() fast path would short-circuit every
/// FaultPoint() before the lazy Global() ever read the environment.
const bool g_env_faults_loaded = [] {
  const char* spec = std::getenv("QC_FAULTS");
  if (spec != nullptr && spec[0] != '\0') FaultRegistry::Global();
  return true;
}();

}  // namespace

}  // namespace qc::util
