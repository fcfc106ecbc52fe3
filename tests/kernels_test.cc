// Property tests for the SIMD kernel layer (src/kernels/, DESIGN.md §12)
// and the util::Arena scratch allocator.
//
// The contract under test is bit-identity: every kernel variant (scalar /
// AVX2 / AVX-512 / galloping) must produce byte-identical outputs over
// randomized sizes, alignments, densities and adversarial skew, and the
// engines built on top (GenericJoin, Yannakakis, AcyclicEnumerator,
// BoolMatrix::Multiply) must return identical answers at every forced
// QC_SIMD level and thread count. Variants above the machine's best
// supported level are skipped, never failed.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/context.h"
#include "db/agm.h"
#include "db/database.h"
#include "db/enumeration.h"
#include "db/generic_join.h"
#include "db/hybrid_join.h"
#include "db/yannakakis.h"
#include "graph/boolmatrix.h"
#include "gtest/gtest.h"
#include "kernels/boolmm.h"
#include "kernels/dispatch.h"
#include "kernels/intersect.h"
#include "kernels/sort.h"
#include "util/arena.h"
#include "util/rng.h"

namespace qc {
namespace {

using kernels::SimdLevel;

/// Forces a kernel dispatch level for one scope and restores the previous
/// one on exit (ForceSimdLevel is process-global).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : prev_(kernels::ActiveSimdLevel()) {
    kernels::ForceSimdLevel(level);
  }
  ~ScopedSimdLevel() { kernels::ForceSimdLevel(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

/// Levels this machine can actually run, scalar first.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (kernels::BestSupportedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (kernels::BestSupportedSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

/// Strictly increasing values, possibly negative, drawn from a range whose
/// width controls the hit density against a second draw.
std::vector<std::int64_t> SortedUnique(std::size_t n, std::int64_t lo,
                                       std::int64_t hi, util::Rng* rng) {
  std::vector<std::int64_t> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng->NextInt(lo, hi));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

struct IntersectOut {
  std::size_t count = 0;
  std::vector<std::int32_t> pos_a, pos_b;
};

using IntersectFn = std::size_t (*)(const std::int64_t*, std::size_t,
                                    const std::int64_t*, std::size_t,
                                    std::int32_t*, std::int32_t*);

IntersectOut RunIntersect(IntersectFn fn, const std::vector<std::int64_t>& a,
                          const std::vector<std::int64_t>& b) {
  IntersectOut out;
  const std::size_t cap = std::min(a.size(), b.size()) + 1;
  out.pos_a.resize(cap);
  out.pos_b.resize(cap);
  out.count = fn(a.data(), a.size(), b.data(), b.size(), out.pos_a.data(),
                 out.pos_b.data());
  out.pos_a.resize(out.count);
  out.pos_b.resize(out.count);
  return out;
}

/// Checks `got` against the scalar reference and against first principles:
/// matched values ascending, positions pointing at equal elements.
void ExpectSameIntersection(const std::vector<std::int64_t>& a,
                            const std::vector<std::int64_t>& b,
                            const IntersectOut& ref, const IntersectOut& got,
                            const std::string& what) {
  ASSERT_EQ(got.count, ref.count) << what;
  ASSERT_EQ(got.pos_a, ref.pos_a) << what;
  ASSERT_EQ(got.pos_b, ref.pos_b) << what;
  for (std::size_t i = 0; i < got.count; ++i) {
    ASSERT_EQ(a[got.pos_a[i]], b[got.pos_b[i]]) << what << " at " << i;
    if (i > 0) {
      ASSERT_LT(a[got.pos_a[i - 1]], a[got.pos_a[i]]) << what << " at " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, AllocationsAreAlignedAndTracked) {
  util::Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.high_water_bytes(), 0u);
  for (std::size_t align : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    void* p = arena.Allocate(13, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
  }
  EXPECT_GE(arena.bytes_used(), 3 * 13u);
  EXPECT_EQ(arena.high_water_bytes(), arena.bytes_used());
  std::int64_t* xs = arena.AllocateArray<std::int64_t>(100);
  for (int i = 0; i < 100; ++i) xs[i] = i;  // Must be writable memory.
  EXPECT_EQ(xs[99], 99);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(xs) % alignof(std::int64_t), 0u);
}

TEST(ArenaTest, ResetRecyclesCapacityAndKeepsHighWater) {
  util::Arena arena;
  // Force growth past the first block.
  const std::size_t big = util::Arena::kMinBlockBytes * 3;
  arena.Allocate(util::Arena::kMinBlockBytes / 2);
  arena.Allocate(big);
  const std::size_t high = arena.high_water_bytes();
  EXPECT_GE(high, big);
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, big);

  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.high_water_bytes(), high);  // Survives the reset.
  // The retained block serves a same-sized allocation without growing.
  arena.Allocate(big / 2);
  EXPECT_LE(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, DistinctAllocationsDoNotOverlap) {
  util::Arena arena;
  std::vector<std::uint32_t*> ptrs;
  for (int i = 0; i < 64; ++i) {
    std::uint32_t* p = arena.AllocateArray<std::uint32_t>(97);
    std::fill(p, p + 97, static_cast<std::uint32_t>(i));
    ptrs.push_back(p);
  }
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 97; ++j) {
      ASSERT_EQ(ptrs[i][j], static_cast<std::uint32_t>(i)) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Intersection kernels

TEST(IntersectKernelTest, AllVariantsMatchScalarOnRandomInputs) {
  util::Rng rng(20260808);
  const SimdLevel best = kernels::BestSupportedSimdLevel();
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t na = rng.NextBounded(300);
    const std::size_t nb = rng.NextBounded(300);
    // Range width sweeps the hit density from ~100% overlap to sparse.
    const std::int64_t width =
        1 + static_cast<std::int64_t>(rng.NextBounded(1000));
    std::vector<std::int64_t> a = SortedUnique(na, -width, width, &rng);
    std::vector<std::int64_t> b = SortedUnique(nb, -width, width, &rng);

    IntersectOut ref =
        RunIntersect(kernels::IntersectPairPositionsScalar, a, b);
    ExpectSameIntersection(
        a, b, ref, RunIntersect(kernels::IntersectPairPositionsGallop, a, b),
        "gallop trial " + std::to_string(trial));
    if (best >= SimdLevel::kAvx2) {
      ExpectSameIntersection(
          a, b, ref, RunIntersect(kernels::IntersectPairPositionsAvx2, a, b),
          "avx2 trial " + std::to_string(trial));
    }
    if (best >= SimdLevel::kAvx512) {
      ExpectSameIntersection(
          a, b, ref,
          RunIntersect(kernels::IntersectPairPositionsAvx512, a, b),
          "avx512 trial " + std::to_string(trial));
    }
    ExpectSameIntersection(a, b, ref,
                           RunIntersect(kernels::IntersectPairPositions, a, b),
                           "dispatched trial " + std::to_string(trial));
  }
}

TEST(IntersectKernelTest, EdgeCases) {
  const std::vector<std::int64_t> empty;
  const std::vector<std::int64_t> one = {42};
  const std::vector<std::int64_t> other = {41};
  const std::vector<std::int64_t> run = {-3, -1, 0, 7, 9, 12, 40, 42, 99};
  for (IntersectFn fn :
       {static_cast<IntersectFn>(kernels::IntersectPairPositionsScalar),
        static_cast<IntersectFn>(kernels::IntersectPairPositionsGallop),
        static_cast<IntersectFn>(kernels::IntersectPairPositions)}) {
    EXPECT_EQ(RunIntersect(fn, empty, empty).count, 0u);
    EXPECT_EQ(RunIntersect(fn, empty, run).count, 0u);
    EXPECT_EQ(RunIntersect(fn, run, empty).count, 0u);
    EXPECT_EQ(RunIntersect(fn, one, other).count, 0u);
    IntersectOut hit = RunIntersect(fn, one, run);
    ASSERT_EQ(hit.count, 1u);
    EXPECT_EQ(hit.pos_a[0], 0);
    EXPECT_EQ(hit.pos_b[0], 7);
    // Identical inputs: everything matches, in place.
    IntersectOut self = RunIntersect(fn, run, run);
    ASSERT_EQ(self.count, run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(self.pos_a[i], static_cast<std::int32_t>(i));
      EXPECT_EQ(self.pos_b[i], static_cast<std::int32_t>(i));
    }
  }
}

TEST(IntersectKernelTest, MisalignedSpansMatchScalar) {
  // Trie level spans start at arbitrary node offsets, so the kernels must
  // not assume 32/64-byte alignment. Slice a shared buffer at every offset
  // modulo a vector width.
  util::Rng rng(77);
  std::vector<std::int64_t> pool = SortedUnique(4096, 0, 6000, &rng);
  const SimdLevel best = kernels::BestSupportedSimdLevel();
  for (std::size_t off_a = 0; off_a < 8; ++off_a) {
    for (std::size_t off_b = 0; off_b < 8; ++off_b) {
      std::vector<std::int64_t> a(pool.begin() + off_a,
                                  pool.begin() + off_a + 333);
      std::vector<std::int64_t> b(pool.begin() + off_b + 100,
                                  pool.begin() + off_b + 600);
      // Re-slice *views* into the same allocation to vary pointer alignment.
      const std::int64_t* ap = pool.data() + off_a;
      const std::int64_t* bp = pool.data() + off_b + 100;
      std::vector<std::int32_t> ref_a(333), ref_b(333), got_a(333), got_b(333);
      const std::size_t ref = kernels::IntersectPairPositionsScalar(
          ap, 333, bp, 500, ref_a.data(), ref_b.data());
      if (best >= SimdLevel::kAvx2) {
        const std::size_t got = kernels::IntersectPairPositionsAvx2(
            ap, 333, bp, 500, got_a.data(), got_b.data());
        ASSERT_EQ(got, ref) << off_a << "," << off_b;
        ASSERT_TRUE(std::equal(ref_a.begin(), ref_a.begin() + ref,
                               got_a.begin()));
        ASSERT_TRUE(std::equal(ref_b.begin(), ref_b.begin() + ref,
                               got_b.begin()));
      }
      if (best >= SimdLevel::kAvx512) {
        const std::size_t got = kernels::IntersectPairPositionsAvx512(
            ap, 333, bp, 500, got_a.data(), got_b.data());
        ASSERT_EQ(got, ref) << off_a << "," << off_b;
        ASSERT_TRUE(std::equal(ref_a.begin(), ref_a.begin() + ref,
                               got_a.begin()));
        ASSERT_TRUE(std::equal(ref_b.begin(), ref_b.begin() + ref,
                               got_b.begin()));
      }
    }
  }
}

TEST(IntersectKernelTest, ExtremeSkewTakesGallopAndMatches) {
  // 1000x skew: the dispatched kernel must route to galloping (in either
  // argument order) and still produce the scalar answer.
  util::Rng rng(5150);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t small_n = 8 + rng.NextBounded(56);
    std::vector<std::int64_t> big =
        SortedUnique(1000 * small_n, 0, 4'000'000, &rng);
    std::vector<std::int64_t> small;
    for (std::size_t i = 0; i < small_n; ++i) {
      // Half the probes hit, half miss.
      if (i % 2 == 0 && !big.empty()) {
        small.push_back(big[rng.NextBounded(big.size())]);
      } else {
        small.push_back(rng.NextInt(0, 4'000'000));
      }
    }
    std::sort(small.begin(), small.end());
    small.erase(std::unique(small.begin(), small.end()), small.end());

    IntersectOut ref =
        RunIntersect(kernels::IntersectPairPositionsScalar, small, big);
    ExpectSameIntersection(small, big, ref,
                           RunIntersect(kernels::IntersectPairPositions,
                                        small, big),
                           "skew small-first " + std::to_string(trial));
    IntersectOut ref_rev =
        RunIntersect(kernels::IntersectPairPositionsScalar, big, small);
    ExpectSameIntersection(big, small, ref_rev,
                           RunIntersect(kernels::IntersectPairPositions, big,
                                        small),
                           "skew big-first " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// Radix sort

TEST(RadixSortKernelTest, MatchesComparatorOnRandomRows) {
  util::Rng rng(31337);
  util::Arena arena;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t stride = 1 + rng.NextBounded(5);
    const std::size_t n = 1 + rng.NextBounded(3000);
    // Narrow domains produce heavy ties; wide ones exercise all key bytes.
    const std::int64_t width = (trial % 2 == 0)
                                   ? 8
                                   : (std::int64_t{1} << 40);
    std::vector<std::int64_t> rows(n * stride);
    for (auto& v : rows) v = rng.NextInt(-width, width);

    std::vector<std::int32_t> cols(stride);
    std::iota(cols.begin(), cols.end(), 0);
    std::vector<std::uint32_t> idx(n), want(n);
    std::iota(idx.begin(), idx.end(), 0u);
    want = idx;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return std::lexicographical_compare(
                           rows.begin() + x * stride,
                           rows.begin() + (x + 1) * stride,
                           rows.begin() + y * stride,
                           rows.begin() + (y + 1) * stride);
                     });
    util::Arena* scratch = trial % 2 == 0 ? &arena : nullptr;
    kernels::SortRowsByColumns(rows.data(), stride, n, cols.data(),
                               cols.size(), idx.data(), scratch);
    ASSERT_EQ(idx, want) << "trial " << trial;
    arena.Reset();
  }
}

TEST(RadixSortKernelTest, IsStableOnTiedKeys) {
  // Sort 2-column rows by column 0 only: rows with equal keys must keep
  // their incoming idx order — the enumerator's shared-cols-then-all-cols
  // ordering depends on this.
  util::Rng rng(99);
  const std::size_t n = 2000;
  std::vector<std::int64_t> rows(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    rows[i * 2] = static_cast<std::int64_t>(rng.NextBounded(7)) - 3;
    rows[i * 2 + 1] = static_cast<std::int64_t>(i);  // Identity tag.
  }
  std::vector<std::int32_t> cols = {0};
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  kernels::SortRowsByColumns(rows.data(), 2, n, cols.data(), 1, idx.data(),
                             nullptr);
  for (std::size_t i = 1; i < n; ++i) {
    const std::int64_t ka = rows[idx[i - 1] * 2], kb = rows[idx[i] * 2];
    ASSERT_LE(ka, kb) << "at " << i;
    if (ka == kb) ASSERT_LT(idx[i - 1], idx[i]) << "stability at " << i;
  }
}

// ---------------------------------------------------------------------------
// Boolean-OR kernels and BoolMatrix

TEST(BoolMmKernelTest, OrVariantsAreBitwiseIdentical) {
  util::Rng rng(4242);
  const SimdLevel best = kernels::BestSupportedSimdLevel();
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{64}, std::size_t{129}}) {
    std::vector<std::uint64_t> dst(n), src(n), s1(n), s2(n), s3(n);
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = rng.Next();
      src[i] = rng.Next();
      s1[i] = rng.Next();
      s2[i] = rng.Next();
      s3[i] = rng.Next();
    }
    std::vector<std::uint64_t> ref = dst;
    kernels::OrWordsScalar(ref.data(), src.data(), n);
    std::vector<std::uint64_t> got = dst;
    kernels::OrWords(got.data(), src.data(), n);
    EXPECT_EQ(got, ref) << "OrWords n=" << n;
    if (best >= SimdLevel::kAvx2) {
      got = dst;
      kernels::OrWordsAvx2(got.data(), src.data(), n);
      EXPECT_EQ(got, ref) << "OrWordsAvx2 n=" << n;
    }
    if (best >= SimdLevel::kAvx512) {
      got = dst;
      kernels::OrWordsAvx512(got.data(), src.data(), n);
      EXPECT_EQ(got, ref) << "OrWordsAvx512 n=" << n;
    }

    std::vector<std::uint64_t> ref4 = dst;
    kernels::OrWords4Scalar(ref4.data(), src.data(), s1.data(), s2.data(),
                            s3.data(), n);
    // OrWords4 == four sequential OrWords by definition.
    std::vector<std::uint64_t> seq = dst;
    for (const auto* s : {&src, &s1, &s2, &s3}) {
      kernels::OrWordsScalar(seq.data(), s->data(), n);
    }
    EXPECT_EQ(ref4, seq) << "OrWords4 decomposition n=" << n;
    got = dst;
    kernels::OrWords4(got.data(), src.data(), s1.data(), s2.data(), s3.data(),
                      n);
    EXPECT_EQ(got, ref4) << "OrWords4 n=" << n;
    if (best >= SimdLevel::kAvx2) {
      got = dst;
      kernels::OrWords4Avx2(got.data(), src.data(), s1.data(), s2.data(),
                            s3.data(), n);
      EXPECT_EQ(got, ref4) << "OrWords4Avx2 n=" << n;
    }
    if (best >= SimdLevel::kAvx512) {
      got = dst;
      kernels::OrWords4Avx512(got.data(), src.data(), s1.data(), s2.data(),
                              s3.data(), n);
      EXPECT_EQ(got, ref4) << "OrWords4Avx512 n=" << n;
    }
  }
}

TEST(BoolMmKernelTest, MultiplyIdenticalAcrossLevelsAndThreads) {
  util::Rng rng(888);
  const int n = 301;  // Not a multiple of 64: padding words in play.
  graph::BoolMatrix a(n, n), b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (rng.NextBounded(5) == 0) a.Set(i, j);
      if (rng.NextBounded(5) == 0) b.Set(i, j);
    }
  }
  graph::BoolMatrix ref(0, 0);
  {
    ScopedSimdLevel force(SimdLevel::kScalar);
    ref = a.Multiply(b, 1);
  }
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel force(level);
    for (int threads : {1, 2, 8}) {
      graph::BoolMatrix got = a.Multiply(b, threads);
      ASSERT_TRUE(got == ref) << "level=" << kernels::SimdLevelName(level)
                              << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine bit-identity across forced SIMD levels

/// Evaluates `q` against `d` with a forced kernel level and thread count,
/// routing scratch through a per-run arena exactly like api::ExecuteQuery.
/// Returns the columnar result; its rows must equal the row adapter's.
db::FlatJoinResult EvalGenericJoin(const db::JoinQuery& q,
                                   const db::Database& d, SimdLevel level,
                                   int threads) {
  ScopedSimdLevel force(level);
  util::Arena arena;
  ExecutionContext ctx;
  ctx.threads = threads;
  ctx.arena = &arena;
  db::FlatJoinResult flat = db::GenericJoin(q, d, ctx).EvaluateFlat();
  db::JoinResult rows = db::GenericJoin(q, d, ctx).Evaluate();
  EXPECT_EQ(flat.attributes, rows.attributes);
  EXPECT_EQ(flat.rows.ToRows(), rows.tuples);
  return flat;
}

TEST(EngineSimdIdentityTest, GenericJoinBitIdenticalAcrossLevelsAndThreads) {
  util::Rng rng(7070);
  std::vector<db::JoinQuery> queries;
  {  // Triangle: the two-holder SIMD path runs on the last attribute.
    db::JoinQuery q;
    q.atoms.push_back({"R1", {"a", "b"}});
    q.atoms.push_back({"R2", {"a", "c"}});
    q.atoms.push_back({"R3", {"b", "c"}});
    queries.push_back(q);
  }
  for (int i = 0; i < 3; ++i) {
    queries.push_back(db::RandomBinaryQuery(3 + i, 4, &rng));
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    // Dense domain so level spans are long enough to hit the kernel path.
    db::Database d = db::RandomDatabase(queries[qi], 900, 60, &rng);
    db::FlatJoinResult ref =
        EvalGenericJoin(queries[qi], d, SimdLevel::kScalar, 1);
    for (SimdLevel level : SupportedLevels()) {
      for (int threads : {1, 2, 8}) {
        db::FlatJoinResult got =
            EvalGenericJoin(queries[qi], d, level, threads);
        ASSERT_EQ(got.attributes, ref.attributes)
            << "query " << qi << " level " << kernels::SimdLevelName(level)
            << " threads " << threads;
        ASSERT_EQ(got.rows.data(), ref.rows.data())
            << "query " << qi << " level " << kernels::SimdLevelName(level)
            << " threads " << threads;
      }
    }
  }
}

TEST(EngineSimdIdentityTest, YannakakisAndEnumeratorIdenticalAcrossLevels) {
  util::Rng rng(6060);
  for (int trial = 0; trial < 3; ++trial) {
    db::JoinQuery q = db::RandomAcyclicQuery(4, 3, &rng);
    db::Database d = db::RandomDatabase(q, 600, 12, &rng);

    std::optional<db::JoinResult> ref;
    std::vector<db::Tuple> ref_stream;
    {
      ScopedSimdLevel force(SimdLevel::kScalar);
      ref = db::EvaluateYannakakis(q, d);
      db::AcyclicEnumerator en(q, d);
      ASSERT_TRUE(en.IsValid());
      while (auto t = en.Next()) ref_stream.push_back(*t);
    }
    ASSERT_TRUE(ref.has_value());

    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel force(level);
      util::Arena arena;
      std::optional<db::JoinResult> got =
          db::EvaluateYannakakis(q, d, nullptr, nullptr, nullptr, &arena);
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(got->attributes, ref->attributes)
          << kernels::SimdLevelName(level);
      ASSERT_EQ(got->tuples, ref->tuples) << kernels::SimdLevelName(level);

      db::AcyclicEnumerator en(q, d, nullptr, nullptr, &arena);
      ASSERT_TRUE(en.IsValid());
      std::vector<db::Tuple> stream;
      while (auto t = en.Next()) stream.push_back(*t);
      ASSERT_EQ(stream, ref_stream) << kernels::SimdLevelName(level);
    }
  }
}

TEST(EngineSimdIdentityTest, YannakakisMatchesReferenceAtEveryLevelAndThreads) {
  // The acyclic route is the full reducer plus one GenericJoin: its answers
  // equal the nested-loop reference and GenericJoin's after Normalize, even
  // over base relations with duplicate rows (set semantics), and the rows
  // come out identical at every SIMD level and thread count.
  util::Rng rng(6161);
  for (int trial = 0; trial < 4; ++trial) {
    db::JoinQuery q = db::RandomAcyclicQuery(3, 3, &rng);
    db::Database d = db::RandomDatabase(q, 40, 4, &rng);
    for (const std::string& name : d.RelationNames()) {
      const std::vector<db::Tuple> rows = d.Tuples(name);
      for (std::size_t i = 0; i < rows.size(); i += 3) {
        ASSERT_TRUE(d.AddTuple(name, rows[i]));
      }
    }
    db::JoinResult reference = db::EvaluateNestedLoop(q, d);
    reference.Normalize();
    db::JoinResult wcoj = db::GenericJoin(q, d).Evaluate();
    wcoj.Normalize();
    ASSERT_EQ(wcoj.tuples, reference.tuples);
    std::optional<db::JoinResult> first;
    for (SimdLevel level : SupportedLevels()) {
      ScopedSimdLevel force(level);
      for (int threads : {1, 2, 8}) {
        ExecutionContext ctx;
        ctx.threads = threads;
        std::optional<db::JoinResult> got = db::EvaluateYannakakis(q, d, ctx);
        ASSERT_TRUE(got.has_value());
        std::optional<db::FlatJoinResult> flat =
            db::EvaluateYannakakisFlat(q, d, ctx);
        ASSERT_TRUE(flat.has_value());
        EXPECT_EQ(flat->attributes, got->attributes);
        EXPECT_EQ(flat->rows.ToRows(), got->tuples);
        if (!first.has_value()) first = got;
        EXPECT_EQ(got->attributes, q.AttributeOrder());
        EXPECT_EQ(got->tuples, first->tuples)
            << "trial " << trial << " level "
            << kernels::SimdLevelName(level) << " threads " << threads;
        db::JoinResult normalized = *got;
        normalized.Normalize();
        EXPECT_EQ(normalized.tuples.size(), got->tuples.size())
            << "duplicate answers";
        EXPECT_EQ(normalized.tuples, reference.tuples);
      }
    }
  }
}

TEST(EngineSimdIdentityTest, HybridMergeFlatMatchesRowsAndReference) {
  // The hybrid's merge sorts the light and heavy parts in flat storage;
  // the result equals the row adapter, GenericJoin and the nested-loop
  // reference at every SIMD level and thread count.
  db::JoinQuery q;
  q.atoms.push_back({"R1", {"a", "b"}});
  q.atoms.push_back({"R2", {"a", "c"}});
  q.atoms.push_back({"R3", {"b", "c"}});
  util::Rng rng(8080);
  db::Database d = db::RandomDatabase(q, 300, 24, &rng);
  db::JoinResult reference = db::EvaluateNestedLoop(q, d);
  reference.Normalize();
  ASSERT_FALSE(reference.tuples.empty());
  for (SimdLevel level : SupportedLevels()) {
    ScopedSimdLevel force(level);
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(kernels::SimdLevelName(level)) + " threads " +
                   std::to_string(threads));
      ExecutionContext ctx;
      ctx.threads = threads;
      db::HybridJoin flat_join(q, d, ctx, /*delta=*/12);
      ASSERT_FALSE(flat_join.plan().delegated);
      db::FlatJoinResult flat = flat_join.EvaluateFlat();
      EXPECT_GT(flat_join.plan().heavy_rows, 0u);
      EXPECT_GT(flat_join.plan().light_rows, 0u);
      db::JoinResult rows = db::HybridJoin(q, d, ctx, 12).Evaluate();
      EXPECT_EQ(flat.attributes, rows.attributes);
      EXPECT_EQ(flat.rows.ToRows(), rows.tuples);
      EXPECT_EQ(rows.tuples, reference.tuples);
      EXPECT_EQ(rows.tuples, db::GenericJoin(q, d, ctx).Evaluate().tuples);
    }
  }
}

TEST(EngineSimdIdentityTest, SimdBlockCounterTracksDispatchedPath) {
  // Under a forced scalar level the engine must take the historical
  // leapfrog (simd_blocks == 0); under any wider level on a dense pair
  // join the blocked path must actually run.
  db::JoinQuery q;
  q.atoms.push_back({"R1", {"a", "b"}});
  q.atoms.push_back({"R2", {"a", "b"}});
  util::Rng rng(11);
  db::Database d = db::RandomDatabase(q, 4000, 200, &rng);

  {
    ScopedSimdLevel force(SimdLevel::kScalar);
    db::GenericJoin join(q, d, ExecutionContext());
    (void)join.Evaluate();
    EXPECT_EQ(join.stats().simd_blocks, 0u);
  }
  if (kernels::BestSupportedSimdLevel() >= SimdLevel::kAvx2) {
    ScopedSimdLevel force(kernels::BestSupportedSimdLevel());
    db::GenericJoin join(q, d, ExecutionContext());
    (void)join.Evaluate();
    EXPECT_GT(join.stats().simd_blocks, 0u);
  }
}

}  // namespace
}  // namespace qc
