// Differential tests for the SIMD dispatch layer (docs/simd.md): the AVX2
// kernels must be indistinguishable from their scalar reference twins on
// results AND on every deterministic ExecStats counter. Tests that need the
// AVX2 arm GTEST_SKIP on hosts (or forced-scalar builds) where it is
// unavailable, so the whole file stays green on both CI lanes.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "data/database.h"
#include "data/generators.h"
#include "data/relation.h"
#include "engine/engine.h"
#include "tests/test_util.h"
#include "trie/leapfrog.h"
#include "trie/trie.h"
#include "util/simd.h"

namespace clftj {
namespace {

using testing::CollectTuples;
using testing::Q;
using testing::SmallSkewedDb;

// Restores the process-wide dispatch mode (and Normalize parallelism) on
// scope exit so tests cannot leak configuration into each other.
class DispatchGuard {
 public:
  DispatchGuard()
      : mode_(simd::CurrentMode()), threads_(NormalizeParallelism()) {}
  ~DispatchGuard() {
    simd::SetMode(mode_);
    SetNormalizeParallelism(threads_);
  }

 private:
  simd::Mode mode_;
  int threads_;
};

// The sequential gallop + classic binary search both arms are charged
// against (mirrors ScalarGallopLowerBound in trie_test.cc).
std::size_t ReferenceLowerBound(const std::vector<Value>& vals,
                                std::size_t pos, std::size_t end, Value bound,
                                std::uint64_t* comparisons) {
  std::uint64_t cmp = 0;
  std::size_t lo = pos;
  std::size_t step = 1;
  std::size_t hi = std::min(end, lo + step);
  while (hi < end && vals[hi] < bound) {
    ++cmp;
    lo = hi;
    step <<= 1;
    hi = std::min(end, lo + step);
  }
  if (hi < end) ++cmp;
  std::size_t first = lo + 1;
  std::size_t count = hi - lo - 1;
  while (count > 0) {
    ++cmp;
    const std::size_t half = count >> 1;
    const std::size_t mid = first + half;
    if (vals[mid] < bound) {
      first = mid + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  *comparisons += cmp;
  return first;
}

// One differential case: both arms (and the sequential reference) must
// agree on the result index and the charged probe count. The AVX2 arm is
// reached through its kernel table (never a direct symbol reference, which
// would not link on forced-scalar builds).
void CheckSeekCase(const std::vector<Value>& vals, std::size_t pos,
                   std::size_t end, Value bound) {
  ASSERT_LT(pos, end);
  ASSERT_LT(vals[pos], bound);
  const simd::Kernels* avx2 = simd::Avx2KernelsOrNull();
  ASSERT_NE(avx2, nullptr);
  std::uint64_t scalar_cmp = 0;
  const std::size_t scalar_idx =
      GallopingLowerBound(vals.data(), pos, end, bound, &scalar_cmp);
  std::uint64_t avx2_cmp = 0;
  const std::size_t avx2_idx =
      avx2->seek_lower_bound(vals.data(), pos, end, bound, &avx2_cmp);
  ASSERT_EQ(scalar_idx, avx2_idx)
      << "pos=" << pos << " end=" << end << " bound=" << bound;
  ASSERT_EQ(scalar_cmp, avx2_cmp)
      << "pos=" << pos << " end=" << end << " bound=" << bound;
  std::uint64_t ref_cmp = 0;
  ASSERT_EQ(ReferenceLowerBound(vals, pos, end, bound, &ref_cmp), avx2_idx);
  ASSERT_EQ(ref_cmp, avx2_cmp);
}

TEST(SimdSeek, RandomizedDifferential) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  std::mt19937_64 rng(20260808);
  int cases = 0;
  while (cases < 10000) {
    // Mix tiny ranges (where the clamped edge probes dominate) with runs
    // long enough to reach several gallop rounds and a deep binary tail.
    const std::size_t n = 1 + rng() % (cases % 3 == 0 ? 9 : 3000);
    std::vector<Value> vals(n);
    const Value stride = 1 + static_cast<Value>(rng() % 7);
    Value v = static_cast<Value>(rng() % 100);
    for (std::size_t i = 0; i < n; ++i) {
      v += (rng() % 3 == 0) ? 0 : (1 + static_cast<Value>(rng() % stride));
      vals[i] = v;
    }
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    const std::size_t end = vals.size();
    const std::size_t pos = rng() % end;
    // Bound strictly above vals[pos]; occasionally past the maximum so the
    // all-below-bound / bound-past-end paths get continuous coverage.
    Value bound;
    if (cases % 5 == 0) {
      bound = vals.back() + 1 + static_cast<Value>(rng() % 10);
    } else {
      const Value lo = vals[pos] + 1;
      const Value hi = vals.back() + 2;
      bound = lo + static_cast<Value>(rng() % static_cast<std::uint64_t>(
                                                  hi - lo + 1));
    }
    if (vals[pos] >= bound) continue;  // precondition guard
    CheckSeekCase(vals, pos, end, bound);
    if (::testing::Test::HasFatalFailure()) return;
    ++cases;
  }
}

TEST(SimdSeek, EdgeCases) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  // Dense run, bound just past the end: every gallop probe lands in-range
  // and succeeds until the clamp.
  std::vector<Value> dense(1000);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = static_cast<Value>(i);
  }
  CheckSeekCase(dense, 0, dense.size(), 1000);   // all below bound
  CheckSeekCase(dense, 0, dense.size(), 999);    // last element exactly
  CheckSeekCase(dense, 997, dense.size(), 999);  // clamped edge, tiny range
  CheckSeekCase(dense, 998, dense.size(), 1000);
  // Two-element and one-past cases.
  const std::vector<Value> tiny = {5, 9};
  CheckSeekCase(tiny, 0, tiny.size(), 6);
  CheckSeekCase(tiny, 0, tiny.size(), 9);
  CheckSeekCase(tiny, 0, tiny.size(), 10);
  CheckSeekCase(tiny, 1, tiny.size(), 100);
  const std::vector<Value> one = {3};
  CheckSeekCase(one, 0, one.size(), 4);
  // Exact powers of two around the probe offsets 2s-1..16s-1.
  for (const std::size_t n : {2u, 3u, 4u, 7u, 8u, 15u, 16u, 17u, 31u, 32u,
                              33u, 255u, 256u, 257u}) {
    std::vector<Value> vals(n);
    for (std::size_t i = 0; i < n; ++i) vals[i] = static_cast<Value>(2 * i);
    for (const std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
      for (const Value bound : {static_cast<Value>(2 * n - 3),
                                static_cast<Value>(2 * n)}) {
        if (vals[pos] < bound) CheckSeekCase(vals, pos, n, bound);
      }
    }
  }
}

TEST(SimdFilter, RandomizedDifferential) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  const simd::Kernels* avx2 = simd::Avx2KernelsOrNull();
  ASSERT_NE(avx2, nullptr);
  std::mt19937_64 rng(424242);
  for (int c = 0; c < 300; ++c) {
    const std::size_t rows = rng() % 200;  // covers tails of every length
    const int ncols = 1 + static_cast<int>(rng() % 4);
    std::vector<std::vector<Value>> cols(ncols);
    for (auto& col : cols) {
      col.resize(rows);
      for (auto& x : col) x = static_cast<Value>(rng() % 5);  // dense ties
    }
    std::vector<simd::ConstPredicate> consts;
    std::vector<simd::EqPredicate> eqs;
    if (rng() % 2 == 0) {
      consts.push_back(
          {cols[0].data(), static_cast<Value>(rng() % 5)});
    }
    if (ncols >= 2 && rng() % 2 == 0) {
      eqs.push_back({cols[0].data(), cols[1].data()});
    }
    if (ncols >= 3 && rng() % 3 == 0) {
      consts.push_back({cols[2].data(), static_cast<Value>(rng() % 5)});
    }
    const simd::RowFilter filter = {consts.data(), consts.size(), eqs.data(),
                                    eqs.size()};
    std::vector<std::uint32_t> scalar_keep;
    simd::ScalarKernels().filter_rows(filter, rows, &scalar_keep);
    std::vector<std::uint32_t> avx2_keep;
    avx2->filter_rows(filter, rows, &avx2_keep);
    ASSERT_EQ(scalar_keep, avx2_keep) << "case " << c << " rows=" << rows;
  }
}

// Scalar and AVX2 dedup kernels must produce bit-identical keep lists: the
// same surviving indices in the same ascending order, whatever the mix of
// adjacent duplicates along the permutation.
void CheckDedupCase(const std::vector<std::vector<Value>>& cols,
                    const std::vector<std::size_t>& order) {
  const simd::Kernels* avx2 = simd::Avx2KernelsOrNull();
  ASSERT_NE(avx2, nullptr);
  std::vector<const Value*> ptrs;
  for (const auto& col : cols) ptrs.push_back(col.data());
  std::vector<std::size_t> scalar_keep;
  simd::ScalarKernels().dedup_rows(ptrs.data(), static_cast<int>(ptrs.size()),
                                   order.data(), order.size(), &scalar_keep);
  std::vector<std::size_t> avx2_keep;
  avx2->dedup_rows(ptrs.data(), static_cast<int>(ptrs.size()), order.data(),
                   order.size(), &avx2_keep);
  ASSERT_EQ(scalar_keep, avx2_keep) << "n=" << order.size();
}

TEST(SimdDedup, RandomizedDifferential) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  std::mt19937_64 rng(20260808);
  for (int c = 0; c < 500; ++c) {
    const std::size_t rows = rng() % 300;  // covers every tail length
    const int ncols = 1 + static_cast<int>(rng() % 4);
    std::vector<std::vector<Value>> cols(ncols);
    for (auto& col : cols) {
      col.resize(rows);
      // Dense ties so adjacent-equal runs of every length occur.
      for (auto& x : col) x = static_cast<Value>(rng() % 4);
    }
    std::vector<std::size_t> order(rows);
    for (std::size_t i = 0; i < rows; ++i) order[i] = i;
    // Normalize hands the kernel a sort permutation; the contract only
    // needs adjacent comparisons, so any permutation is a valid case.
    if (rng() % 2 == 0) {
      std::shuffle(order.begin(), order.end(), rng);
    } else {
      std::sort(order.begin(), order.end(),
                [&cols](std::size_t a, std::size_t b) {
                  for (const auto& col : cols) {
                    if (col[a] != col[b]) return col[a] < col[b];
                  }
                  return false;
                });
    }
    CheckDedupCase(cols, order);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SimdDedup, EdgeCases) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  // Empty input: both arms must keep nothing.
  CheckDedupCase({{}}, {});
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u}) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    // All-equal rows: only the first survives.
    CheckDedupCase({std::vector<Value>(n, 7)}, order);
    // All-distinct rows: everything survives.
    std::vector<Value> distinct(n);
    for (std::size_t i = 0; i < n; ++i) distinct[i] = static_cast<Value>(i);
    CheckDedupCase({distinct}, order);
    // Equal in the first column, breaking ties in the second — exercises
    // the per-column early-break.
    std::vector<Value> ties(n, 3);
    CheckDedupCase({ties, distinct}, order);
    CheckDedupCase({ties, ties}, order);
  }
}

// A filtered atom (constant + repeated variable) builds bit-identical tries
// under both dispatch arms.
TEST(SimdFilter, AtomViewTrieIdentical) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  DispatchGuard guard;
  Database db = SmallSkewedDb(7, 80, 4);
  const Query q = Q("E(x,x), E(x,y)");
  const std::vector<int> var_rank = {0, 1};
  ASSERT_TRUE(simd::SetMode(simd::Mode::kScalar));
  const AtomView scalar_view =
      BuildAtomView(db.Get("E"), q.atoms()[0], var_rank);
  ASSERT_TRUE(simd::SetMode(simd::Mode::kAvx2));
  const AtomView avx2_view =
      BuildAtomView(db.Get("E"), q.atoms()[0], var_rank);
  ASSERT_EQ(scalar_view.trie->depth(), avx2_view.trie->depth());
  ASSERT_EQ(scalar_view.trie->num_tuples(), avx2_view.trie->num_tuples());
  for (int l = 0; l < scalar_view.trie->depth(); ++l) {
    ASSERT_EQ(scalar_view.trie->values(l), avx2_view.trie->values(l));
    if (l + 1 < scalar_view.trie->depth()) {
      ASSERT_EQ(scalar_view.trie->starts(l), avx2_view.trie->starts(l));
    }
  }
}

Relation DirtyRelation(std::uint64_t seed, std::size_t rows) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Value>> cols(2);
  for (auto& col : cols) {
    col.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      col.push_back(static_cast<Value>(rng() % (rows / 4 + 1)));
    }
  }
  return Relation::FromColumns("R", std::move(cols));
}

TEST(SimdNormalize, ShardedMatchesSerial) {
  DispatchGuard guard;
  // Above the internal shard floor (4096 rows) with plenty of duplicates,
  // so the sharded path, the merge tree and the dedup all engage.
  for (const std::size_t rows : {std::size_t{5000}, std::size_t{70000}}) {
    Relation serial = DirtyRelation(rows, rows);
    Relation sharded = serial;
    SetNormalizeParallelism(1);
    serial.Normalize();
    SetNormalizeParallelism(4);
    sharded.Normalize();
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 1; i < sharded.size(); ++i) {
      ASSERT_LT(sharded.TupleAt(i - 1), sharded.TupleAt(i));  // sorted set
    }
    for (int c = 0; c < serial.arity(); ++c) {
      const ColumnSpan a = serial.Column(c);
      const ColumnSpan b = sharded.Column(c);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "rows=" << rows << " col=" << c;
    }
  }
}

TEST(SimdDedup, NormalizeBitIdenticalAcrossArms) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  DispatchGuard guard;
  for (const std::size_t rows : {std::size_t{257}, std::size_t{6000}}) {
    Relation scalar_rel = DirtyRelation(rows, rows);
    Relation avx2_rel = scalar_rel;
    ASSERT_TRUE(simd::SetMode(simd::Mode::kScalar));
    scalar_rel.Normalize();
    ASSERT_TRUE(simd::SetMode(simd::Mode::kAvx2));
    avx2_rel.Normalize();
    ASSERT_EQ(scalar_rel.size(), avx2_rel.size());
    for (int c = 0; c < scalar_rel.arity(); ++c) {
      const ColumnSpan a = scalar_rel.Column(c);
      const ColumnSpan b = avx2_rel.Column(c);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "rows=" << rows << " col=" << c;
    }
  }
}

TEST(SimdNormalize, ShardedInvalidatesStats) {
  DispatchGuard guard;
  SetNormalizeParallelism(4);
  Relation rel = DirtyRelation(99, 6000);
  rel.Stats(0);
  const std::uint64_t before = rel.stats_builds();
  rel.Normalize();  // sharded path must invalidate the memo like serial
  rel.Stats(0);
  EXPECT_EQ(rel.stats_builds(), before + 1);
}

TEST(SimdNormalize, ParallelismSettingClamps) {
  DispatchGuard guard;
  SetNormalizeParallelism(100);
  EXPECT_EQ(NormalizeParallelism(), 16);
  SetNormalizeParallelism(-3);
  EXPECT_EQ(NormalizeParallelism(), 0);  // negative restores auto
  SetNormalizeParallelism(2);
  EXPECT_EQ(NormalizeParallelism(), 2);
}

// Deterministic counters only: the two _ns fields are wall clock.
void ExpectStatsIdentical(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.intermediate_tuples, b.intermediate_tuples);
  EXPECT_EQ(a.output_tuples, b.output_tuples);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.cache_inserts, b.cache_inserts);
  EXPECT_EQ(a.cache_rejects, b.cache_rejects);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.cache_entries_peak, b.cache_entries_peak);
  EXPECT_EQ(a.cache_bytes_peak, b.cache_bytes_peak);
  EXPECT_EQ(a.plan_cache_hits, b.plan_cache_hits);
  EXPECT_EQ(a.plan_cache_misses, b.plan_cache_misses);
  EXPECT_EQ(a.substrate_builds, b.substrate_builds);
  EXPECT_EQ(a.substrate_reuses, b.substrate_reuses);
}

// Full-engine bit-identity: same tuples, same deterministic counters,
// whichever dispatch arm runs — across engines, thread counts, and a
// post-delta (merged 3-cursor overlay) pass. CLFTJ-P at two or more
// threads shares one cache table among its workers, so its hit/miss split
// (and with it every traversal counter) depends on thread timing even on
// one arm; for those configurations the tuples and result counts are
// compared, and the counters through the one-thread configuration, which
// runs the same run-state code.
TEST(SimdDispatch, EnginesBitIdenticalAcrossArms) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 arm unavailable";
  DispatchGuard guard;
  const Query q = Q("E(x,y), E(y,z), E(x,z)");
  const DeltaBatch batch = {"E", {{1, 2}, {2, 3}, {1, 3}, {0, 5}}, {{0, 1}}};
  struct Config {
    const char* engine;
    int threads;
  };
  const Config configs[] = {
      {"LFTJ", 1}, {"CLFTJ", 1}, {"CLFTJ-P", 1}, {"CLFTJ-P", 2},
      {"CLFTJ-P", 8},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(::testing::Message()
                 << config.engine << " threads=" << config.threads);
    std::vector<Tuple> tuples[2];
    ExecStats cold[2], warm[2];
    for (int arm = 0; arm < 2; ++arm) {
      ASSERT_TRUE(simd::SetMode(arm == 0 ? simd::Mode::kScalar
                                         : simd::Mode::kAvx2));
      Database db = SmallSkewedDb(11, 70, 3);
      EngineOptions options;
      options.threads = config.threads;
      const auto engine = MakeEngine(config.engine, options);
      RunResult r = engine->Count(q, db, RunLimits{});
      ASSERT_TRUE(r.ok());
      cold[arm] = r.stats;
      // Delta pass: exercises the merged 3-cursor overlay seeks.
      ASSERT_TRUE(db.ApplyDelta(batch));
      tuples[arm] = CollectTuples(*engine, q, db);
      r = engine->Count(q, db, RunLimits{});
      ASSERT_TRUE(r.ok());
      warm[arm] = r.stats;
    }
    EXPECT_EQ(tuples[0], tuples[1]);
    if (config.threads >= 2) {
      EXPECT_EQ(cold[0].output_tuples, cold[1].output_tuples);
      EXPECT_EQ(warm[0].output_tuples, warm[1].output_tuples);
      continue;
    }
    ExpectStatsIdentical(cold[0], cold[1]);
    ExpectStatsIdentical(warm[0], warm[1]);
  }
}

TEST(SimdDispatch, ModeRoundTrip) {
  DispatchGuard guard;
  simd::Mode mode;
  EXPECT_TRUE(simd::ParseMode("auto", &mode));
  EXPECT_EQ(mode, simd::Mode::kAuto);
  EXPECT_TRUE(simd::ParseMode("avx2", &mode));
  EXPECT_EQ(mode, simd::Mode::kAvx2);
  EXPECT_TRUE(simd::ParseMode("scalar", &mode));
  EXPECT_EQ(mode, simd::Mode::kScalar);
  EXPECT_FALSE(simd::ParseMode("sse9", &mode));
  ASSERT_TRUE(simd::SetMode(simd::Mode::kScalar));
  EXPECT_EQ(simd::CurrentMode(), simd::Mode::kScalar);
  EXPECT_STREQ(simd::Active().name, "scalar");
  if (simd::Avx2Available()) {
    ASSERT_TRUE(simd::SetMode(simd::Mode::kAvx2));
    EXPECT_STREQ(simd::Active().name, "avx2");
    ASSERT_TRUE(simd::SetMode(simd::Mode::kAuto));
    EXPECT_STREQ(simd::Active().name, "avx2");  // auto resolves to AVX2
  } else {
    EXPECT_FALSE(simd::SetMode(simd::Mode::kAvx2));
    // A refused SetMode must leave the previous mode in place.
    EXPECT_EQ(simd::CurrentMode(), simd::Mode::kScalar);
    ASSERT_TRUE(simd::SetMode(simd::Mode::kAuto));
    EXPECT_STREQ(simd::Active().name, "scalar");
  }
  EXPECT_FALSE(simd::Describe().empty());
}

}  // namespace
}  // namespace clftj
