#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "clftj/cached_trie_join.h"
#include "clftj/semiring.h"
#include "query/patterns.h"
#include "tests/test_util.h"

namespace clftj {
namespace {

using ::clftj::testing::Q;
using ::clftj::testing::ReferenceTuples;
using ::clftj::testing::SmallSkewedDb;

constexpr int kThreadCounts[] = {1, 2, 4};

// Edge weight derived deterministically from the atom's endpoint values so
// brute force and the engine agree without shared state. Its 0.01 steps
// are not dyadic, so RealSemiring sums round differently under another
// grouping of the additions.
double EdgeWeight(const Query& q, AtomId a, const Tuple& mu) {
  double w = 1.0;
  for (const Term& t : q.atom(a).terms) {
    if (t.is_variable) w += 0.01 * static_cast<double>(mu[t.var] % 17);
  }
  return w;
}

// A weight in 1/16 steps: sums and products of a few of them are exact in
// a double, so the max-plus and min-plus optima must match brute force
// exactly whatever order the engine adds them in.
double DyadicWeight(const Query& q, AtomId a, const Tuple& mu) {
  double w = 1.0;
  for (const Term& t : q.atom(a).terms) {
    if (t.is_variable) w += static_cast<double>(mu[t.var] % 17) / 16.0;
  }
  return w;
}

using WeightOf = double (*)(const Query&, AtomId, const Tuple&);

template <typename S>
WeightFn<S> Weigh(const Query& q, WeightOf weight) {
  return [&q, weight](AtomId a, const Tuple& mu) {
    return static_cast<typename S::Value>(weight(q, a, mu));
  };
}

// Brute-force semiring aggregate over the reference tuple set.
template <typename S>
typename S::Value BruteAggregate(const Query& q, const Database& db,
                                 WeightOf weight = EdgeWeight) {
  typename S::Value total = S::Zero();
  for (const Tuple& t : ReferenceTuples(q, db)) {
    typename S::Value prod = S::One();
    for (AtomId a = 0; a < q.num_atoms(); ++a) {
      prod = S::Times(prod, static_cast<typename S::Value>(weight(q, a, t)));
    }
    total = S::Plus(total, prod);
  }
  return total;
}

CachedTrieJoin Engine(int threads, CachedTrieJoin::Options options = {}) {
  options.threads = threads;
  return CachedTrieJoin(std::move(options));
}

template <typename S>
typename S::Value AggregateOk(CachedTrieJoin& engine, const Query& q,
                              const Database& db,
                              const WeightFn<S>& weight = nullptr) {
  typename S::Value value = S::Zero();
  const RunResult run = engine.Aggregate<S>(q, db, weight, {}, &value);
  EXPECT_EQ(run.status, RunStatus::kOk) << q.ToString();
  return value;
}

void ExpectRealNear(double got, double expected, const std::string& label) {
  EXPECT_NEAR(got, expected, 1e-6 * std::max(1.0, std::fabs(expected)))
      << label;
}

TEST(Aggregate, CountingSemiringMatchesCount) {
  const Database db = SmallSkewedDb(101, 50, 3);
  for (const Query& q : {PathQuery(4), CycleQuery(4), LollipopQuery(3, 2)}) {
    CachedTrieJoin counter;
    const std::uint64_t anchor = counter.Count(q, db, {}).count;
    for (const int threads : kThreadCounts) {
      CachedTrieJoin engine = Engine(threads);
      EXPECT_EQ(AggregateOk<CountingSemiring>(engine, q, db), anchor)
          << q.ToString() << " threads=" << threads;
    }
  }
}

TEST(Aggregate, EverySemiringMatchesBruteForceAtEveryWorkerCount) {
  const Database db = SmallSkewedDb(117, 50, 3);
  for (const Query& q : {PathQuery(4), CycleQuery(4), LollipopQuery(3, 2)}) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          q.ToString() + " threads=" + std::to_string(threads);
      CachedTrieJoin engine = Engine(threads);
      EXPECT_EQ(AggregateOk<CountingSemiring>(
                    engine, q, db, Weigh<CountingSemiring>(q, DyadicWeight)),
                BruteAggregate<CountingSemiring>(q, db, DyadicWeight))
          << label;
      EXPECT_EQ(AggregateOk<MaxPlusSemiring>(
                    engine, q, db, Weigh<MaxPlusSemiring>(q, DyadicWeight)),
                BruteAggregate<MaxPlusSemiring>(q, db, DyadicWeight))
          << label;
      EXPECT_EQ(AggregateOk<MinPlusSemiring>(
                    engine, q, db, Weigh<MinPlusSemiring>(q, DyadicWeight)),
                BruteAggregate<MinPlusSemiring>(q, db, DyadicWeight))
          << label;
      EXPECT_EQ(AggregateOk<BooleanSemiring>(
                    engine, q, db, Weigh<BooleanSemiring>(q, DyadicWeight)),
                BruteAggregate<BooleanSemiring>(q, db, DyadicWeight))
          << label;
      // ⊕ over morsels regroups the floating-point additions.
      ExpectRealNear(AggregateOk<RealSemiring>(
                         engine, q, db, Weigh<RealSemiring>(q, EdgeWeight)),
                     BruteAggregate<RealSemiring>(q, db, EdgeWeight), label);
    }
  }
}

TEST(Aggregate, RealSemiringMatchesBruteForce) {
  const Database db = SmallSkewedDb(103, 40, 2);
  for (const Query& q : {PathQuery(3), PathQuery(4), CycleQuery(4)}) {
    const double expected = BruteAggregate<RealSemiring>(q, db);
    for (const int threads : kThreadCounts) {
      CachedTrieJoin engine = Engine(threads);
      ExpectRealNear(AggregateOk<RealSemiring>(
                         engine, q, db, Weigh<RealSemiring>(q, EdgeWeight)),
                     expected,
                     q.ToString() + " threads=" + std::to_string(threads));
    }
  }
}

TEST(Aggregate, MaxPlusFindsHeaviestInstance) {
  const Database db = SmallSkewedDb(105, 40, 2);
  const Query q = PathQuery(4);
  // Brute force: max over tuples of the sum of atom weights.
  double expected = -std::numeric_limits<double>::infinity();
  for (const Tuple& t : ReferenceTuples(q, db)) {
    double sum = 0;
    for (AtomId a = 0; a < q.num_atoms(); ++a) sum += EdgeWeight(q, a, t);
    expected = std::max(expected, sum);
  }
  for (const int threads : kThreadCounts) {
    CachedTrieJoin engine = Engine(threads);
    EXPECT_NEAR(AggregateOk<MaxPlusSemiring>(
                    engine, q, db, Weigh<MaxPlusSemiring>(q, EdgeWeight)),
                expected, 1e-9)
        << "threads=" << threads;
  }
}

TEST(Aggregate, MinPlusFindsLightestInstance) {
  const Database db = SmallSkewedDb(107, 40, 2);
  const Query q = CycleQuery(4);
  double expected = std::numeric_limits<double>::infinity();
  for (const Tuple& t : ReferenceTuples(q, db)) {
    double sum = 0;
    for (AtomId a = 0; a < q.num_atoms(); ++a) sum += EdgeWeight(q, a, t);
    expected = std::min(expected, sum);
  }
  for (const int threads : kThreadCounts) {
    CachedTrieJoin engine = Engine(threads);
    EXPECT_NEAR(AggregateOk<MinPlusSemiring>(
                    engine, q, db, Weigh<MinPlusSemiring>(q, EdgeWeight)),
                expected, 1e-9)
        << "threads=" << threads;
  }
}

TEST(Aggregate, BooleanSemiringIsSatisfiability) {
  Database db;
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  db.Put(std::move(e));
  for (const int threads : kThreadCounts) {
    CachedTrieJoin engine = Engine(threads);
    EXPECT_TRUE(AggregateOk<BooleanSemiring>(engine, Q("E(x,y), E(y,z)"), db));
    EXPECT_FALSE(
        AggregateOk<BooleanSemiring>(engine, Q("E(x,y), E(y,x)"), db));
  }
}

TEST(Aggregate, EmptySemiringResultIsZero) {
  Database db;
  db.Put(Relation("E", 2));
  CachedTrieJoin engine;
  EXPECT_EQ(AggregateOk<RealSemiring>(engine, PathQuery(3), db), 0.0);
  EXPECT_EQ(AggregateOk<MaxPlusSemiring>(engine, PathQuery(3), db),
            MaxPlusSemiring::Zero());
}

TEST(Aggregate, CachePoliciesPreserveAggregates) {
  const Database db = SmallSkewedDb(109, 45, 3);
  const Query q = PathQuery(5);
  const WeightFn<RealSemiring> weight = Weigh<RealSemiring>(q, EdgeWeight);
  CachedTrieJoin unbounded;
  const double expected = AggregateOk<RealSemiring>(unbounded, q, db, weight);
  for (int policy = 0; policy < 3; ++policy) {
    CachedTrieJoin::Options options;
    switch (policy) {
      case 0:
        options.cache.capacity = 4;
        options.cache.eviction = CacheOptions::Eviction::kLru;
        break;
      case 1:
        options.cache.enabled = false;
        break;
      default:
        options.cache.admission = CacheOptions::Admission::kSupportThreshold;
        options.cache.support_threshold = 4;
        break;
    }
    for (const int threads : kThreadCounts) {
      CachedTrieJoin engine = Engine(threads, options);
      ExpectRealNear(AggregateOk<RealSemiring>(engine, q, db, weight),
                     expected,
                     "policy " + std::to_string(policy) +
                         " threads=" + std::to_string(threads));
    }
  }
}

TEST(Aggregate, ExplicitPlanHonored) {
  const Database db = SmallSkewedDb(111, 40, 2);
  const Query q = PathQuery(4);
  CachedTrieJoin::Options options;
  TreeDecomposition td;
  const NodeId root = td.AddNode({0, 1}, kNone);
  const NodeId mid = td.AddNode({1, 2}, root);
  td.AddNode({2, 3}, mid);
  options.plan = MakePlanFromTd(q, db, std::move(td));
  CachedTrieJoin engine(options);
  CachedTrieJoin counter;
  EXPECT_EQ(AggregateOk<CountingSemiring>(engine, q, db),
            counter.Count(q, db, {}).count);
}

TEST(Aggregate, TimeoutReported) {
  const Database db = SmallSkewedDb(113, 200, 8);
  CachedTrieJoin::Options options;
  options.cache.enabled = false;
  RunLimits limits;
  limits.timeout_seconds = 1e-9;
  for (const int threads : kThreadCounts) {
    CachedTrieJoin engine = Engine(threads, options);
    std::uint64_t value = 0;
    const RunResult run = engine.Aggregate<CountingSemiring>(
        PathQuery(6), db, nullptr, limits, &value);
    EXPECT_EQ(run.status, RunStatus::kTimeout) << "threads=" << threads;
  }
}

TEST(Aggregate, PreTrippedCancelRunsNoMorsel) {
  const Database db = SmallSkewedDb(119, 80, 4);
  const Query q = CycleQuery(4);
  AbortFlag cancel;
  cancel.Trip(RunStatus::kCancelled);
  RunLimits limits;
  limits.cancel = &cancel;
  for (const int threads : kThreadCounts) {
    CachedTrieJoin engine = Engine(threads);
    double value = 1.0;
    const RunResult run = engine.Aggregate<RealSemiring>(
        q, db, Weigh<RealSemiring>(q, EdgeWeight), limits, &value);
    EXPECT_EQ(run.status, RunStatus::kCancelled) << "threads=" << threads;
    EXPECT_EQ(run.stats.memory_accesses, 0u) << "threads=" << threads;
    EXPECT_EQ(value, 0.0) << "threads=" << threads;
  }
}

TEST(Aggregate, OneWorkerCountingChargesWhatCountCharges) {
  const Database db = SmallSkewedDb(121, 60, 3);
  for (const Query& q : {PathQuery(5), CycleQuery(5)}) {
    CachedTrieJoin engine;
    const RunResult count = engine.Count(q, db, {});
    std::uint64_t value = 0;
    const RunResult agg =
        engine.Aggregate<CountingSemiring>(q, db, nullptr, {}, &value);
    EXPECT_EQ(value, count.count) << q.ToString();
    EXPECT_EQ(agg.stats.memory_accesses, count.stats.memory_accesses)
        << q.ToString();
    EXPECT_EQ(agg.stats.cache_hits, count.stats.cache_hits) << q.ToString();
    EXPECT_EQ(agg.stats.cache_misses, count.stats.cache_misses)
        << q.ToString();
  }
}

TEST(Aggregate, WeightedRunNeverTouchesTheInjectedCountTable) {
  // A weighted aggregate's cached values depend on its weights, so it must
  // not read or fill the count table a serving loop injects for Count.
  const Database db = SmallSkewedDb(123, 50, 3);
  const Query q = PathQuery(4);
  const CachedPlan plan =
      CachedPlan::Resolve(q, db, std::nullopt, {}, CacheOptions{});
  const double expected = BruteAggregate<RealSemiring>(q, db);
  for (const int threads : kThreadCounts) {
    StripedCacheManager<std::uint64_t> persistent(
        static_cast<int>(plan.cacheable.size()), CacheOptions{}, threads);
    CachedTrieJoin::Options options;
    options.shared_count_cache = &persistent;
    CachedTrieJoin engine = Engine(threads, options);
    const std::string label = "threads=" + std::to_string(threads);
    ExpectRealNear(AggregateOk<RealSemiring>(
                       engine, q, db, Weigh<RealSemiring>(q, EdgeWeight)),
                   expected, label);
    EXPECT_EQ(persistent.size(), 0u) << label;
    EXPECT_EQ(persistent.AggregatedStats().cache_misses, 0u) << label;
  }
}

TEST(Aggregate, CachingActuallyHappens) {
  const Database db = SmallSkewedDb(115, 60, 3);
  const Query q = PathQuery(5);
  CachedTrieJoin engine;
  double value = 0.0;
  const RunResult run = engine.Aggregate<RealSemiring>(
      q, db, Weigh<RealSemiring>(q, EdgeWeight), {}, &value);
  EXPECT_GT(run.stats.cache_hits, 0u);
}

}  // namespace
}  // namespace clftj
