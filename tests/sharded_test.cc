// Differential and failure-propagation tests for CLFTJ-P, the morsel-driven
// parallel executor: at every thread count the parallel run must reproduce
// single-thread CLFTJ — counts, tuple sets and factorized results, and at
// one thread the counters too — and a limit hit in any worker must stop
// and be reported by the whole run within one deadline window. Also
// exercises the re-entrant run states directly (FirstVarRange morsel
// arithmetic over one shared plan/substrate).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "clftj/cached_trie_join.h"
#include "data/snap_profiles.h"
#include "engine/sharded.h"
#include "query/patterns.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;

constexpr int kThreadCounts[] = {1, 2, 3, 8};

struct Instance {
  Query query;
  Database db;
};

Instance MakeInstance(std::uint64_t seed) {
  Rng rng(seed * 6271 + 5);
  const int num_vars = 3 + static_cast<int>(rng.Uniform(4));  // 3..6
  const double p = 0.35 + 0.1 * static_cast<double>(rng.Uniform(5));
  Instance inst{RandomPatternQuery(num_vars, p, seed + 1), Database()};
  const int nodes = 25 + static_cast<int>(rng.Uniform(40));
  if (rng.Flip(0.5)) {
    inst.db.Put(PreferentialAttachmentGraph(
        "E", nodes, 2 + static_cast<int>(rng.Uniform(3)), seed + 2));
  } else {
    inst.db.Put(NearRegularGraph("E", nodes, nodes * 2, seed + 2));
  }
  return inst;
}

ShardedCachedTrieJoin MakeSharded(int threads, CacheOptions cache = {}) {
  ShardedCachedTrieJoin::Options options;
  options.threads = threads;
  options.cache = cache;
  return ShardedCachedTrieJoin(options);
}

// Unsorted collection: pins the emission *order*, not just the set.
std::vector<Tuple> RawTuples(JoinEngine& engine, const Query& q,
                             const Database& db) {
  std::vector<Tuple> out;
  engine.Evaluate(q, db, [&out](const Tuple& t) { out.push_back(t); }, {});
  return out;
}

class ShardedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDifferentialTest, CountsMatchAtAllThreadCounts) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const RunResult anchor = single.Count(inst.query, inst.db, {});
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(inst.query, inst.db, {});
    EXPECT_EQ(got.count, anchor.count)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_TRUE(got.ok());
    if (threads == 1) {
      // One worker is the sequential run: every counter is identical.
      EXPECT_EQ(got.stats.ToWire(), anchor.stats.ToWire())
          << inst.query.ToString();
    }
  }
}

TEST_P(ShardedDifferentialTest, TupleSetsMatchAtAllThreadCounts) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  // Raw emission order is reproducible only at one worker: cache hits expand
  // skipped subtrees at the emission point, so the interleaving depends on
  // the hit pattern, and with several workers who hits depends on who
  // inserted first. The result *set* is identical at every thread count.
  const std::vector<Tuple> raw_anchor = RawTuples(single, inst.query, inst.db);
  ShardedCachedTrieJoin one_shard = MakeSharded(1);
  EXPECT_EQ(RawTuples(one_shard, inst.query, inst.db), raw_anchor)
      << inst.query.ToString();

  const std::vector<Tuple> anchor = CollectTuples(single, inst.query, inst.db);
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    EXPECT_EQ(CollectTuples(parallel, inst.query, inst.db), anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

TEST_P(ShardedDifferentialTest, FactorizedResultMatchesSingleThread) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  RunResult single_run;
  const auto anchor =
      single.EvaluateFactorized(inst.query, inst.db, {}, &single_run);
  ASSERT_TRUE(anchor.has_value());
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    RunResult run;
    const auto got = parallel.EvaluateFactorized(inst.query, inst.db, {}, &run);
    ASSERT_TRUE(got.has_value()) << "threads=" << threads;
    EXPECT_EQ(got->Count(), anchor->Count()) << "threads=" << threads;
    // The flat expansion must agree tuple for tuple in enumeration order.
    // NumEntries is *not* compared: it counts distinct shared sets, and
    // sub-structure sharing follows the cache hit pattern, which concurrent
    // workers legitimately change.
    std::vector<Tuple> anchor_tuples;
    anchor->Enumerate([&](const Tuple& t) { anchor_tuples.push_back(t); });
    std::vector<Tuple> got_tuples;
    got->Enumerate([&](const Tuple& t) { got_tuples.push_back(t); });
    std::sort(anchor_tuples.begin(), anchor_tuples.end());
    std::sort(got_tuples.begin(), got_tuples.end());
    EXPECT_EQ(got_tuples, anchor_tuples) << "threads=" << threads;
  }
}

TEST_P(ShardedDifferentialTest, BoundedPrivateCachesStayCorrect) {
  // "Private" as in run-owned: each run builds its own bounded striped
  // table (no injected persistent one), which all its workers share under
  // the one global budget — 16 entries spread over the stripes, so every
  // stripe evicts constantly.
  const Instance inst = MakeInstance(GetParam());
  CacheOptions cache;
  cache.capacity = 16;
  CachedTrieJoin::Options single_options;
  single_options.cache = cache;
  CachedTrieJoin single(single_options);
  const std::uint64_t anchor = single.Count(inst.query, inst.db, {}).count;
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads, cache);
    const RunResult got = parallel.Count(inst.query, inst.db, {});
    EXPECT_EQ(got.count, anchor)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_LE(got.stats.cache_entries_peak, cache.capacity)
        << "the shared table's stripe peaks must stay within the one "
           "global budget, threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferentialTest,
                         ::testing::Range(0, 12));

TEST(Sharded, DomainSmallerThanThreadCount) {
  // Three edges — the first variable's depth-0 intersection has at most 3
  // values, so 8 requested workers collapse to <= 3 one-value morsels.
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(2, 3);
  e.AddPair(3, 1);
  Database db;
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z), E(z,x)");
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(q, db, {}).count;
  EXPECT_EQ(anchor, 3u);  // the 3 rotations of the directed triangle
  ShardedCachedTrieJoin parallel = MakeSharded(8);
  const RunResult got = parallel.Count(q, db, {});
  EXPECT_EQ(got.count, anchor);
  EXPECT_TRUE(got.ok());
}

TEST(Sharded, EmptyResultAndEmptyIntersection) {
  // E has tuples but no (y,x) partner: the depth-0 intersection of the
  // triangle-closing pair is empty, so every morsel finds nothing.
  Relation e("E", 2);
  e.AddPair(1, 2);
  e.AddPair(3, 4);
  Database db;
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,x)");
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(q, db, {});
    EXPECT_EQ(got.count, 0u);
    EXPECT_TRUE(got.ok());
    std::vector<Tuple> tuples = CollectTuples(parallel, q, db);
    EXPECT_TRUE(tuples.empty());
  }
}

TEST(Sharded, EmptyShardRangeYieldsNothing) {
  // Drives the re-entrant run state directly over a shared plan and
  // substrate: a morsel whose value interval contains no first-variable
  // value must contribute zero, and disjoint ranges must partition the
  // full count — also when one run state runs them in turn, as a
  // CLFTJ-P worker does.
  Database db = testing::SmallSkewedDb(7);
  const Query q = Q("E(x,y), E(y,z)");
  const CachedPlan plan =
      CachedPlan::Resolve(q, db, std::nullopt, {}, CacheOptions{});
  const TrieJoinSubstrate substrate(q, db, plan.order);
  ASSERT_FALSE(substrate.HasEmptyAtom());

  ExecStats stats;
  auto count_range = [&](const FirstVarRange& range) {
    TrieJoinContext ctx(substrate, &stats);
    CountRun run(plan, CacheOptions{}, &ctx, &stats, RunLimits{});
    return run.Run(range);
  };

  const std::uint64_t all = count_range(FirstVarRange{});
  EXPECT_EQ(all, testing::ReferenceCount(q, db));

  FirstVarRange empty;
  empty.lo = 1u << 20;  // beyond every node id in the small graph
  EXPECT_EQ(count_range(empty), 0u);

  FirstVarRange low, high;
  low.has_hi = true;
  low.hi = 30;  // split the node-id domain at an arbitrary boundary
  high.lo = 30;
  EXPECT_EQ(count_range(low) + count_range(high), all);

  TrieJoinContext ctx(substrate, &stats);
  CountRun reused(plan, CacheOptions{}, &ctx, &stats, RunLimits{});
  const std::uint64_t low_count = reused.Run(low);
  EXPECT_EQ(reused.Run(empty), 0u);
  EXPECT_EQ(low_count + reused.Run(high), all);
}

TEST(Sharded, TimeoutPropagatesToAllWorkers) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 800, 5, /*seed=*/3));
  const Query q = CycleQuery(5);
  RunLimits limits;
  limits.timeout_seconds = 1e-9;  // expires at the first stride sample
  ShardedCachedTrieJoin parallel = MakeSharded(4);
  const RunResult got = parallel.Count(q, db, limits);
  EXPECT_TRUE(got.timed_out);
  EXPECT_FALSE(got.ok());
}

TEST(Sharded, OutOfMemoryInOneWorkerFailsTheRun) {
  Database db = testing::SmallSkewedDb(11, /*nodes=*/80, /*edges_per_node=*/4);
  const Query q = CycleQuery(4);
  RunLimits limits;
  limits.max_intermediate_tuples = 5;  // far below the real intermediate load
  ShardedCachedTrieJoin parallel = MakeSharded(4);
  RunResult run;
  const auto got = parallel.EvaluateFactorized(q, db, limits, &run);
  EXPECT_FALSE(got.has_value());
  EXPECT_TRUE(run.out_of_memory);
  // OOM dominates the secondary abort-flag "timeouts" of sibling workers.
  EXPECT_FALSE(run.timed_out);
}

TEST(Sharded, EvaluateBufferRespectsMaterializationBudget) {
  Database db = testing::SmallSkewedDb(13, /*nodes=*/80, /*edges_per_node=*/4);
  const Query q = Q("E(x,y), E(y,z)");
  RunLimits limits;
  limits.max_intermediate_tuples = 10;  // the 2-path result is much larger
  ShardedCachedTrieJoin parallel = MakeSharded(2);
  std::uint64_t emitted = 0;
  const RunResult got = parallel.Evaluate(
      q, db, [&emitted](const Tuple&) { ++emitted; }, limits);
  EXPECT_TRUE(got.out_of_memory);
  // The budget is run-wide: both shards together stay within it.
  EXPECT_LE(emitted, limits.max_intermediate_tuples);
}

TEST(Sharded, MemoryAccessSumIsReportedAndSane) {
  // The wiki-Vote 5-cycle, the reference query of the parallel benches.
  // All workers share one striped table, so a subtree computed for any
  // morsel is a hit for every other: the summed accesses stay within a few
  // percent of the serial run (per-morsel depth-0 seeks plus the subtrees
  // two workers race to compute), not K times it.
  const Database db = MakeSnapDatabase(SnapProfileByLabel("wiki-Vote"));
  const Query q = CycleQuery(5);
  CachedTrieJoin single;
  const RunResult anchor = single.Count(q, db, {});
  ASSERT_TRUE(anchor.ok());

  ShardedCachedTrieJoin parallel = MakeSharded(4);
  const RunResult got = parallel.Count(q, db, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.count, anchor.count);
  EXPECT_GT(got.stats.memory_accesses, 0u);
  EXPECT_LE(static_cast<double>(got.stats.memory_accesses),
            1.1 * static_cast<double>(anchor.stats.memory_accesses))
      << "serial " << anchor.stats.memory_accesses;
}

// --- Morsel scheduling ------------------------------------------------------

// A hub graph: value 0 is linked both ways to every other node, and the
// rest form a sparse ring — the skew that static equal-count shards handed
// to a single worker.
Database HubDb(int spokes) {
  Relation e("E", 2);
  for (Value v = 1; v <= static_cast<Value>(spokes); ++v) {
    e.AddPair(0, v);
    e.AddPair(v, 0);
    const Value next = v % static_cast<Value>(spokes) + 1;
    e.AddPair(v, next);
  }
  Database db;
  db.Put(std::move(e));
  return db;
}

TEST(Morsels, SkewedDomainMatchesSerialAndReference) {
  // The 3-star puts its centre at depth 0, where the hub's one value
  // carries most of the output; the 4-cycle spreads it over positions.
  const Database db = HubDb(40);
  for (const Query& q : {Q("E(x,y), E(x,z), E(x,w)"), CycleQuery(4)}) {
    const CachedPlan plan =
        CachedPlan::Resolve(q, db, std::nullopt, {}, CacheOptions{});
    const TrieJoinSubstrate substrate(q, db, plan.order);
    ExecStats stats;
    TrieJoinContext ctx(substrate, &stats);
    CountRun run(plan, CacheOptions{}, &ctx, &stats, RunLimits{});
    FirstVarRange hub;
    hub.has_hi = true;
    hub.hi = 1;
    const std::uint64_t hub_count = run.Run(hub);

    CachedTrieJoin single;
    const std::uint64_t anchor = single.Count(q, db, {}).count;
    ASSERT_EQ(anchor, testing::ReferenceCount(q, db)) << q.ToString();
    if (q.num_atoms() == 3) {
      ASSERT_GT(2 * hub_count, anchor)
          << "the hub value must hold most of the output: " << q.ToString();
    }
    for (const int threads : {1, 2, 3, 4, 8}) {
      ShardedCachedTrieJoin parallel = MakeSharded(threads);
      const RunResult got = parallel.Count(q, db, {});
      EXPECT_TRUE(got.ok());
      EXPECT_EQ(got.count, anchor)
          << q.ToString() << " threads=" << threads;
    }
  }
}

TEST(Morsels, DomainSmallerThanMorselCount) {
  // 20 depth-0 values at 4 threads: fewer values than the 64 morsels the
  // workers would pull, so every morsel holds a single value.
  Relation e("E", 2);
  for (Value v = 0; v < 20; ++v) {
    e.AddPair(v, (v + 1) % 20);
    e.AddPair(v, (v + 3) % 20);
  }
  Database db;
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z)");
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(q, db, {}).count;
  EXPECT_EQ(anchor, 80u);  // 20 starts x 2 x 2
  for (const int threads : {2, 4, 8}) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(q, db, {});
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.count, anchor) << "threads=" << threads;
    EXPECT_EQ(CollectTuples(parallel, q, db), CollectTuples(single, q, db))
        << "threads=" << threads;
  }
}

TEST(Morsels, TwoTierViewWithEmptyMainTier) {
  // Every tuple lives in the delta's add tier: the main tier the morsels
  // are cut from is empty, so the run falls back to one unbounded morsel.
  Relation e("E", 2);
  e.Normalize();
  e.set_compaction_threshold(1000);
  e.ApplyDelta({{1, 2}, {2, 3}, {3, 1}, {2, 4}, {4, 1}}, {});
  ASSERT_EQ(e.main_size(), 0u);
  ASSERT_TRUE(e.has_delta());
  Database db;
  db.Put(std::move(e));
  const Query q = Q("E(x,y), E(y,z), E(z,x)");
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(q, db, {}).count;
  EXPECT_EQ(anchor, testing::ReferenceCount(q, db));
  EXPECT_GT(anchor, 0u);
  for (const int threads : {2, 4}) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(q, db, {});
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.count, anchor) << "threads=" << threads;
  }
}

TEST(Morsels, FactorizedRootsConcatenateInMorselOrder) {
  // The root node is never cached, so its entries — one per root-bag
  // assignment with a non-empty product — are the same list at every
  // thread count, in ascending first-variable order.
  const Database db =
      testing::SmallSkewedDb(5, /*nodes=*/90, /*edges_per_node=*/4);
  const Query q = CycleQuery(4);
  CachedTrieJoin single;
  RunResult single_run;
  const auto anchor = single.EvaluateFactorized(q, db, {}, &single_run);
  ASSERT_TRUE(anchor.has_value());
  const auto locals = [](const FactorizedQueryResult& r) {
    std::vector<std::vector<Value>> out;
    for (const FactorizedEntry& entry : r.root().entries) {
      out.push_back(entry.local);
    }
    return out;
  };
  const std::vector<std::vector<Value>> want = locals(*anchor);
  ASSERT_GT(want.size(), 1u);
  EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
  for (const int threads : {2, 4, 8}) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    RunResult run;
    const auto got = parallel.EvaluateFactorized(q, db, {}, &run);
    ASSERT_TRUE(got.has_value()) << "threads=" << threads;
    EXPECT_EQ(locals(*got), want) << "threads=" << threads;
    EXPECT_EQ(got->Count(), anchor->Count()) << "threads=" << threads;
  }
}

TEST(Morsels, TimeoutCoversTheWholeRunNotEachMorsel) {
  // Cache off over a near-regular graph: the work spreads evenly over the
  // 64 morsels (~9 s serial on a 4-vCPU host, ~0.15 s a morsel), so the
  // run far outlasts the 0.5 s budget while no single morsel comes near
  // it. A run that restarted the timer per morsel would finish with kOk
  // after several budgets; one deadline window stops within the budget
  // plus a stride. The plan is resolved up front so the timed run is the
  // join.
  Database db;
  db.Put(NearRegularGraph("E", 2000, 16000, /*seed=*/9));
  const Query q = CycleQuery(5);
  ShardedCachedTrieJoin::Options options;
  options.threads = 4;
  options.cache.enabled = false;
  options.prepared_plan = std::make_shared<const CachedPlan>(
      CachedPlan::Resolve(q, db, std::nullopt, {}, options.cache));
  RunLimits limits;
  limits.timeout_seconds = 0.5;
  ShardedCachedTrieJoin parallel(options);
  const RunResult got = parallel.Count(q, db, limits);
  EXPECT_EQ(got.status, RunStatus::kTimeout);
  EXPECT_LT(got.seconds, limits.timeout_seconds + 0.5);
}

TEST(Morsels, PreTrippedCancelRunsNoMorsel) {
  Database db = testing::SmallSkewedDb(3, /*nodes=*/80, /*edges_per_node=*/4);
  const Query q = CycleQuery(4);
  AbortFlag cancel;
  cancel.Trip(RunStatus::kCancelled);
  RunLimits limits;
  limits.cancel = &cancel;
  for (const int threads : {2, 4}) {
    ShardedCachedTrieJoin parallel = MakeSharded(threads);
    const RunResult got = parallel.Count(q, db, limits);
    EXPECT_EQ(got.status, RunStatus::kCancelled) << "threads=" << threads;
    EXPECT_EQ(got.count, 0u);
    EXPECT_EQ(got.stats.memory_accesses, 0u)
        << "a cancelled run must not start any morsel";
    RunResult run;
    EXPECT_FALSE(parallel.EvaluateFactorized(q, db, limits, &run).has_value());
    EXPECT_EQ(run.status, RunStatus::kCancelled);
    EXPECT_EQ(run.stats.memory_accesses, 0u);
  }
}

}  // namespace
}  // namespace clftj
