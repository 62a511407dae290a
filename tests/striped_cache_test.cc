// Tests for StripedCacheManager — the lock-striped table every CLFTJ-P
// worker shares. Three layers:
//   * StripedCacheManager unit tests: stripe budget slices sum exactly to
//     the global budget, stripe-count clamping, per-stripe eviction, and
//     the copy-out lookup contract.
//   * Randomized differential tests: CLFTJ-P over a run-owned table and
//     over an injected persistent table must reproduce single-thread CLFTJ
//     bit for bit — counts, tuple sets and factorized expansions — at
//     1/2/3/8 threads, unbounded and under entry/byte budgets.
//   * A many-thread contention stress (the TSan target in CI): concurrent
//     lookup/insert churn over few stripes with a deterministic
//     key -> value function, so torn reads or lost updates surface as
//     value mismatches even without a race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "clftj/cache.h"
#include "clftj/cached_trie_join.h"
#include "engine/sharded.h"
#include "query/patterns.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace clftj {
namespace {

using ::clftj::testing::CollectTuples;
using ::clftj::testing::Q;

constexpr int kThreadCounts[] = {1, 2, 3, 8};

PackedKey PK(const Tuple& t) {
  return PackedKey::Pack(t.data(), static_cast<int>(t.size()));
}

CacheOptions Striped(std::uint64_t capacity = 0, int stripes = 0,
                     std::uint64_t capacity_bytes = 0) {
  CacheOptions options;
  options.capacity = capacity;
  options.capacity_bytes = capacity_bytes;
  options.stripes = stripes;
  return options;
}

// --- StripedCacheManager unit tests ---------------------------------------

TEST(StripedCacheManager, MissThenHitCopiesPayloadOut) {
  StripedCacheManager<std::uint64_t> cache(2, Striped(), /*workers=*/4);
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(0, PK({5}), &out));
  cache.Insert(0, PK({5}), 42);
  ASSERT_TRUE(cache.Lookup(0, PK({5}), &out));
  EXPECT_EQ(out, 42u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StripedCacheManager, NodesAreIsolated) {
  StripedCacheManager<std::uint64_t> cache(2, Striped(), 4);
  cache.Insert(0, PK({5}), 1);
  std::uint64_t out = 0;
  EXPECT_FALSE(cache.Lookup(1, PK({5}), &out))
      << "same key under another node must not hit";
}

TEST(StripedCacheManager, StripeBudgetsSumExactlyToGlobalCapacity) {
  // 100 entries over 8 stripes: 100/8 = 12 each with remainder 4 spread to
  // the first four stripes — no flooring slack, the slices *are* the
  // budget.
  StripedCacheManager<std::uint64_t> cache(2, Striped(100, /*stripes=*/8), 4);
  EXPECT_EQ(cache.stripe_count(), 8);
  std::uint64_t total = 0;
  for (const auto& [cap, cap_bytes] : cache.StripeBudgetsForTest()) {
    EXPECT_GE(cap, 1u) << "a bounded stripe with a zero slice would be "
                          "unbounded (0 means no limit)";
    EXPECT_EQ(cap_bytes, 0u);
    total += cap;
  }
  EXPECT_EQ(total, 100u);
}

TEST(StripedCacheManager, StripeByteBudgetsSumExactlyToGlobalBytes) {
  StripedCacheManager<std::uint64_t> cache(
      2, Striped(0, /*stripes=*/8, /*capacity_bytes=*/1001), 4);
  std::uint64_t total = 0;
  for (const auto& [cap, cap_bytes] : cache.StripeBudgetsForTest()) {
    EXPECT_EQ(cap, 0u);
    EXPECT_GE(cap_bytes, 1u);
    total += cap_bytes;
  }
  EXPECT_EQ(total, 1001u);
}

TEST(StripedCacheManager, StripeCountClampsToTinyBudgets) {
  // capacity 3 cannot feed 8 stripes at >= 1 entry each: the count halves
  // until every stripe's slice is positive.
  StripedCacheManager<std::uint64_t> tiny(2, Striped(3, /*stripes=*/8), 8);
  EXPECT_LE(tiny.stripe_count(), 2);
  std::uint64_t total = 0;
  for (const auto& [cap, cap_bytes] : tiny.StripeBudgetsForTest()) {
    EXPECT_GE(cap, 1u);
    total += cap;
  }
  EXPECT_EQ(total, 3u);
}

TEST(StripedCacheManager, ChooseStripesPolicy) {
  // Auto: smallest power of two >= 8x workers, in [1, 64].
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Striped(), 1),
            8);
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Striped(), 4),
            32);
  EXPECT_EQ(StripedCacheManager<std::uint64_t>::ChooseStripes(Striped(), 48),
            64);
  // Explicit request wins, rounded up to a power of two.
  EXPECT_EQ(
      StripedCacheManager<std::uint64_t>::ChooseStripes(Striped(0, 5), 1), 8);
  // The budget clamp applies to explicit requests too.
  EXPECT_EQ(
      StripedCacheManager<std::uint64_t>::ChooseStripes(Striped(2, 16), 4),
      2);
}

TEST(StripedCacheManager, GlobalEntryBudgetHoldsUnderEvictionChurn) {
  const std::uint64_t capacity = 32;
  StripedCacheManager<std::uint64_t> cache(2, Striped(capacity, 4), 4);
  for (Value k = 0; k < 1000; ++k) {
    cache.Insert(0, PK({k}), static_cast<std::uint64_t>(k));
    EXPECT_LE(cache.size(), capacity);
  }
  const ExecStats stats = cache.AggregatedStats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_entries_peak, capacity)
      << "summed per-stripe peaks exceed the summed per-stripe budgets";
}

TEST(StripedCacheManager, AggregatedStatsSumStripeCounters) {
  StripedCacheManager<std::uint64_t> cache(2, Striped(0, 4), 4);
  std::uint64_t out;
  const int kKeys = 100;
  for (Value k = 0; k < kKeys; ++k) EXPECT_FALSE(cache.Lookup(0, PK({k}), &out));
  for (Value k = 0; k < kKeys; ++k) cache.Insert(0, PK({k}), 1);
  for (Value k = 0; k < kKeys; ++k) EXPECT_TRUE(cache.Lookup(0, PK({k}), &out));
  const ExecStats stats = cache.AggregatedStats();
  EXPECT_EQ(stats.cache_misses, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kKeys));
  EXPECT_EQ(stats.cache_inserts, static_cast<std::uint64_t>(kKeys));
  EXPECT_GT(stats.memory_accesses, 0u);
}

// --- Randomized differential tests ----------------------------------------

struct Instance {
  Query query;
  Database db;
};

Instance MakeInstance(std::uint64_t seed) {
  Rng rng(seed * 9341 + 17);
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

ShardedCachedTrieJoin MakeSharded(int threads, CacheOptions cache) {
  ShardedCachedTrieJoin::Options options;
  options.threads = threads;
  options.cache = cache;
  return ShardedCachedTrieJoin(options);
}

class StripedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StripedDifferentialTest, CountsMatchPrivateAndSingleThread) {
  // Both placements a run can get: a run-private table (built and dropped
  // by the run) and an injected persistent table that outlives it, cold on
  // the first run and warm on the second.
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(inst.query, inst.db, {}).count;
  const CachedPlan plan = CachedPlan::Resolve(inst.query, inst.db,
                                              std::nullopt, {}, Striped());
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin striped = MakeSharded(threads, Striped());
    const RunResult got = striped.Count(inst.query, inst.db, {});
    EXPECT_EQ(got.count, anchor)
        << inst.query.ToString() << " threads=" << threads;
    EXPECT_TRUE(got.ok());

    StripedCacheManager<std::uint64_t> persistent(
        static_cast<int>(plan.cacheable.size()), Striped(), threads,
        /*hot_reads=*/true);
    ShardedCachedTrieJoin::Options options;
    options.threads = threads;
    options.prepared_plan = std::make_shared<const CachedPlan>(plan);
    options.shared_count_cache = &persistent;
    ShardedCachedTrieJoin injected(options);
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(injected.Count(inst.query, inst.db, {}).count, anchor)
          << inst.query.ToString() << " threads=" << threads
          << " pass=" << pass;
    }
  }
}

TEST_P(StripedDifferentialTest, TupleSetsMatchSingleThread) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const std::vector<Tuple> anchor = CollectTuples(single, inst.query, inst.db);
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin striped = MakeSharded(threads, Striped());
    EXPECT_EQ(CollectTuples(striped, inst.query, inst.db), anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

TEST_P(StripedDifferentialTest, FactorizedExpansionMatchesSingleThread) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  RunResult single_run;
  const auto anchor =
      single.EvaluateFactorized(inst.query, inst.db, {}, &single_run);
  ASSERT_TRUE(anchor.has_value());
  std::vector<Tuple> anchor_tuples;
  anchor->Enumerate([&](const Tuple& t) { anchor_tuples.push_back(t); });
  std::sort(anchor_tuples.begin(), anchor_tuples.end());
  for (const int threads : kThreadCounts) {
    ShardedCachedTrieJoin striped = MakeSharded(threads, Striped());
    RunResult run;
    const auto got =
        striped.EvaluateFactorized(inst.query, inst.db, {}, &run);
    ASSERT_TRUE(got.has_value()) << "threads=" << threads;
    EXPECT_EQ(got->Count(), anchor->Count()) << "threads=" << threads;
    std::vector<Tuple> got_tuples;
    got->Enumerate([&](const Tuple& t) { got_tuples.push_back(t); });
    std::sort(got_tuples.begin(), got_tuples.end());
    EXPECT_EQ(got_tuples, anchor_tuples) << "threads=" << threads;
  }
}

TEST_P(StripedDifferentialTest, BoundedStripedCacheStaysCorrect) {
  const Instance inst = MakeInstance(GetParam());
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(inst.query, inst.db, {}).count;
  for (const int threads : kThreadCounts) {
    // A tight global entry budget (forces eviction churn in every stripe)
    // and a tight byte budget must both preserve the result.
    ShardedCachedTrieJoin tight = MakeSharded(threads, Striped(16));
    EXPECT_EQ(tight.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " threads=" << threads;
    ShardedCachedTrieJoin bytes =
        MakeSharded(threads, Striped(0, 0, /*capacity_bytes=*/2048));
    EXPECT_EQ(bytes.Count(inst.query, inst.db, {}).count, anchor)
        << inst.query.ToString() << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripedDifferentialTest,
                         ::testing::Range(0, 12));

// --- Engine-level budget pins ---------------------------------------------

TEST(StripedSharing, BytePeakStaysWithinGlobalBudget) {
  Database db = testing::SmallSkewedDb(19, /*nodes=*/70, /*edges_per_node=*/3);
  const Query q = CycleQuery(4);
  const std::uint64_t budget = 16 * 1024;
  ShardedCachedTrieJoin striped =
      MakeSharded(4, Striped(0, 0, /*capacity_bytes=*/budget));
  RunResult run;
  const auto got = striped.EvaluateFactorized(q, db, {}, &run);
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(run.stats.cache_inserts, 0u);
  EXPECT_LE(run.stats.cache_bytes_peak, budget)
      << "summed per-stripe byte peaks must stay within the summed "
         "per-stripe budgets = the global budget";
}

TEST(StripedSharing, EntryPeakStaysWithinGlobalBudget) {
  Database db = testing::SmallSkewedDb(23, /*nodes=*/70, /*edges_per_node=*/3);
  const Query q = CycleQuery(5);
  const std::uint64_t capacity = 64;
  ShardedCachedTrieJoin striped = MakeSharded(4, Striped(capacity));
  const RunResult got = striped.Count(q, db, {});
  EXPECT_TRUE(got.ok());
  EXPECT_GT(got.stats.cache_inserts, 0u);
  EXPECT_LE(got.stats.cache_entries_peak, capacity);
}

TEST(StripedSharing, SharedTableClosesTheMemoryAccessGap) {
  // The whole point of one shared table: workers reuse each other's
  // subtree results instead of recomputing them, so the summed memory
  // accesses of a parallel run stay close to the serial CLFTJ run on a
  // cache-friendly workload.
  Database db = testing::SmallSkewedDb(31, /*nodes=*/90, /*edges_per_node=*/4);
  const Query q = CycleQuery(5);
  CachedTrieJoin single;
  const RunResult anchor = single.Count(q, db, {});
  ASSERT_GT(anchor.stats.cache_hits, 0u) << "workload must exercise the cache";

  const RunResult striped = MakeSharded(4, Striped()).Count(q, db, {});
  EXPECT_EQ(striped.count, anchor.count);
  EXPECT_LE(static_cast<double>(striped.stats.memory_accesses),
            1.1 * static_cast<double>(anchor.stats.memory_accesses))
      << "shared striped table must stay near serial CLFTJ ("
      << anchor.stats.memory_accesses << ")";
}

TEST(StripedSharing, TimeoutPropagates) {
  Database db;
  db.Put(PreferentialAttachmentGraph("E", 800, 5, /*seed=*/3));
  const Query q = CycleQuery(5);
  RunLimits limits;
  limits.timeout_seconds = 1e-9;  // expires at the first stride sample
  ShardedCachedTrieJoin striped = MakeSharded(4, Striped());
  const RunResult got = striped.Count(q, db, limits);
  EXPECT_TRUE(got.timed_out);
  EXPECT_FALSE(got.ok());
}

// --- Contention stress (the TSan target) ----------------------------------

TEST(StripedStress, ConcurrentChurnKeepsValuesConsistent) {
  // 8 threads hammer a 2-stripe bounded table over a small key range, so
  // every operation contends and eviction churns constantly. Values are a
  // deterministic function of the key: any hit returning something else
  // means a torn read, a lost update or cross-key corruption. Run under
  // TSan in CI (see .github/workflows/ci.yml).
  const auto value_of = [](NodeId node, Value k) {
    return static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ull +
           static_cast<std::uint64_t>(k) * 0xC2B2AE3D27D4EB4Full;
  };
  StripedCacheManager<std::uint64_t> cache(4, Striped(24, /*stripes=*/2), 8);
  ASSERT_EQ(cache.stripe_count(), 2);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  constexpr Value kKeyRange = 64;
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const NodeId node = static_cast<NodeId>(rng.Uniform(4));
        const Value k = static_cast<Value>(rng.Uniform(kKeyRange));
        const Value pair[2] = {k, k + 1};
        const PackedKey key = PackedKey::Pack(pair, 2);
        std::uint64_t out = 0;
        if (cache.Lookup(node, key, &out)) {
          if (out != value_of(node, k)) bad.fetch_add(1);
        } else {
          cache.Insert(node, key, value_of(node, k));
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_LE(cache.size(), 24u);
  const ExecStats stats = cache.AggregatedStats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.cache_entries_peak, 24u);
}

// --- Lock-free hot-read path (seqlock slots) ------------------------------

TEST(StripedCacheManager, HotReadsServeSameValuesAsLockedPath) {
  StripedCacheManager<std::uint64_t> cache(2, Striped(), /*workers=*/4,
                                           /*hot_reads=*/true);
  ASSERT_TRUE(cache.hot_reads_enabled());
  for (Value k = 0; k < 32; ++k) {
    cache.Insert(0, PK({k, k + 1}), static_cast<std::uint64_t>(k) * 3 + 1);
  }
  // Inserts publish to the hot slots, so re-reads can resolve without the
  // stripe mutex — and must return exactly the locked path's values.
  std::uint64_t out = 0;
  for (int round = 0; round < 3; ++round) {
    for (Value k = 0; k < 32; ++k) {
      ASSERT_TRUE(cache.Lookup(0, PK({k, k + 1}), &out));
      EXPECT_EQ(out, static_cast<std::uint64_t>(k) * 3 + 1);
    }
  }
  EXPECT_GT(cache.HotHits(), 0u);
}

TEST(StripedCacheManager, HotHitsCountAsCacheHits) {
  // A hit served by the seqlock path is still a cache hit: the aggregate
  // must report every lookup, each charged at least the one slot it read.
  StripedCacheManager<std::uint64_t> cache(1, Striped(), /*workers=*/4,
                                           /*hot_reads=*/true);
  constexpr Value kKeys = 40;
  constexpr int kRounds = 5;
  for (Value k = 0; k < kKeys; ++k) {
    cache.Insert(0, PK({k, 2 * k}), static_cast<std::uint64_t>(k));
  }
  const ExecStats before = cache.AggregatedStats();
  std::uint64_t out = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (Value k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(cache.Lookup(0, PK({k, 2 * k}), &out));
    }
  }
  ASSERT_GT(cache.HotHits(), 0u) << "seqlock fast path never engaged";
  const ExecStats after = cache.AggregatedStats();
  EXPECT_EQ(after.cache_hits, static_cast<std::uint64_t>(kKeys) * kRounds);
  EXPECT_EQ(after.cache_misses, 0u);
  EXPECT_GE(after.memory_accesses - before.memory_accesses,
            static_cast<std::uint64_t>(kKeys) * kRounds);
}

TEST(StripedCacheManager, EvictIfClearsHotSlots) {
  // Targeted invalidation must reach the hot slots: a seqlock read serving
  // an entry EvictIf removed would resurrect stale pre-delta state.
  StripedCacheManager<std::uint64_t> cache(1, Striped(), /*workers=*/4,
                                           /*hot_reads=*/true);
  cache.Insert(0, PK({7, 8}), 99);
  std::uint64_t out = 0;
  ASSERT_TRUE(cache.Lookup(0, PK({7, 8}), &out));  // hot after this
  cache.EvictIf([](NodeId, const Value*, int) { return true; });
  EXPECT_FALSE(cache.Lookup(0, PK({7, 8}), &out));
}

TEST(StripedStress, HotReadsEightThreadsAgainstWriterChurn) {
  // 8 readers hammer a hot key set through the seqlock path while a writer
  // keeps inserting (publishing) and bulk-evicting (clearing hot slots).
  // Values are a deterministic function of the key, so a torn seqlock read
  // or a stale post-evict hot hit surfaces as a value mismatch. Run under
  // TSan in CI (see .github/workflows/ci.yml).
  const auto value_of = [](Value k) {
    return static_cast<std::uint64_t>(k) * 0xC2B2AE3D27D4EB4Full + 5;
  };
  StripedCacheManager<std::uint64_t> cache(2, Striped(0, /*stripes=*/2), 8,
                                           /*hot_reads=*/true);
  constexpr Value kKeyRange = 48;
  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(2000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Value k = static_cast<Value>(rng.Uniform(kKeyRange));
        const Value pair[2] = {k, k + 1};
        std::uint64_t out = 0;
        if (cache.Lookup(0, PackedKey::Pack(pair, 2), &out)) {
          if (out != value_of(k)) bad.fetch_add(1);
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int round = 0; round < 400; ++round) {
    for (Value k = 0; k < kKeyRange; ++k) {
      const Value pair[2] = {k, k + 1};
      cache.Insert(0, PackedKey::Pack(pair, 2), value_of(k));
    }
    if (round % 16 == 15) {
      cache.EvictIf([](NodeId, const Value*, int) { return true; });
    }
  }
  // Leave the cache warm and keep readers spinning until the fast path has
  // provably engaged: on a single core the churn loop above can finish (its
  // last round evicts everything) before any reader was ever scheduled.
  for (Value k = 0; k < kKeyRange; ++k) {
    const Value pair[2] = {k, k + 1};
    cache.Insert(0, PackedKey::Pack(pair, 2), value_of(k));
  }
  for (int spin = 0; spin < 5000 && (hits.load() == 0 || cache.HotHits() == 0);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(cache.HotHits(), 0u) << "seqlock fast path never engaged";
}

TEST(StripedStress, ManyThreadEngineRunsStayCorrect) {
  // End-to-end contention: 8 workers over one striped table with a tight
  // budget, repeated; each run must reproduce the single-thread count.
  Database db = testing::SmallSkewedDb(47, /*nodes=*/80, /*edges_per_node=*/3);
  const Query q = CycleQuery(5);
  CachedTrieJoin single;
  const std::uint64_t anchor = single.Count(q, db, {}).count;
  for (int round = 0; round < 3; ++round) {
    ShardedCachedTrieJoin striped = MakeSharded(8, Striped(32, /*stripes=*/2));
    EXPECT_EQ(striped.Count(q, db, {}).count, anchor) << "round " << round;
  }
}

}  // namespace
}  // namespace clftj
