#ifndef CLFTJ_ENGINE_SHARDED_H_
#define CLFTJ_ENGINE_SHARDED_H_

#include <optional>
#include <string>
#include <utility>

#include "clftj/cached_trie_join.h"
#include "engine/engine.h"

namespace clftj {

/// CLFTJ-P — morsel-driven parallel CLFTJ over the first join variable's
/// domain (the ROADMAP's "parallel sharded execution").
///
/// One run builds the shared immutable state once — CachedPlan and
/// TrieJoinSubstrate, both data-race-free under concurrent reads — then
/// cuts the depth-0 domain into kMorselsPerWorker x workers small ascending
/// value ranges (morsels, after Leis et al., "Morsel-Driven Parallelism",
/// SIGMOD 2014). Each worker builds one CountRun/EvalRun with a private
/// TrieJoinContext cursor and pulls morsel indices from one atomic counter
/// until the queue drains, so a hub-heavy prefix of a power-law domain
/// spreads over every worker instead of pinning one static shard. The root
/// variable owns no cacheable state, so the split costs the cache nothing.
///
/// Cache placement: with two or more workers, every worker probes and
/// fills one StripedCacheManager — the injected persistent table when the
/// serving loop provides one, else a run-owned table carrying the
/// undivided CacheOptions budget — so a subtree computed for any morsel is
/// a hit for every other. A one-worker run (threads == 1, or a domain too
/// small to split) is the sequential CLFTJ run, byte for byte. A single
/// shared AbortFlag propagates the first deadline expiry, materialization-
/// budget hit or external cancel to every worker within one deadline
/// stride, and workers stop pulling morsels once it trips. Each worker's
/// run state lives for the whole run, so the run keeps one deadline window
/// however many morsels it executes.
///
/// Determinism: morsels are ascending value intervals and the trie
/// enumerates ascending, so summing counts and concatenating buffered
/// tuples and factorized root entries in morsel order reproduce the
/// single-thread CLFTJ result — identical counts and identical tuple sets
/// at every thread count (cached entries are exact subtree results, so any
/// hit/miss pattern preserves correctness). Which worker runs which morsel
/// does not matter. The tuple stream's interleaving can differ from the
/// single-thread stream, because cache hits expand skipped subtrees at the
/// emission point and who hits depends on which worker inserted first.
/// The stats merge is deterministic — per-morsel counters in morsel order,
/// then the run-owned table's per-stripe counters in stripe order — but
/// with two or more workers the counter *values* vary slightly across
/// runs: hit/miss splits and memory-access sums are interleaving-dependent
/// (counts and tuple sets are not).
class ShardedCachedTrieJoin : public JoinEngine {
 public:
  struct Options {
    /// Worker count; <= 0 means one per hardware thread (EffectiveThreads).
    /// The effective worker count is min(threads, morsel count), so a
    /// domain smaller than the thread count simply runs fewer workers.
    int threads = 0;
    /// Explicit plan / planner / cache knobs, as in CachedTrieJoin. The
    /// cache options describe the *global* budget: the run-owned striped
    /// table splits it across its stripes, never across workers.
    std::optional<TdPlan> plan;
    PlannerOptions planner;
    CacheOptions cache;

    // Cross-query reuse injection, as in CachedTrieJoin::Options: shared
    // plan/substrate replace the run's own resolution/build, and an
    // injected striped cache (borrowed, must outlive the run) replaces the
    // run-owned table so all workers of all requests of this shape share
    // one table.
    std::shared_ptr<const CachedPlan> prepared_plan;
    std::shared_ptr<const TrieJoinSubstrate> prepared_substrate;
    StripedCacheManager<std::uint64_t>* shared_count_cache = nullptr;
    StripedCacheManager<FactorizedSetPtr>* shared_eval_cache = nullptr;
  };

  ShardedCachedTrieJoin() = default;
  explicit ShardedCachedTrieJoin(Options options)
      : options_(std::move(options)) {}

  std::string name() const override { return "CLFTJ-P"; }

  RunResult Count(const Query& q, const Database& db,
                  const RunLimits& limits) override;

  /// Each morsel's tuples are buffered and the buffers are drained through
  /// `cb` in morsel order after the workers join — the same tuple *set* as
  /// single-thread CLFTJ (see the class comment on ordering). Buffered
  /// tuples and intermediate entries draw on one
  /// run-wide limits.max_intermediate_tuples budget shared by all workers
  /// (a single atomic counter) — the same total budget a single-thread run
  /// gets, but deliberately *stricter* in that single-thread CLFTJ streams
  /// outputs without materializing them: a parallel run whose buffered
  /// output would exceed the budget reports out_of_memory where CLFTJ
  /// would have streamed through. Callers that need unbounded streaming of
  /// huge results should use CLFTJ, or EvaluateFactorized (whose
  /// factorized root is usually far smaller than the flat result).
  RunResult Evaluate(const Query& q, const Database& db,
                     const TupleCallback& cb, const RunLimits& limits) override;

  /// Parallel counterpart of CachedTrieJoin::EvaluateFactorized: the merged
  /// root set is the morsel roots' entries concatenated in morsel order.
  std::optional<FactorizedQueryResult> EvaluateFactorized(
      const Query& q, const Database& db, const RunLimits& limits,
      RunResult* run);

 private:
  /// Returns the prepared plan if injected, else resolves into *local.
  const CachedPlan* PlanFor(const Query& q, const Database& db,
                            std::optional<CachedPlan>* local) const;
  /// Returns the prepared substrate if injected (checking its order matches
  /// the plan), else builds a private one into *local.
  const TrieJoinSubstrate* SubstrateFor(
      const Query& q, const Database& db, const CachedPlan& plan,
      std::optional<TrieJoinSubstrate>* local) const;

  Options options_;
};

}  // namespace clftj

#endif  // CLFTJ_ENGINE_SHARDED_H_
