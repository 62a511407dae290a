#ifndef CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_
#define CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "clftj/cache.h"
#include "clftj/factorized.h"
#include "clftj/plan.h"
#include "engine/engine.h"
#include "lftj/trie_join.h"
#include "td/planner.h"
#include "util/packed_key.h"

namespace clftj {

/// Restriction of a CLFTJ run to first-variable values in the half-open
/// interval [lo, hi) — the morsel of the parallel executor
/// (ShardedCachedTrieJoin cuts the first variable's domain into small
/// ascending morsels of these). The default range covers the whole domain,
/// which makes an unrestricted run just the 1-morsel special case.
struct FirstVarRange {
  Value lo = std::numeric_limits<Value>::min();
  /// When false, the range is unbounded above and `hi` is ignored.
  bool has_hi = false;
  Value hi = 0;
};

/// Per-run mutable state of counting CLFTJ (RCachedJoin of Figure 2 with f
/// carried as a multiplicative factor and intrmd(v) as plain counters).
///
/// This is the run half of the run/plan split: everything mutable —
/// iterators (via the TrieJoinContext cursor), the partial assignment,
/// intermediate counters, the cache, stats and the deadline — lives here,
/// while the CachedPlan and the trie substrate behind `ctx` are shared
/// immutable inputs. N CountRuns over one plan/substrate (each with its own
/// cursor, stats sink and cache) may execute concurrently, and one CountRun
/// may run many ranges in turn under its single deadline window.
class CountRun {
 public:
  /// `abort` (optional) is a stop flag shared across concurrent runs —
  /// this run trips it on its own deadline expiry and halts within one
  /// deadline stride when any other run trips it. `shared_cache`
  /// (optional) replaces the run's private cache with a striped table
  /// shared by concurrent runs: this run then probes and fills that one
  /// table, and `cache_options` budgets are ignored (the striped table
  /// carries the global budget itself).
  CountRun(const CachedPlan& plan, const CacheOptions& cache_options,
           TrieJoinContext* ctx, ExecStats* stats, const RunLimits& limits,
           AbortFlag* abort = nullptr,
           StripedCacheManager<std::uint64_t>* shared_cache = nullptr)
      : plan_(plan),
        ctx_(ctx),
        cache_(static_cast<int>(plan.cacheable.size()), cache_options, stats,
               shared_cache),
        intrmd_(plan.cacheable.size(), 0),
        node_key_(plan.cacheable.size()),
        node_wide_(plan.cacheable.size()),
        assignment_(plan.order.size(), kNullValue),
        deadline_(limits.timeout_seconds, abort) {}

  /// Counts the results whose first variable lies in `range`. Repeated
  /// calls run further ranges with the same cache and deadline; nothing
  /// runs once the run has aborted.
  std::uint64_t Run(const FirstVarRange& range = {}) {
    range_ = range;
    total_ = 0;
    if (!aborted_) RCachedJoin(0, 1);
    return total_;
  }

  bool timed_out() const { return aborted_; }

 private:
  void RCachedJoin(int d, std::uint64_t f);

  const CachedPlan& plan_;
  TrieJoinContext* ctx_;
  RunCache<std::uint64_t> cache_;
  std::vector<std::uint64_t> intrmd_;
  std::vector<PackedKey> node_key_;
  std::vector<Tuple> node_wide_;  // spill buffers for wide adhesion keys
  Tuple assignment_;
  FirstVarRange range_;
  DeadlineChecker deadline_;
  std::uint64_t total_ = 0;
  bool aborted_ = false;
};

/// Per-run mutable state of evaluating CLFTJ: intermediate results become
/// factorized sets; a cache hit pushes a skip record and the emission point
/// expands the product of all active skips (Section 3.4). Same re-entrancy
/// contract as CountRun: plan and substrate are shared immutable inputs,
/// everything else is private to this run.
class EvalRun {
 public:
  /// `shared_intermediates` (optional) makes RunLimits::max_intermediate_
  /// tuples a *run-wide* budget across concurrent EvalRuns: every
  /// materialized entry is counted through the shared counter instead of
  /// this run's private stats, so all workers together never exceed the
  /// one budget a single-thread run gets. Null keeps the private
  /// accounting. `shared_cache` (optional) is a striped table shared by
  /// concurrent runs; factorized sets are frozen before insert and
  /// published through the stripe mutex, so a hit may hand this run a set
  /// built by another worker (see StripedCacheManager).
  EvalRun(const CachedPlan& plan, const CacheOptions& cache_options,
          TrieJoinContext* ctx, ExecStats* stats, const TupleCallback& cb,
          const RunLimits& limits, bool expand_at_leaf = true,
          AbortFlag* abort = nullptr,
          std::atomic<std::uint64_t>* shared_intermediates = nullptr,
          StripedCacheManager<FactorizedSetPtr>* shared_cache = nullptr)
      : expand_at_leaf_(expand_at_leaf),
        plan_(plan),
        ctx_(ctx),
        stats_(stats),
        cb_(cb),
        cache_(static_cast<int>(plan.cacheable.size()), cache_options, stats,
               shared_cache),
        building_(plan.cacheable.size()),
        completed_(plan.cacheable.size()),
        node_key_(plan.cacheable.size()),
        node_wide_(plan.cacheable.size()),
        assignment_(plan.order.size(), kNullValue),
        deadline_(limits.timeout_seconds, abort),
        abort_(abort),
        shared_intermediates_(shared_intermediates),
        max_intermediates_(limits.max_intermediate_tuples) {}

  /// Evaluates the results whose first variable lies in `range` and
  /// returns how many tuples it emitted. Repeated calls run further ranges,
  /// as CountRun::Run does.
  std::uint64_t Run(const FirstVarRange& range = {}) {
    range_ = range;
    emitted_ = 0;
    if (!aborted()) RCachedJoin(0);
    return emitted_;
  }

  bool timed_out() const { return timed_out_; }
  bool out_of_memory() const { return out_of_memory_; }

  /// Freezes and returns the root node's factorized set accumulated since
  /// the last call (only meaningful after Run() in maintain-everything
  /// mode). Returned mutable and uniquely owned so a parallel caller can
  /// splice morsel roots together without copying.
  std::shared_ptr<FactorizedSet> TakeRootSet();

 private:
  bool aborted() const { return timed_out_ || out_of_memory_; }

  void Emit();
  void RCachedJoin(int d);
  void AppendEntry(NodeId v);

  bool expand_at_leaf_;
  const CachedPlan& plan_;
  TrieJoinContext* ctx_;
  ExecStats* stats_;
  const TupleCallback& cb_;
  RunCache<FactorizedSetPtr> cache_;
  std::vector<std::vector<FactorizedEntry>> building_;
  std::vector<FactorizedSetPtr> completed_;
  std::vector<PackedKey> node_key_;
  std::vector<Tuple> node_wide_;  // spill buffers for wide adhesion keys
  std::vector<std::pair<NodeId, FactorizedSetPtr>> skips_;
  Tuple assignment_;
  FirstVarRange range_;
  DeadlineChecker deadline_;
  AbortFlag* abort_;
  std::atomic<std::uint64_t>* shared_intermediates_;
  std::uint64_t max_intermediates_;
  std::uint64_t emitted_ = 0;
  bool timed_out_ = false;
  bool out_of_memory_ = false;
};

/// CLFTJ — Leapfrog Trie Join with flexible caching (Figure 2 of the
/// paper). Runs LFTJ unchanged over a variable order that is strongly
/// compatible with an ordered tree decomposition; whenever execution enters
/// a TD node whose adhesion assignment was seen before, the entire subtree
/// scan is skipped and replaced by the cached intermediate count (or
/// factorized result set, in evaluation mode). Caching is optional per
/// entry — any admission/eviction decision preserves correctness — so the
/// memory footprint can be bounded dynamically.
///
/// This class is the single-threaded frontend over CountRun/EvalRun; the
/// parallel frontend over the same run states is ShardedCachedTrieJoin
/// (engine/sharded.h).
class CachedTrieJoin : public JoinEngine {
 public:
  struct Options {
    /// Explicit plan (e.g. a hand-built TD for the Figure 11/13
    /// experiments); when absent, PlanQuery chooses one per query.
    std::optional<TdPlan> plan;
    PlannerOptions planner;
    CacheOptions cache;

    // Cross-query reuse injection (the serving loop's CrossQueryReuse).
    // When set, the run skips its own plan resolution / trie builds and
    // uses the shared immutable state instead; the striped cache pointers
    // (borrowed, must outlive the run) replace the run's private cache so
    // successive requests of the same shape warm each other. Results are
    // identical either way.
    std::shared_ptr<const CachedPlan> prepared_plan;
    std::shared_ptr<const TrieJoinSubstrate> prepared_substrate;
    StripedCacheManager<std::uint64_t>* shared_count_cache = nullptr;
    StripedCacheManager<FactorizedSetPtr>* shared_eval_cache = nullptr;
  };

  CachedTrieJoin() = default;
  explicit CachedTrieJoin(Options options) : options_(std::move(options)) {}

  std::string name() const override { return "CLFTJ"; }

  RunResult Count(const Query& q, const Database& db,
                  const RunLimits& limits) override;

  RunResult Evaluate(const Query& q, const Database& db,
                     const TupleCallback& cb, const RunLimits& limits) override;

  /// Computes q(D) as a persistent factorized representation instead of a
  /// flat tuple stream (Section 3.4): intermediate sets are maintained at
  /// every TD node and the root's set *is* the result — counting and
  /// enumeration happen on demand via FactorizedQueryResult. Returns
  /// nullopt if the run hit a limit (limits/result details in *run).
  std::optional<FactorizedQueryResult> EvaluateFactorized(
      const Query& q, const Database& db, const RunLimits& limits,
      RunResult* run);

 private:
  CachedPlan ResolvePlan(const Query& q, const Database& db) const;

  /// Returns the prepared plan if injected, else resolves into *local.
  const CachedPlan* PlanFor(const Query& q, const Database& db,
                            std::optional<CachedPlan>* local);
  /// Emplaces a cursor over the prepared substrate if injected (checking
  /// its order matches the plan), else over a freshly built private one.
  void MakeContext(const Query& q, const Database& db, const CachedPlan& plan,
                   ExecStats* stats, std::optional<TrieJoinContext>* ctx);

  Options options_;
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_
