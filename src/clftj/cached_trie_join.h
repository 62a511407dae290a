#ifndef CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_
#define CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "clftj/cache.h"
#include "clftj/factorized.h"
#include "clftj/plan.h"
#include "clftj/semiring.h"
#include "engine/engine.h"
#include "lftj/trie_join.h"
#include "td/planner.h"
#include "util/packed_key.h"

namespace clftj {

/// Restriction of a CLFTJ run to first-variable values in the half-open
/// interval [lo, hi) — one morsel of a CachedTrieJoin run, which cuts the
/// first variable's domain into small ascending morsels of these. The
/// default range covers the whole domain, which makes an unrestricted run
/// just the 1-morsel special case.
struct FirstVarRange {
  Value lo = std::numeric_limits<Value>::min();
  /// When false, the range is unbounded above and `hi` is ignored.
  bool has_hi = false;
  Value hi = 0;
};

/// Weight of one atom under the current assignment (indexed by VarId) in
/// a semiring aggregate (CachedTrieJoin::Aggregate). Called once per atom
/// per enumerated assignment region, from every worker of a run at once:
/// it must be pure and thread-safe. An empty function weighs every atom
/// S::One().
template <typename S>
using WeightFn = std::function<typename S::Value(AtomId, const Tuple&)>;

/// Per-run mutable state of semiring CLFTJ: RCachedJoin of Figure 2 with f
/// carried as a ⊗-factor and intrmd(v) as ⊕-accumulators, computing
/// ⊕ over µ ∈ q(D) of ⊗ over atoms φ of weight(φ, µ) (the paper's Section 6
/// extension, in the FAQ style of Abo Khamis et al.). An atom's weight
/// joins the factor at the depth of its last variable, so a cached subtree
/// value is the subtree's aggregate given the adhesion assignment and a hit
/// multiplies into the factor like a count. Without a weight function no
/// per-depth weight is computed: CountRun is plain counting.
///
/// This is the run half of the run/plan split: everything mutable —
/// iterators (via the TrieJoinContext cursor), the partial assignment,
/// intermediate values, the cache, stats and the deadline — lives here,
/// while the CachedPlan and the trie substrate behind `ctx` are shared
/// immutable inputs. N runs over one plan/substrate (each with its own
/// cursor, stats sink and cache) may execute concurrently, and one run
/// may run many ranges in turn under its single deadline window.
template <typename S>
class SemiringRun {
 public:
  using Value = typename S::Value;

  /// `abort` (optional) is a stop flag shared across concurrent runs —
  /// this run trips it on its own deadline expiry and halts within one
  /// deadline stride when any other run trips it. `shared_cache`
  /// (optional) replaces the run's private cache with a striped table
  /// shared by concurrent runs: this run then probes and fills that one
  /// table, and `cache_options` budgets are ignored (the striped table
  /// carries the global budget itself). `weight` (optional, borrowed)
  /// weighs the atoms of `q`, which must then be set too.
  SemiringRun(const CachedPlan& plan, const CacheOptions& cache_options,
              TrieJoinContext* ctx, ExecStats* stats, const RunLimits& limits,
              AbortFlag* abort = nullptr,
              StripedCacheManager<Value>* shared_cache = nullptr,
              const WeightFn<S>* weight = nullptr, const Query* q = nullptr);

  /// Aggregates the results whose first variable lies in `range`.
  /// Repeated calls run further ranges with the same cache and deadline;
  /// nothing runs once the run has aborted.
  Value Run(const FirstVarRange& range = {});

  bool timed_out() const { return aborted_; }

 private:
  template <bool kWeighted>
  void RCachedJoin(int d, Value f);

  const CachedPlan& plan_;
  TrieJoinContext* ctx_;
  const WeightFn<S>* weight_;  // null: unweighted, nothing below is used
  std::vector<std::vector<AtomId>> atoms_ending_at_;  // weighted runs only
  std::vector<Value> depth_weight_;                   // weighted runs only
  RunCache<Value> cache_;
  std::vector<Value> intrmd_;
  std::vector<PackedKey> node_key_;
  std::vector<Tuple> node_wide_;  // spill buffers for wide adhesion keys
  Tuple assignment_;
  FirstVarRange range_;
  DeadlineChecker deadline_;
  Value total_ = S::Zero();
  bool aborted_ = false;
};

/// Counting CLFTJ: the CountingSemiring run with no weight function.
using CountRun = SemiringRun<CountingSemiring>;

/// Per-run mutable state of evaluating CLFTJ: intermediate results become
/// factorized sets; a cache hit pushes a skip record and the emission point
/// expands the product of all active skips (Section 3.4). Same re-entrancy
/// contract as SemiringRun: plan and substrate are shared immutable inputs,
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
/// Execution is morsel-driven (after Leis et al., "Morsel-Driven
/// Parallelism", SIGMOD 2014). One run builds the shared immutable state
/// once — CachedPlan and TrieJoinSubstrate, both data-race-free under
/// concurrent reads — then cuts the depth-0 domain into kMorselsPerWorker x
/// workers small ascending value ranges (morsels). Each worker builds one
/// SemiringRun/EvalRun with a private TrieJoinContext cursor and pulls morsel
/// indices from one atomic counter until the queue drains, so a hub-heavy
/// prefix of a power-law domain spreads over every worker. The root
/// variable owns no cacheable state, so the split costs the cache nothing.
/// One worker (threads == 1, or a domain too small to split) runs the one
/// unbounded morsel on the calling thread: that is the sequential run.
///
/// At every worker count: the wall-clock budget is one window that opens
/// when Count/Aggregate/Evaluate/EvaluateFactorized is entered (plan
/// resolution and the trie build included); a caller-provided cancel flag
/// that is already tripped runs no morsel; and each worker's run state
/// lives for the whole run, so no morsel restarts the timer. A single AbortFlag — the caller's
/// cancel handle, else a run-local one — propagates the first deadline
/// expiry, materialization-budget hit or external cancel to every worker
/// within one deadline stride.
///
/// Cache placement: with two or more workers, every worker probes and
/// fills one StripedCacheManager — the injected persistent table when the
/// serving loop provides one, else a run-owned table carrying the
/// undivided CacheOptions budget — so a subtree computed for any morsel is
/// a hit for every other. One worker uses the injected table if any, else
/// a private unsynchronized cache. A weighted aggregate's cached values
/// depend on its weight function, so Aggregate never uses an injected
/// table: only run-owned ones.
///
/// Determinism: morsels are ascending value intervals and the trie
/// enumerates ascending, so summing counts (⊕-folding aggregates) and
/// concatenating buffered tuples and factorized root entries in morsel
/// order reproduce the one-worker result — identical counts, tuple sets
/// and exact aggregates at every worker count. A floating-point ⊕
/// (RealSemiring) groups its additions by morsel, so it agrees with the
/// one-worker value up to rounding. Stats merge per morsel in morsel
/// order, then the run-owned table's per-stripe counters in stripe order. With two or more workers
/// the tuple stream's interleaving and the counter values vary slightly
/// across runs: a cache hit expands a skipped subtree at the emission
/// point, and who hits depends on which worker inserted first.
class CachedTrieJoin : public JoinEngine {
 public:
  /// The engine options (worker count, cache, cross-query reuse
  /// injection; see EngineOptions) plus an explicit plan and planner
  /// policy. The cache options describe the *global* budget: a run-owned
  /// striped table splits it across its stripes, never across workers.
  /// Injected plan/substrate replace the run's own resolution/build, and
  /// an injected striped cache (borrowed, must outlive the run) replaces
  /// the run's own table so successive requests of one shape warm each
  /// other. Results are identical either way.
  struct Options : EngineOptions {
    Options() { threads = 1; }

    /// Explicit plan (e.g. a hand-built TD for the Figure 11/13
    /// experiments); when absent, PlanQuery chooses one per query.
    std::optional<TdPlan> plan;
    PlannerOptions planner;
  };

  CachedTrieJoin() = default;
  /// `name` is what name() reports: MakeEngine passes the name the engine
  /// was asked for ("CLFTJ" or "CLFTJ-P") so labels follow the request.
  explicit CachedTrieJoin(Options options, std::string name = "CLFTJ")
      : options_(std::move(options)), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  RunResult Count(const Query& q, const Database& db,
                  const RunLimits& limits) override;

  /// Computes the semiring aggregate of q(D) under `weight` (empty: every
  /// atom weighs S::One()) into *value, through the same morsel driver as
  /// Count: typed status, cancellation, deadline window and worker count
  /// alike; morsel partials merge with ⊕ in morsel order. `weight` is
  /// called from every worker at once and must be pure and thread-safe.
  /// RunResult::count stays 0. Instantiated for the five semirings of
  /// semiring.h.
  template <typename S>
  RunResult Aggregate(const Query& q, const Database& db,
                      const WeightFn<S>& weight, const RunLimits& limits,
                      typename S::Value* value);

  /// One worker streams tuples straight into `cb`, charging nothing to the
  /// materialization budget for them. Two or more workers buffer each
  /// morsel's tuples and drain the buffers through `cb` in morsel order
  /// after the workers join; buffered tuples and intermediate entries draw
  /// on one run-wide limits.max_intermediate_tuples budget shared by all
  /// workers. That is deliberately stricter than the one-worker stream: a
  /// parallel run whose buffered output would exceed the budget reports
  /// kOutOfMemory where one worker would stream through. Callers that need
  /// unbounded streaming of huge results should run one worker, or use
  /// EvaluateFactorized (whose factorized root is usually far smaller than
  /// the flat result).
  RunResult Evaluate(const Query& q, const Database& db,
                     const TupleCallback& cb, const RunLimits& limits) override;

  /// Computes q(D) as a persistent factorized representation instead of a
  /// flat tuple stream (Section 3.4): intermediate sets are maintained at
  /// every TD node and the root's set *is* the result — counting and
  /// enumeration happen on demand via FactorizedQueryResult. The root set
  /// is the morsel roots' entries concatenated in morsel order. Returns
  /// nullopt if the run hit a limit (limits/result details in *run).
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
  /// The Count/Aggregate driver: `injected` is the striped table to share
  /// (Count's persistent one), null for run-owned tables only.
  template <typename S>
  RunResult SemiringJoin(const Query& q, const Database& db,
                         const WeightFn<S>* weight,
                         StripedCacheManager<typename S::Value>* injected,
                         const RunLimits& limits, typename S::Value* value);

  Options options_;
  std::string name_ = "CLFTJ";
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_CACHED_TRIE_JOIN_H_
