#include "engine/sharded.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "util/check.h"

namespace clftj {

namespace {

// Morsels per worker. Enough that the hub-heavy first values of a
// power-law domain spread over every worker, few enough that the
// per-morsel cost (one depth-0 seek, one stats copy) stays invisible.
constexpr std::size_t kMorselsPerWorker = 16;

// Cuts the first variable's domain into at most kMorselsPerWorker x
// `workers` ascending morsels. A single worker gets the one unbounded
// morsel (byte-for-byte the sequential execution).
//
// The boundaries come from an O(K) index split of one depth-0 atom's
// top-level sibling array — the smallest one, since the intersection is a
// subset of each participant. No leapfrog pass, no key buffer, no deadline
// concern. The split is near-equal in that atom's value array, not in the
// work: skew is what the many small morsels and the shared queue absorb.
std::vector<FirstVarRange> PrepareMorsels(const TrieJoinSubstrate& substrate,
                                          int workers) {
  if (workers <= 1) return {FirstVarRange{}};
  const std::vector<int>& participants = substrate.atoms_at_depth()[0];
  const std::vector<Value>* split = nullptr;
  for (const int a : participants) {
    const std::vector<Value>& top = substrate.views()[a].trie->values(0);
    if (split == nullptr || top.size() < split->size()) split = &top;
  }
  CLFTJ_CHECK(split != nullptr);
  // Two-tier views split on the main tier's top level only (the intervals
  // partition the whole value space, so added values land in some morsel
  // regardless). A view whose main tier is empty but whose overlay is not
  // offers no boundaries at all — run the one unbounded morsel.
  if (split->empty()) return {FirstVarRange{}};
  const std::size_t n = split->size();
  const std::size_t k = std::min<std::size_t>(
      kMorselsPerWorker * static_cast<std::size_t>(workers), n);
  std::vector<FirstVarRange> morsels(k);
  for (std::size_t m = 0; m < k; ++m) {
    // Sibling arrays hold distinct sorted values and k <= n, so consecutive
    // non-empty [m*n/k, (m+1)*n/k) index windows yield disjoint half-open
    // value intervals that jointly cover the atom's whole top level — and
    // therefore every depth-0 intersection key. The first morsel is left
    // unbounded below and the last unbounded above for the same reason.
    const std::size_t begin = m * n / k;
    const std::size_t end = (m + 1) * n / k;
    if (m > 0) morsels[m].lo = (*split)[begin];
    if (end < n) {
      morsels[m].has_hi = true;
      morsels[m].hi = (*split)[end];
    }
  }
  return morsels;
}

// The striped table a multi-worker run shares: the injected persistent one
// when set, else a run-owned table (returned through *owned) carrying the
// undivided global budget. One worker needs no shared table: it keeps the
// injected one if any, else its private cache, exactly as CLFTJ does.
template <typename V>
StripedCacheManager<V>* SharedTable(StripedCacheManager<V>* injected,
                                    std::size_t workers,
                                    const CacheOptions& cache,
                                    const CachedPlan& plan,
                                    std::unique_ptr<StripedCacheManager<V>>*
                                        owned) {
  if (injected != nullptr || workers <= 1) return injected;
  *owned = std::make_unique<StripedCacheManager<V>>(
      static_cast<int>(plan.cacheable.size()), cache,
      static_cast<int>(workers));
  return owned->get();
}

// Runs worker(0..n-1): worker 0 on the calling thread, the rest on their
// own threads. n == 1 stays entirely thread-free so a one-worker run is
// byte-for-byte the sequential execution.
void RunWorkers(std::size_t n, const std::function<void()>& worker) {
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (std::size_t w = 1; w < n; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

// The morsel queue every worker pulls from: ascending indices off one
// atomic counter. Once the run's stop flag trips it hands out nothing
// more, so a pre-tripped (cancelled) run executes no morsel at all.
class MorselQueue {
 public:
  MorselQueue(std::size_t size, const AbortFlag* abort)
      : size_(size), abort_(abort) {}

  bool Next(std::size_t* m) {
    if (abort_->Tripped()) return false;
    *m = next_.fetch_add(1, std::memory_order_relaxed);
    return *m < size_;
  }

 private:
  const std::size_t size_;
  const AbortFlag* abort_;
  std::atomic<std::size_t> next_{0};
};

// Per-morsel outcome, merged in morsel order after the workers join.
// `stats` is the slice of the worker's counters the morsel charged.
struct MorselOutcome {
  bool ran = false;
  std::uint64_t count = 0;
  ExecStats stats;
  bool timed_out = false;
  bool out_of_memory = false;
  std::vector<Tuple> tuples;             // Evaluate only
  std::shared_ptr<FactorizedSet> root;   // EvaluateFactorized only
};

// The wall-clock budget left after `elapsed` seconds of this run (plan
// resolution, substrate build), preserving 0 = unlimited. Handing workers
// the *remaining* budget instead of the original one keeps the whole run
// inside a single timeout window — setup and workers do not
// each get a fresh timer. A fully consumed budget becomes a tiny positive
// value so downstream DeadlineCheckers trip at their first stride instead
// of reading 0 as "unlimited".
RunLimits RemainingLimits(const RunLimits& limits, const Timer& timer) {
  RunLimits remaining = limits;
  if (limits.timeout_seconds > 0.0) {
    remaining.timeout_seconds =
        std::max(1e-9, limits.timeout_seconds - timer.Seconds());
  }
  return remaining;
}

// One parallel run's schedule, shared by Count, Evaluate and
// EvaluateFactorized: the morsels, how many workers pull them, the
// remaining budget every worker's one deadline window gets, the stop flag,
// the queue and the per-morsel outcomes.
//
// The stop flag is the caller-provided cancel handle when one is set (so
// an external Trip(kCancelled) stops every worker and the run reports the
// typed reason), else a run-local flag. Typed-status folding — OOM
// dominates, then an external cancel, then timeout — lives in
// MergeRunStatus (engine.cc): secondary "timeouts" of workers that only
// observed a sibling's trip are artifacts of the stop signal, not real
// deadlines.
struct MorselRun {
  MorselRun(const TrieJoinSubstrate& substrate, int threads,
            const RunLimits& limits, const Timer& timer)
      : morsels(PrepareMorsels(substrate, threads)),
        workers(std::min<std::size_t>(static_cast<std::size_t>(threads),
                                      morsels.size())),
        worker_limits(RemainingLimits(limits, timer)),
        abort(limits.cancel != nullptr ? limits.cancel : &local_abort),
        queue(morsels.size(), abort),
        out(morsels.size()) {}

  // Pulls morsels until the queue drains or `run` reports the worker's
  // run state aborted. The state charges one worker-wide ExecStats sink;
  // each morsel's share is moved into its outcome and the sink reset, so
  // stats merge in morsel order.
  void Drain(ExecStats* sink,
             const std::function<bool(MorselOutcome*, std::size_t)>& run) {
    std::size_t m;
    while (queue.Next(&m)) {
      MorselOutcome& o = out[m];
      o.ran = true;
      const bool ok = run(&o, m);
      o.stats = *sink;
      sink->Reset();
      if (!ok) return;
    }
  }

  // Folds the outcomes into *into in morsel order and sets its status. A
  // morsel the stop flag kept from running counts as timed out, which
  // MergeRunStatus reports under the flag's own reason (e.g. kCancelled).
  void Merge(RunResult* into) const {
    bool any_timed_out = false;
    bool any_oom = false;
    for (const MorselOutcome& o : out) {
      into->count += o.count;
      into->stats.Merge(o.stats);
      any_timed_out |= o.timed_out || !o.ran;
      any_oom |= o.out_of_memory;
    }
    into->SetStatus(MergeRunStatus(any_timed_out, any_oom, abort));
  }

  const std::vector<FirstVarRange> morsels;
  const std::size_t workers;
  const RunLimits worker_limits;
  AbortFlag local_abort;
  AbortFlag* const abort;
  MorselQueue queue;
  std::vector<MorselOutcome> out;
};

}  // namespace

const CachedPlan* ShardedCachedTrieJoin::PlanFor(
    const Query& q, const Database& db,
    std::optional<CachedPlan>* local) const {
  if (options_.prepared_plan != nullptr) return options_.prepared_plan.get();
  return &local->emplace(CachedPlan::Resolve(q, db, options_.plan,
                                             options_.planner, options_.cache));
}

const TrieJoinSubstrate* ShardedCachedTrieJoin::SubstrateFor(
    const Query& q, const Database& db, const CachedPlan& plan,
    std::optional<TrieJoinSubstrate>* local) const {
  if (options_.prepared_substrate != nullptr) {
    CLFTJ_CHECK(options_.prepared_substrate->order() == plan.order);
    return options_.prepared_substrate.get();
  }
  return &local->emplace(q, db, plan.order);
}

RunResult ShardedCachedTrieJoin::Count(const Query& q, const Database& db,
                                       const RunLimits& limits) {
  RunResult result;
  Timer timer;
  std::optional<CachedPlan> local_plan;
  const CachedPlan& plan = *PlanFor(q, db, &local_plan);
  std::optional<TrieJoinSubstrate> local_substrate;
  const TrieJoinSubstrate& substrate =
      *SubstrateFor(q, db, plan, &local_substrate);
  if (!substrate.HasEmptyAtom()) {
    MorselRun mr(substrate, EffectiveThreads(options_.threads), limits,
                 timer);
    // A run-owned table is merged into the stats after the join; an
    // injected one never is (that merge is only sound on a quiescent
    // table, and an injected cache stays live across runs).
    std::unique_ptr<StripedCacheManager<std::uint64_t>> owned;
    StripedCacheManager<std::uint64_t>* shared = SharedTable(
        options_.shared_count_cache, mr.workers, options_.cache, plan, &owned);
    RunWorkers(mr.workers, [&] {
      ExecStats sink;
      TrieJoinContext ctx(substrate, &sink);
      CountRun run(plan, options_.cache, &ctx, &sink, mr.worker_limits,
                   mr.abort, shared);
      mr.Drain(&sink, [&](MorselOutcome* o, std::size_t m) {
        o->count = run.Run(mr.morsels[m]);
        o->timed_out = run.timed_out();
        return !o->timed_out;
      });
    });
    mr.Merge(&result);
    if (owned != nullptr) result.stats.Merge(owned->AggregatedStats());
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

RunResult ShardedCachedTrieJoin::Evaluate(const Query& q, const Database& db,
                                          const TupleCallback& cb,
                                          const RunLimits& limits) {
  RunResult result;
  Timer timer;
  std::optional<CachedPlan> local_plan;
  const CachedPlan& plan = *PlanFor(q, db, &local_plan);
  std::optional<TrieJoinSubstrate> local_substrate;
  const TrieJoinSubstrate& substrate =
      *SubstrateFor(q, db, plan, &local_substrate);
  if (!substrate.HasEmptyAtom()) {
    MorselRun mr(substrate, EffectiveThreads(options_.threads), limits,
                 timer);
    std::unique_ptr<StripedCacheManager<FactorizedSetPtr>> owned;
    StripedCacheManager<FactorizedSetPtr>* shared = SharedTable(
        options_.shared_eval_cache, mr.workers, options_.cache, plan, &owned);
    std::atomic<std::uint64_t> materialized{0};  // run-wide, all workers
    RunWorkers(mr.workers, [&] {
      ExecStats sink;
      TrieJoinContext ctx(substrate, &sink);
      // Deterministic emission: buffer each morsel's tuples, drain in
      // morsel order below. Buffered tuples draw on the same run-wide
      // materialization budget as the intermediate entries, so parallel
      // evaluation keeps one bounded footprint overall.
      MorselOutcome* current = nullptr;
      const std::uint64_t budget = mr.worker_limits.max_intermediate_tuples;
      const TupleCallback buffer = [&current, budget, &mr,
                                    &materialized](const Tuple& t) {
        if (budget > 0 &&
            materialized.fetch_add(1, std::memory_order_relaxed) + 1 >
                budget) {
          if (!current->out_of_memory) {
            current->out_of_memory = true;
            mr.abort->Trip(RunStatus::kOutOfMemory);
          }
          return;
        }
        current->tuples.push_back(t);
      };
      EvalRun run(plan, options_.cache, &ctx, &sink, buffer,
                  mr.worker_limits, /*expand_at_leaf=*/true, mr.abort,
                  &materialized, shared);
      mr.Drain(&sink, [&](MorselOutcome* o, std::size_t m) {
        current = o;
        run.Run(mr.morsels[m]);
        o->count = o->tuples.size();
        o->timed_out = run.timed_out();
        o->out_of_memory |= run.out_of_memory();
        return !o->timed_out && !o->out_of_memory;
      });
    });

    mr.Merge(&result);
    if (owned != nullptr) result.stats.Merge(owned->AggregatedStats());
    // Drain buffers in morsel order — ascending first-variable intervals.
    // On a failed run this is a partial prefix-per-morsel result,
    // mirroring the partial emission of a timed-out single-thread run.
    for (MorselOutcome& o : mr.out) {
      for (const Tuple& t : o.tuples) cb(t);
      o.tuples = {};
    }
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

std::optional<FactorizedQueryResult> ShardedCachedTrieJoin::EvaluateFactorized(
    const Query& q, const Database& db, const RunLimits& limits,
    RunResult* run) {
  CLFTJ_CHECK(run != nullptr);
  *run = RunResult();
  Timer timer;
  // A prepared plan is shared and immutable — copy it before the maintain
  // fill mutates it. The injected striped caches are NOT consulted here:
  // maintain-everything runs build different factorized sets than
  // plan-default runs, so their payloads must not mix (a run-owned striped
  // table is still fine — it dies with the run).
  auto plan = options_.prepared_plan != nullptr
                  ? std::make_shared<CachedPlan>(*options_.prepared_plan)
                  : std::make_shared<CachedPlan>(CachedPlan::Resolve(
                        q, db, options_.plan, options_.planner,
                        options_.cache));
  // Intermediate sets must be collected everywhere so the root's set is the
  // complete (factorized) result. Done before workers start: the plan is
  // immutable once shared.
  std::fill(plan->maintain.begin(), plan->maintain.end(), true);
  std::optional<TrieJoinSubstrate> local_substrate;
  const TrieJoinSubstrate& substrate =
      *SubstrateFor(q, db, *plan, &local_substrate);

  auto root = std::make_shared<FactorizedSet>();
  root->node = plan->root;
  if (!substrate.HasEmptyAtom()) {
    MorselRun mr(substrate, EffectiveThreads(options_.threads), limits,
                 timer);
    std::unique_ptr<StripedCacheManager<FactorizedSetPtr>> owned;
    StripedCacheManager<FactorizedSetPtr>* shared =
        SharedTable<FactorizedSetPtr>(nullptr, mr.workers, options_.cache,
                                      *plan, &owned);
    std::atomic<std::uint64_t> materialized{0};  // run-wide, all workers
    const TupleCallback noop = [](const Tuple&) {};
    RunWorkers(mr.workers, [&] {
      ExecStats sink;
      TrieJoinContext ctx(substrate, &sink);
      EvalRun eval(*plan, options_.cache, &ctx, &sink, noop, mr.worker_limits,
                   /*expand_at_leaf=*/false, mr.abort, &materialized, shared);
      mr.Drain(&sink, [&](MorselOutcome* o, std::size_t m) {
        eval.Run(mr.morsels[m]);
        o->timed_out = eval.timed_out();
        o->out_of_memory = eval.out_of_memory();
        if (o->timed_out || o->out_of_memory) return false;
        o->root = eval.TakeRootSet();
        return true;
      });
    });

    mr.Merge(run);
    if (owned != nullptr) run->stats.Merge(owned->AggregatedStats());
    if (run->ok()) {
      // Concatenate morsel roots in morsel order: ascending contiguous
      // first-variable intervals reproduce the sequential entry order.
      std::size_t total = 0;
      for (const MorselOutcome& o : mr.out) total += o.root->entries.size();
      root->entries.reserve(total);
      for (MorselOutcome& o : mr.out) {
        std::move(o.root->entries.begin(), o.root->entries.end(),
                  std::back_inserter(root->entries));
        o.root = nullptr;
      }
    }
  }
  run->seconds = timer.Seconds();
  if (!run->ok()) return std::nullopt;
  run->count = FactorizedCount(*root);
  run->stats.output_tuples = run->count;
  return FactorizedQueryResult(std::move(plan),
                               FactorizedSetPtr(std::move(root)));
}

}  // namespace clftj
