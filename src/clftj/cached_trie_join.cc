#include "clftj/cached_trie_join.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace clftj {

// Key extraction and admission both live on CachedPlan: keys are packed
// into a fixed-size PackedKey straight from the assignment (allocation-free
// for adhesions up to PackedKey::kInlineDims; wider adhesions stage their
// values in a per-node spill buffer), and the support-threshold probe is a
// precomputed per-value bitmap test (CachedPlan::AdmitsKey) instead of a
// hash lookup per dimension.
//
// Both run states honor a FirstVarRange: at depth 0 the leapfrog join is
// seeked to range.lo before iteration and the loop stops at the first key
// >= range.hi. Because morsels are contiguous value intervals and the trie
// enumerates keys in ascending order, concatenating the per-morsel outputs
// in morsel order reproduces the unrestricted run exactly.

template <typename S>
SemiringRun<S>::SemiringRun(const CachedPlan& plan,
                            const CacheOptions& cache_options,
                            TrieJoinContext* ctx, ExecStats* stats,
                            const RunLimits& limits, AbortFlag* abort,
                            StripedCacheManager<Value>* shared_cache,
                            const WeightFn<S>* weight, const Query* q)
    : plan_(plan),
      ctx_(ctx),
      weight_(weight != nullptr && *weight ? weight : nullptr),
      cache_(static_cast<int>(plan.cacheable.size()), cache_options, stats,
             shared_cache),
      intrmd_(plan.cacheable.size(), S::Zero()),
      node_key_(plan.cacheable.size()),
      node_wide_(plan.cacheable.size()),
      assignment_(plan.order.size(), kNullValue),
      deadline_(limits.timeout_seconds, abort) {
  if (weight_ == nullptr) return;
  CLFTJ_CHECK(q != nullptr);
  // An atom's weight is applied at the depth of its last variable.
  atoms_ending_at_.resize(plan.order.size());
  depth_weight_.assign(plan.order.size(), S::One());
  for (AtomId a = 0; a < q->num_atoms(); ++a) {
    int last = 0;
    for (const VarId x : q->atom(a).Vars()) {
      last = std::max(last, plan.var_rank[x]);
    }
    atoms_ending_at_[last].push_back(a);
  }
}

template <typename S>
typename S::Value SemiringRun<S>::Run(const FirstVarRange& range) {
  range_ = range;
  total_ = S::Zero();
  if (aborted_) return total_;
  if (weight_ != nullptr) {
    RCachedJoin<true>(0, S::One());
  } else {
    RCachedJoin<false>(0, S::One());
  }
  return total_;
}

// kWeighted is fixed per run, so the unweighted instance carries no weight
// code at all: for CountingSemiring it is the plain counting recursion.
template <typename S>
template <bool kWeighted>
void SemiringRun<S>::RCachedJoin(int d, Value f) {
  if (d == static_cast<int>(plan_.order.size())) {
    total_ = S::Plus(total_, f);
    return;
  }
  const NodeId v = plan_.owner_of_depth[d];
  const bool entering = d > 0 && plan_.owner_of_depth[d - 1] != v;
  PackedKey& key = node_key_[v];
  bool try_cache = false;
  if (entering) {
    intrmd_[v] = S::Zero();
    if (plan_.cacheable[v]) {
      try_cache = true;
      key = plan_.AdhesionKey(v, assignment_, &node_wide_[v]);
      Value hit;
      if (cache_.Lookup(v, key, &hit)) {
        intrmd_[v] = hit;
        // Skip the whole subtree of v; its contribution is the factor.
        // Zero annihilates ⊗, so a dead branch is not descended at all.
        if (!(hit == S::Zero())) {
          RCachedJoin<kWeighted>(plan_.subtree_last_depth[v] + 1,
                                 S::Times(f, hit));
        }
        return;
      }
    }
  }

  LeapfrogJoin* join = ctx_->EnterDepth(d);
  const bool is_last_owned = d == plan_.last_depth[v];
  if (d == 0 && !join->AtEnd() && join->Key() < range_.lo) {
    join->Seek(range_.lo);
  }
  while (!join->AtEnd()) {
    if (d == 0 && range_.has_hi && join->Key() >= range_.hi) break;
    if (deadline_.Expired()) {
      aborted_ = true;
      break;
    }
    assignment_[plan_.order[d]] = join->Key();
    if constexpr (kWeighted) {
      // ⊗ of the weights of the atoms whose last variable sits at depth d.
      Value w = S::One();
      for (const AtomId a : atoms_ending_at_[d]) {
        w = S::Times(w, (*weight_)(a, assignment_));
      }
      depth_weight_[d] = w;
      RCachedJoin<kWeighted>(d + 1, S::Times(f, w));
    } else {
      RCachedJoin<kWeighted>(d + 1, f);
    }
    if (aborted_) break;
    if (is_last_owned) {
      Value prod = S::One();
      if constexpr (kWeighted) {
        // Weights of the atoms completing at this node's own depths.
        for (int dd = plan_.first_depth[v]; dd <= plan_.last_depth[v]; ++dd) {
          prod = S::Times(prod, depth_weight_[dd]);
        }
      }
      for (const NodeId c : plan_.children[v]) {
        prod = S::Times(prod, intrmd_[c]);
      }
      intrmd_[v] = S::Plus(intrmd_[v], prod);
    }
    join->Next();
  }
  assignment_[plan_.order[d]] = kNullValue;
  ctx_->LeaveDepth(d);

  if (try_cache && !aborted_ && plan_.AdmitsKey(v, key)) {
    cache_.Insert(v, key, intrmd_[v]);
  }
}

void EvalRun::Emit() {
  if (!expand_at_leaf_) return;  // factorized mode: the sets are the result
  if (skips_.empty()) {
    ++emitted_;
    stats_->memory_accesses += assignment_.size();
    cb_(assignment_);
    return;
  }
  std::vector<const FactorizedSet*> sets;
  sets.reserve(skips_.size());
  for (const auto& [node, set] : skips_) sets.push_back(set.get());
  FactorizedExpand(sets, plan_, &assignment_, [this] {
    ++emitted_;
    stats_->memory_accesses += assignment_.size();
    cb_(assignment_);
  });
}

void EvalRun::RCachedJoin(int d) {
  if (d == static_cast<int>(plan_.order.size())) {
    Emit();
    return;
  }
  const NodeId v = plan_.owner_of_depth[d];
  const bool entering = d > 0 && plan_.owner_of_depth[d - 1] != v;
  PackedKey& key = node_key_[v];
  bool try_cache = false;
  if (entering) {
    if (plan_.maintain[v]) {
      building_[v].clear();
      completed_[v] = nullptr;
    }
    if (plan_.cacheable[v]) {
      try_cache = true;
      key = plan_.AdhesionKey(v, assignment_, &node_wide_[v]);
      FactorizedSetPtr hit;
      if (cache_.Lookup(v, key, &hit)) {
        completed_[v] = hit;
        if (!hit->entries.empty()) {
          skips_.emplace_back(v, std::move(hit));
          RCachedJoin(plan_.subtree_last_depth[v] + 1);
          skips_.pop_back();
        }
        return;
      }
    }
  }

  LeapfrogJoin* join = ctx_->EnterDepth(d);
  const bool is_last_owned = d == plan_.last_depth[v];
  if (d == 0 && !join->AtEnd() && join->Key() < range_.lo) {
    join->Seek(range_.lo);
  }
  while (!join->AtEnd()) {
    if (d == 0 && range_.has_hi && join->Key() >= range_.hi) break;
    if (deadline_.Expired()) {
      timed_out_ = true;
      break;
    }
    assignment_[plan_.order[d]] = join->Key();
    RCachedJoin(d + 1);
    if (aborted()) break;
    if (is_last_owned && plan_.maintain[v]) {
      AppendEntry(v);
      if (aborted()) break;
    }
    join->Next();
  }
  assignment_[plan_.order[d]] = kNullValue;
  ctx_->LeaveDepth(d);
  if (aborted()) return;

  if (entering && plan_.maintain[v]) {
    // Leaving v: freeze its factorized set for the parent's entries.
    // try_cache can only be set here: cacheable[v] implies maintain[v]
    // (checked in CachedPlan::Build), so the insert is always reachable.
    auto set = std::make_shared<FactorizedSet>();
    set->node = v;
    set->entries = std::move(building_[v]);
    building_[v].clear();
    completed_[v] = std::move(set);
    if (try_cache && plan_.AdmitsKey(v, key)) {
      cache_.Insert(v, key, completed_[v]);
    }
  }
}

void EvalRun::AppendEntry(NodeId v) {
  FactorizedEntry entry;
  const int first = plan_.first_depth[v];
  const int last = plan_.last_depth[v];
  entry.local.reserve(last - first + 1);
  for (int d = first; d <= last; ++d) {
    entry.local.push_back(assignment_[plan_.order[d]]);
  }
  entry.children.reserve(plan_.children[v].size());
  bool empty_product = false;
  for (const NodeId c : plan_.children[v]) {
    const FactorizedSetPtr& child = completed_[c];
    if (child == nullptr || child->entries.empty()) {
      empty_product = true;
      break;
    }
    entry.children.push_back(child);
  }
  if (empty_product) return;  // contributes zero tuples — skip storing
  ++stats_->intermediate_tuples;
  stats_->memory_accesses += entry.local.size();
  if (fault::Fire(fault::Site::kMaterialize)) {
    // Injected allocation failure while materializing: surfaces exactly as
    // the materialization budget does — a typed out-of-memory abort.
    out_of_memory_ = true;
    if (abort_ != nullptr) abort_->Trip(RunStatus::kOutOfMemory);
    return;
  }
  if (max_intermediates_ > 0) {
    // With a shared counter the budget spans all concurrent runs — K
    // shards together get the one budget a single-thread run gets.
    const std::uint64_t used =
        shared_intermediates_ != nullptr
            ? shared_intermediates_->fetch_add(1, std::memory_order_relaxed) +
                  1
            : stats_->intermediate_tuples;
    if (used > max_intermediates_) {
      out_of_memory_ = true;
      // Stop sibling workers too: the shared budget is blown for the whole
      // run, not just this shard.
      if (abort_ != nullptr) abort_->Trip(RunStatus::kOutOfMemory);
      return;
    }
  }
  building_[v].push_back(std::move(entry));
}

std::shared_ptr<FactorizedSet> EvalRun::TakeRootSet() {
  auto set = std::make_shared<FactorizedSet>();
  set->node = plan_.root;
  set->entries = std::move(building_[plan_.root]);
  building_[plan_.root].clear();
  return set;
}

namespace {

// Morsels per worker. Enough that the hub-heavy first values of a
// power-law domain spread over every worker, few enough that the
// per-morsel cost (one depth-0 seek, one stats copy) stays invisible.
constexpr std::size_t kMorselsPerWorker = 16;

// Cuts the first variable's domain into at most kMorselsPerWorker x
// `workers` ascending morsels. A single worker gets the one unbounded
// morsel: the sequential run.
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
// injected one if any, else its private unsynchronized cache.
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
// own threads. n == 1 starts no thread.
void RunWorkers(std::size_t n, const std::function<void()>& worker) {
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (std::size_t w = 1; w < n; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

// The morsel queue every worker pulls from: ascending indices off one
// atomic counter. Once the run's stop flag (if any) trips it hands out
// nothing more, so a pre-tripped (cancelled) run executes no morsel at all.
class MorselQueue {
 public:
  MorselQueue(std::size_t size, const AbortFlag* abort)
      : size_(size), abort_(abort) {}

  bool Next(std::size_t* m) {
    if (abort_ != nullptr && abort_->Tripped()) return false;
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
// Count and Aggregate keep their ⊕-partials beside it (SemiringJoin).
struct MorselOutcome {
  bool ran = false;
  std::uint64_t count = 0;                // Evaluate only
  ExecStats stats;
  bool timed_out = false;
  bool out_of_memory = false;
  std::vector<Tuple> tuples;             // Evaluate only
  std::shared_ptr<FactorizedSet> root;   // EvaluateFactorized only
};

// The wall-clock budget left after the time `timer` has run (plan
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

// One run's schedule, shared by Count, Aggregate, Evaluate and
// EvaluateFactorized: the morsels, how many workers pull them, the
// remaining budget every worker's one deadline window gets, the stop flag,
// the queue and the per-morsel outcomes.
//
// The stop flag is the caller-provided cancel handle when one is set (so
// an external Trip(kCancelled) stops every worker and the run reports the
// typed reason), else a run-local flag for two or more workers. One worker
// without a cancel handle has no one to stop, so it runs flagless and its
// deadline checker keeps the no-limit fast path. Typed-status folding — OOM
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
        abort(limits.cancel != nullptr ? limits.cancel
              : workers > 1            ? &local_abort
                                       : nullptr),
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

const CachedPlan* CachedTrieJoin::PlanFor(
    const Query& q, const Database& db,
    std::optional<CachedPlan>* local) const {
  if (options_.prepared_plan != nullptr) return options_.prepared_plan.get();
  return &local->emplace(CachedPlan::Resolve(q, db, options_.plan,
                                             options_.planner, options_.cache));
}

const TrieJoinSubstrate* CachedTrieJoin::SubstrateFor(
    const Query& q, const Database& db, const CachedPlan& plan,
    std::optional<TrieJoinSubstrate>* local) const {
  if (options_.prepared_substrate != nullptr) {
    CLFTJ_CHECK(options_.prepared_substrate->order() == plan.order);
    return options_.prepared_substrate.get();
  }
  return &local->emplace(q, db, plan.order);
}

template <typename S>
RunResult CachedTrieJoin::SemiringJoin(
    const Query& q, const Database& db, const WeightFn<S>* weight,
    StripedCacheManager<typename S::Value>* injected, const RunLimits& limits,
    typename S::Value* value) {
  using V = typename S::Value;
  RunResult result;
  Timer timer;
  *value = S::Zero();
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
    std::unique_ptr<StripedCacheManager<V>> owned;
    StripedCacheManager<V>* shared =
        SharedTable(injected, mr.workers, options_.cache, plan, &owned);
    // One slot per morsel, each written by the one worker that ran it (a
    // struct, so a bool payload is not packed into a shared vector<bool>).
    struct Partial {
      V value = S::Zero();
    };
    std::vector<Partial> partial(mr.morsels.size());
    RunWorkers(mr.workers, [&] {
      ExecStats sink;
      TrieJoinContext ctx(substrate, &sink);
      SemiringRun<S> run(plan, options_.cache, &ctx, &sink, mr.worker_limits,
                         mr.abort, shared, weight, &q);
      mr.Drain(&sink, [&](MorselOutcome* o, std::size_t m) {
        partial[m].value = run.Run(mr.morsels[m]);
        o->timed_out = run.timed_out();
        return !o->timed_out;
      });
    });
    mr.Merge(&result);
    if (owned != nullptr) result.stats.Merge(owned->AggregatedStats());
    for (const Partial& p : partial) *value = S::Plus(*value, p.value);
  }
  result.seconds = timer.Seconds();
  return result;
}

template <typename S>
RunResult CachedTrieJoin::Aggregate(const Query& q, const Database& db,
                                    const WeightFn<S>& weight,
                                    const RunLimits& limits,
                                    typename S::Value* value) {
  return SemiringJoin<S>(q, db, &weight, nullptr, limits, value);
}

// The five semirings of semiring.h, the only ones any caller uses.
#define CLFTJ_INSTANTIATE_SEMIRING(S)                                      \
  template class SemiringRun<S>;                                           \
  template RunResult CachedTrieJoin::Aggregate<S>(                         \
      const Query&, const Database&, const WeightFn<S>&, const RunLimits&, \
      S::Value*);
CLFTJ_INSTANTIATE_SEMIRING(CountingSemiring)
CLFTJ_INSTANTIATE_SEMIRING(RealSemiring)
CLFTJ_INSTANTIATE_SEMIRING(MaxPlusSemiring)
CLFTJ_INSTANTIATE_SEMIRING(MinPlusSemiring)
CLFTJ_INSTANTIATE_SEMIRING(BooleanSemiring)
#undef CLFTJ_INSTANTIATE_SEMIRING

RunResult CachedTrieJoin::Count(const Query& q, const Database& db,
                                const RunLimits& limits) {
  std::uint64_t count = 0;
  RunResult result = SemiringJoin<CountingSemiring>(
      q, db, nullptr, options_.shared_count_cache, limits, &count);
  result.count = count;
  result.stats.output_tuples = count;
  return result;
}

RunResult CachedTrieJoin::Evaluate(const Query& q, const Database& db,
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
    // One worker streams into `cb` in enumeration order. Several workers
    // buffer each morsel's tuples, drained in morsel order below, and the
    // buffered tuples draw on the same run-wide materialization budget as
    // the intermediate entries, so parallel evaluation keeps one bounded
    // footprint overall.
    const bool stream = mr.workers == 1;
    std::atomic<std::uint64_t> materialized{0};  // run-wide, all workers
    RunWorkers(mr.workers, [&] {
      ExecStats sink;
      TrieJoinContext ctx(substrate, &sink);
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
      EvalRun run(plan, options_.cache, &ctx, &sink, stream ? cb : buffer,
                  mr.worker_limits, /*expand_at_leaf=*/true, mr.abort,
                  &materialized, shared);
      mr.Drain(&sink, [&](MorselOutcome* o, std::size_t m) {
        current = o;
        const std::uint64_t emitted = run.Run(mr.morsels[m]);
        o->count = stream ? emitted : o->tuples.size();
        o->timed_out = run.timed_out();
        o->out_of_memory |= run.out_of_memory();
        return !o->timed_out && !o->out_of_memory;
      });
    });

    mr.Merge(&result);
    if (owned != nullptr) result.stats.Merge(owned->AggregatedStats());
    // Drain buffers in morsel order — ascending first-variable intervals.
    // On a failed run this is a partial prefix-per-morsel result,
    // mirroring the partial emission of a timed-out one-worker stream.
    for (MorselOutcome& o : mr.out) {
      for (const Tuple& t : o.tuples) cb(t);
      o.tuples = {};
    }
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

std::optional<FactorizedQueryResult> CachedTrieJoin::EvaluateFactorized(
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
      // first-variable intervals reproduce the one-worker entry order.
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
