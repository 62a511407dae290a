#include "clftj/cached_trie_join.h"

#include <algorithm>
#include <utility>

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

void CountRun::RCachedJoin(int d, std::uint64_t f) {
  if (d == static_cast<int>(plan_.order.size())) {
    total_ += f;
    return;
  }
  const NodeId v = plan_.owner_of_depth[d];
  const bool entering = d > 0 && plan_.owner_of_depth[d - 1] != v;
  PackedKey& key = node_key_[v];
  bool try_cache = false;
  if (entering) {
    intrmd_[v] = 0;
    if (plan_.cacheable[v]) {
      try_cache = true;
      key = plan_.AdhesionKey(v, assignment_, &node_wide_[v]);
      std::uint64_t hit;
      if (cache_.Lookup(v, key, &hit)) {
        intrmd_[v] = hit;
        if (hit != 0) {
          // Skip the whole subtree of v; its contribution is the factor.
          RCachedJoin(plan_.subtree_last_depth[v] + 1, f * hit);
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
    RCachedJoin(d + 1, f);
    if (aborted_) break;
    if (is_last_owned) {
      std::uint64_t prod = 1;
      for (const NodeId c : plan_.children[v]) prod *= intrmd_[c];
      intrmd_[v] += prod;
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

CachedPlan CachedTrieJoin::ResolvePlan(const Query& q,
                                       const Database& db) const {
  return CachedPlan::Resolve(q, db, options_.plan, options_.planner,
                             options_.cache);
}

// The two reuse seams shared by Count/Evaluate/EvaluateFactorized: a
// prepared plan replaces local resolution, and a prepared substrate
// replaces the context's private trie build. Both are pure input
// substitutions — the run logic never knows which path provided them.

const CachedPlan* CachedTrieJoin::PlanFor(const Query& q, const Database& db,
                                          std::optional<CachedPlan>* local) {
  if (options_.prepared_plan != nullptr) return options_.prepared_plan.get();
  return &local->emplace(ResolvePlan(q, db));
}

void CachedTrieJoin::MakeContext(const Query& q, const Database& db,
                                 const CachedPlan& plan, ExecStats* stats,
                                 std::optional<TrieJoinContext>* ctx) {
  if (options_.prepared_substrate != nullptr) {
    // The substrate was built for one specific variable order; a mismatch
    // means the caller paired a plan and substrate from different shapes.
    CLFTJ_CHECK(options_.prepared_substrate->order() == plan.order);
    ctx->emplace(*options_.prepared_substrate, stats);
  } else {
    ctx->emplace(q, db, plan.order, stats);
  }
}

RunResult CachedTrieJoin::Count(const Query& q, const Database& db,
                                const RunLimits& limits) {
  RunResult result;
  Timer timer;
  std::optional<CachedPlan> local_plan;
  const CachedPlan* plan = PlanFor(q, db, &local_plan);
  std::optional<TrieJoinContext> ctx;
  MakeContext(q, db, *plan, &result.stats, &ctx);
  if (!ctx->HasEmptyAtom()) {
    CountRun run(*plan, options_.cache, &*ctx, &result.stats, limits,
                 limits.cancel, options_.shared_count_cache);
    result.count = run.Run();
    result.SetStatus(
        MergeRunStatus(run.timed_out(), /*any_out_of_memory=*/false,
                       limits.cancel));
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
  // fill below mutates it. (The shared striped caches are NOT consulted
  // here: maintain-everything runs build different factorized sets than
  // plan-default runs, so their payloads must not mix.)
  auto plan = options_.prepared_plan != nullptr
                  ? std::make_shared<CachedPlan>(*options_.prepared_plan)
                  : std::make_shared<CachedPlan>(ResolvePlan(q, db));
  // Intermediate sets must be collected everywhere so the root's set is the
  // complete (factorized) result.
  std::fill(plan->maintain.begin(), plan->maintain.end(), true);
  std::optional<TrieJoinContext> ctx_storage;
  MakeContext(q, db, *plan, &run->stats, &ctx_storage);
  TrieJoinContext& ctx = *ctx_storage;
  FactorizedSetPtr root;
  if (!ctx.HasEmptyAtom()) {
    const TupleCallback noop = [](const Tuple&) {};
    EvalRun eval(*plan, options_.cache, &ctx, &run->stats, noop, limits,
                 /*expand_at_leaf=*/false, limits.cancel);
    eval.Run();
    run->SetStatus(MergeRunStatus(eval.timed_out(), eval.out_of_memory(),
                                  limits.cancel));
    if (run->ok()) root = eval.TakeRootSet();
  } else {
    // An empty atom view makes the result empty: an entry-less root set.
    auto empty_root = std::make_shared<FactorizedSet>();
    empty_root->node = plan->root;
    root = std::move(empty_root);
  }
  run->seconds = timer.Seconds();
  if (!run->ok()) return std::nullopt;
  run->count = root == nullptr ? 0 : FactorizedCount(*root);
  run->stats.output_tuples = run->count;
  return FactorizedQueryResult(std::move(plan), std::move(root));
}

RunResult CachedTrieJoin::Evaluate(const Query& q, const Database& db,
                                   const TupleCallback& cb,
                                   const RunLimits& limits) {
  RunResult result;
  Timer timer;
  std::optional<CachedPlan> local_plan;
  const CachedPlan* plan = PlanFor(q, db, &local_plan);
  std::optional<TrieJoinContext> ctx;
  MakeContext(q, db, *plan, &result.stats, &ctx);
  if (!ctx->HasEmptyAtom()) {
    EvalRun run(*plan, options_.cache, &*ctx, &result.stats, cb, limits,
                /*expand_at_leaf=*/true, limits.cancel,
                /*shared_intermediates=*/nullptr,
                options_.shared_eval_cache);
    result.count = run.Run();
    result.SetStatus(MergeRunStatus(run.timed_out(), run.out_of_memory(),
                                    limits.cancel));
  }
  result.stats.output_tuples = result.count;
  result.seconds = timer.Seconds();
  return result;
}

}  // namespace clftj
