#ifndef CLFTJ_ENGINE_REUSE_H_
#define CLFTJ_ENGINE_REUSE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "clftj/cache.h"
#include "clftj/factorized.h"
#include "clftj/plan.h"
#include "clftj/plan_cache.h"
#include "data/database.h"
#include "engine/substrate_registry.h"
#include "query/query.h"
#include "td/planner.h"
#include "util/stats.h"

namespace clftj {

/// Switches for the serving loop's cross-query reuse layer. The plan cache
/// and the shared trie substrates are always on under `enabled`, the
/// master switch (off = every request plans, builds and caches from
/// scratch, exactly the pre-reuse behavior).
struct ReuseOptions {
  bool enabled = true;
  /// Persistent striped subtree-result caches, one per shape, that
  /// successive requests warm for each other. NodeId keyspaces are
  /// per-plan, which is why the caches are per-shape — sharing one table
  /// across shapes would mix keyspaces. A generation bump (bulk Put) drops
  /// them all; an ApplyDelta evicts only entries whose adhesion key may
  /// touch the changed values (docs/incremental.md).
  bool persistent_cache = true;
};

/// The persistent cache pair of one query shape: the count-mode and the
/// eval-mode striped tables. Both are keyed by (NodeId, adhesion key)
/// under the shape's plan; eval payloads are FactorizedSets frozen before
/// insert (the PR 3 invariant that makes cross-request sharing safe). Both
/// use the lock-free hot-slot read path (StripedCacheManager hot_reads), so
/// batch members polling the same hot subtree do not serialize on the
/// stripe mutex.
struct ShapeCaches {
  StripedCacheManager<std::uint64_t> count;
  StripedCacheManager<FactorizedSetPtr> eval;

  ShapeCaches(int num_nodes, const CacheOptions& options, int stripes_hint)
      : count(num_nodes, options, stripes_hint, /*hot_reads=*/true),
        eval(num_nodes, options, stripes_hint, /*hot_reads=*/true) {}
};

/// The cross-query reuse layer under QueryService (and clftj_cli --repeat):
/// one object that owns the plan cache, the substrate registry and the
/// per-shape persistent caches, bound to a single (planner, cache-options)
/// configuration. Prepare() is called once per request before engine
/// construction; the returned handles are injected through EngineOptions.
/// Results are bit-identical warm vs cold — reuse changes where immutable
/// inputs come from, never what they contain.
class CrossQueryReuse {
 public:
  /// `stripes_hint` sizes the persistent striped caches (number of
  /// concurrent probers to expect, e.g. workers x CLFTJ-P threads);
  /// <= 0 lets the cache pick.
  CrossQueryReuse(const ReuseOptions& options, PlannerOptions planner,
                  CacheOptions cache, int stripes_hint = 0);

  /// Everything Prepare resolved for one request. All fields are null when
  /// reuse is off; `caches` is also null without persistent_cache.
  struct Prepared {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_ptr<const TrieJoinSubstrate> substrate;
    std::shared_ptr<ShapeCaches> caches;
  };

  /// Resolves the reusable state for `q` at db's current generation,
  /// charging the reuse counters to *stats (may be null). Thread-safe; may
  /// throw if a cold trie build throws (injected faults) — already-cached
  /// state is unaffected.
  Prepared Prepare(const Query& q, const Database& db, ExecStats* stats);

  const ReuseOptions& options() const { return options_; }
  SubstrateRegistry& registry() { return registry_; }
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  struct CacheEntry {
    std::string key;
    /// The plan the tables' NodeId keyspace belongs to, plus the shape's
    /// atoms — both needed to decide, per delta, which entries a data
    /// change can actually touch (see docs/incremental.md).
    std::shared_ptr<const CachedPlan> plan;
    std::vector<Atom> atoms;
    std::shared_ptr<ShapeCaches> caches;
  };

  std::shared_ptr<ShapeCaches> AcquireShapeCaches(
      const Query& q, const Database& db,
      const std::shared_ptr<const CachedPlan>& plan);

  /// Targeted invalidation after ApplyDelta batches: evicts only cache
  /// entries whose adhesion key may intersect the changed values. Called
  /// under mu_.
  void InvalidateForDeltas(const std::vector<const DeltaLogEntry*>& deltas);

  /// Shapes whose persistent caches stay resident; the least recently used
  /// beyond that are dropped.
  static constexpr std::size_t kMaxShapeCaches = 32;

  const ReuseOptions options_;
  const PlannerOptions planner_;
  const CacheOptions cache_;
  const int stripes_hint_;
  PlanCache plan_cache_;
  SubstrateRegistry registry_;

  std::mutex mu_;
  std::uint64_t caches_generation_ = 0;
  std::uint64_t caches_minor_ = 0;
  std::list<CacheEntry> cache_lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<CacheEntry>::iterator>
      cache_index_;
};

}  // namespace clftj

#endif  // CLFTJ_ENGINE_REUSE_H_
