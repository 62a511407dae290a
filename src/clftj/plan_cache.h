#ifndef CLFTJ_CLFTJ_PLAN_CACHE_H_
#define CLFTJ_CLFTJ_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clftj/plan.h"
#include "data/database.h"
#include "query/query.h"
#include "td/planner.h"
#include "util/stats.h"

namespace clftj {

/// LRU cache over resolved CachedPlans, keyed on the canonical query shape
/// alone. TD enumeration, order derivation and the admission-bitmap build
/// are pure overhead to repeat per request — a plan is a deterministic
/// function of the query shape and the database statistics, so each entry
/// records the statistics it was resolved under and is revalidated against
/// the live database on every hit:
///
///  - a *generation* change (bulk Put) always re-resolves — the data was
///    replaced wholesale, the old statistics say nothing (charged as a
///    miss, which is how full invalidation stays observable);
///  - a *minor-version* change (ApplyDelta, see docs/incremental.md)
///    re-resolves only when some referenced relation's cardinality drifted
///    beyond 2x of what the plan was resolved against (or crossed zero) —
///    small deltas leave the plan choice unchanged, so they stay hits.
///
/// One PlanCache is bound to a single (PlannerOptions, CacheOptions)
/// configuration — those knobs change the resolved plan but are fixed per
/// service, so they stay out of the key. Thread-safe; resolution happens
/// outside the lock, and when two threads race on the same cold shape the
/// first inserted plan wins and both report a miss (both did the work).
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Returns the shared plan for q's shape, valid for db's current
  /// statistics, resolving and inserting it on a miss or on revalidation
  /// failure. Charges plan_cache_hits / plan_cache_misses / plan_resolve_ns
  /// to *stats (stats may be null).
  std::shared_ptr<const CachedPlan> Resolve(const Query& q, const Database& db,
                                            const PlannerOptions& planner,
                                            const CacheOptions& cache_options,
                                            ExecStats* stats);

  std::size_t Size() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedPlan> plan;
    /// The statistics snapshot the plan was resolved under: database
    /// versions plus each referenced relation's visible cardinality (the
    /// drift baseline — deliberately not refreshed on minor-version hits,
    /// so cumulative small deltas eventually trip the 2x bound).
    std::uint64_t generation = 0;
    std::uint64_t minor = 0;
    std::vector<std::pair<std::string, std::size_t>> sizes;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_PLAN_CACHE_H_
