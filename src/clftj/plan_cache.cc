#include "clftj/plan_cache.h"

#include <utility>

#include "query/shape.h"
#include "util/timer.h"

namespace clftj {

namespace {

// Each referenced relation's current visible cardinality, in first-mention
// atom order (deterministic; duplicates skipped).
std::vector<std::pair<std::string, std::size_t>> RelationSizes(
    const Query& q, const Database& db) {
  std::vector<std::pair<std::string, std::size_t>> sizes;
  for (const Atom& atom : q.atoms()) {
    bool seen = false;
    for (const auto& [name, n] : sizes) {
      if (name == atom.relation) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const Relation* rel = db.Find(atom.relation);
    sizes.emplace_back(atom.relation, rel != nullptr ? rel->size() : 0);
  }
  return sizes;
}

// True iff some relation's cardinality moved beyond 2x of the baseline the
// plan was resolved against, or crossed zero — the point where cost-based
// choices (TD selection, variable order) could plausibly flip.
bool StatsDrifted(const std::vector<std::pair<std::string, std::size_t>>& base,
                  const Database& db) {
  for (const auto& [name, n0] : base) {
    const Relation* rel = db.Find(name);
    const std::size_t n1 = rel != nullptr ? rel->size() : 0;
    if ((n0 == 0) != (n1 == 0)) return true;
    if (n1 > 2 * n0 || 2 * n1 < n0) return true;
  }
  return false;
}

}  // namespace

std::shared_ptr<const CachedPlan> PlanCache::Resolve(
    const Query& q, const Database& db, const PlannerOptions& planner,
    const CacheOptions& cache_options, ExecStats* stats) {
  const std::string key = CanonicalShapeKey(q);
  const std::uint64_t generation = db.generation();
  const std::uint64_t minor = db.minor_version();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      Entry& entry = *it->second;
      if (entry.generation == generation &&
          (entry.minor == minor || !StatsDrifted(entry.sizes, db))) {
        entry.minor = minor;
        lru_.splice(lru_.begin(), lru_, it->second);
        if (stats != nullptr) ++stats->plan_cache_hits;
        return entry.plan;
      }
      // Stale (generation bump, or cardinalities drifted past the plan's
      // baseline): fall through and re-resolve, charged as a miss.
    }
  }

  // Resolve outside the lock: planning can be expensive and must not
  // serialize unrelated shapes behind one mutex.
  Timer timer;
  auto plan = std::make_shared<const CachedPlan>(
      CachedPlan::Resolve(q, db, std::nullopt, planner, cache_options));
  const std::uint64_t resolve_ns =
      static_cast<std::uint64_t>(timer.Seconds() * 1e9);
  if (stats != nullptr) {
    ++stats->plan_cache_misses;
    stats->plan_resolve_ns += resolve_ns;
  }
  std::vector<std::pair<std::string, std::size_t>> sizes =
      RelationSizes(q, db);

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    if (entry.generation == generation && entry.minor == minor) {
      // Lost a resolve race against the same data versions: adopt the
      // winner so every caller shares one instance (and the persistent
      // caches keyed per shape see one plan).
      lru_.splice(lru_.begin(), lru_, it->second);
      return entry.plan;
    }
    // The resident entry is the stale one we bypassed: refresh in place.
    entry.plan = plan;
    entry.generation = generation;
    entry.minor = minor;
    entry.sizes = std::move(sizes);
    lru_.splice(lru_.begin(), lru_, it->second);
    return plan;
  }
  lru_.push_front(Entry{key, plan, generation, minor, std::move(sizes)});
  index_[key] = lru_.begin();
  while (capacity_ > 0 && lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return plan;
}

std::size_t PlanCache::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace clftj
