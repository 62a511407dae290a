// Aggregates beyond counting (the paper's Section 6 future-work direction,
// in the FAQ/AJAR style): the same cached trie join evaluated over
// different commutative semirings. A synthetic "road network" with edge
// weights is mined for 4-paths:
//   * CountingSemiring  — how many 4-paths exist,
//   * RealSemiring      — total weight-product mass over all 4-paths,
//   * MinPlusSemiring   — the lightest 4-path (shortest weighted walk),
//   * MaxPlusSemiring   — the heaviest 4-path,
//   * BooleanSemiring   — does any 4-path exist at all.
// All five run through CachedTrieJoin::Aggregate — the same morsel driver
// and cache structure as a count; only ⊕/⊗ change. The sum-product run
// uses four workers, whose morsel partials merge with ⊕ in morsel order.
//
//   $ ./weighted_patterns

#include <cstdint>
#include <cstdio>

#include "clftj/cached_trie_join.h"
#include "clftj/semiring.h"
#include "data/generators.h"
#include "query/patterns.h"

namespace {

// Runs one aggregate and prints its value with the run's wall time.
template <typename S>
typename S::Value Run(const clftj::Query& query, const clftj::Database& db,
                      const clftj::WeightFn<S>& weight, int threads,
                      double* ms, std::uint64_t* hits) {
  clftj::CachedTrieJoin::Options options;
  options.threads = threads;
  clftj::CachedTrieJoin engine(options);
  typename S::Value value = S::Zero();
  const clftj::RunResult r = engine.Aggregate<S>(query, db, weight, {}, &value);
  *ms = r.seconds * 1e3;
  *hits = r.stats.cache_hits;
  return value;
}

}  // namespace

int main() {
  clftj::Database db;
  db.Put(clftj::PreferentialAttachmentGraph("E", 300, 3, 99));
  const clftj::Query query = clftj::PathQuery(4);
  std::printf("graph: %zu directed edges, query: %s\n\n",
              db.Get("E").size(), query.ToString().c_str());

  // Deterministic per-edge weight (a hash of the endpoints), standing in
  // for road lengths / link costs. Pure, so any worker may call it.
  const auto edge_weight = [&query](clftj::AtomId a,
                                    const clftj::Tuple& mu) -> double {
    clftj::Value u = 0;
    clftj::Value v = 0;
    int seen = 0;
    for (const clftj::Term& t : query.atom(a).terms) {
      if (t.is_variable) (seen++ == 0 ? u : v) = mu[t.var];
    }
    return 1.0 + static_cast<double>((u * 31 + v * 17) % 100) / 100.0;
  };

  double ms = 0.0;
  std::uint64_t hits = 0;
  const std::uint64_t count =
      Run<clftj::CountingSemiring>(query, db, nullptr, 1, &ms, &hits);
  std::printf("count        : %llu paths (%.2fms, %llu cache hits)\n",
              static_cast<unsigned long long>(count), ms,
              static_cast<unsigned long long>(hits));
  const double mass =
      Run<clftj::RealSemiring>(query, db, edge_weight, 4, &ms, &hits);
  std::printf("sum-product  : %.3e total weight mass (%.2fms, 4 workers)\n",
              mass, ms);
  const double lightest =
      Run<clftj::MinPlusSemiring>(query, db, edge_weight, 1, &ms, &hits);
  std::printf("min-plus     : lightest 4-path weighs %.4f (%.2fms)\n",
              lightest, ms);
  const double heaviest =
      Run<clftj::MaxPlusSemiring>(query, db, edge_weight, 1, &ms, &hits);
  std::printf("max-plus     : heaviest 4-path weighs %.4f (%.2fms)\n",
              heaviest, ms);
  const bool exists =
      Run<clftj::BooleanSemiring>(query, db, nullptr, 1, &ms, &hits);
  std::printf("boolean      : 4-path exists? %s (%.2fms)\n",
              exists ? "yes" : "no", ms);
  return 0;
}
