// Batch admission (docs/serving.md "Batch admission"): the scheduler that
// groups co-resident same-shape requests into one shared run must be
// invisible in results — tuple sets and typed statuses bit-identical to
// sequential FIFO dispatch, including under fault injection and around
// mid-batch DELTA writes — while provably eliminating duplicated work
// (one plan resolution, one substrate acquisition per batch).

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "server/service.h"
#include "td/planner.h"
#include "test_util.h"
#include "util/fault.h"

namespace clftj {
namespace {

constexpr const char* kTriangle = "E(x,y), E(y,z), E(z,x)";
constexpr const char* kFiveCycle = "E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)";

QueryRequest CountReq(const std::string& text) {
  QueryRequest request;
  request.query_text = text;
  request.mode = "count";
  return request;
}

// One worker plus a generous window: the first popped request leads and
// holds the batch open until max_size members arrived, so every request
// submitted below deterministically lands in one batch.
ServiceOptions BatchedOptions(int max_size, std::uint64_t window_ms = 2000) {
  ServiceOptions options;
  options.workers = 1;
  options.batch.max_size = max_size;
  options.batch.window_ms = window_ms;
  return options;
}

ServiceOptions FifoOptions() {
  ServiceOptions options;
  options.workers = 1;
  options.batch.enabled = false;
  return options;
}

std::vector<QueryResponse> SubmitAll(QueryService& service,
                                     const std::vector<QueryRequest>& reqs) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(reqs.size());
  for (const QueryRequest& request : reqs) {
    futures.push_back(service.Submit(request));
  }
  std::vector<QueryResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

TEST(BatchAdmission, IdenticalShapeBatchSharesAllResolutionWork) {
  const Database db = testing::SmallSkewedDb(11);
  QueryService service(db, BatchedOptions(/*max_size=*/8));

  // Anchor: the same request set through a FIFO service.
  QueryService fifo(db, FifoOptions());
  const QueryResponse anchor = fifo.Execute(CountReq(kFiveCycle));
  ASSERT_EQ(anchor.status, RunStatus::kOk);

  const std::uint64_t searches_before = PlannerSearchCount();
  const std::vector<QueryRequest> reqs(8, CountReq(kFiveCycle));
  const std::vector<QueryResponse> responses = SubmitAll(service, reqs);
  const std::uint64_t searches_after = PlannerSearchCount();

  std::uint64_t total_misses = 0;
  std::uint64_t total_builds = 0;
  for (const QueryResponse& response : responses) {
    ASSERT_EQ(response.status, RunStatus::kOk);
    EXPECT_EQ(response.count, anchor.count);
    EXPECT_EQ(response.stats.batch_size, 8u);
    EXPECT_EQ(response.stats.batch_shared_execs, 1u);
    total_misses += response.stats.plan_cache_misses;
    total_builds += response.stats.substrate_builds;
  }
  // The whole batch did exactly one cold request's worth of resolution:
  // one plan-cache miss and one cold run's substrate builds (the 5-cycle
  // needs two E permutations) — not 8x. Planner-search accounting has its
  // own strict test below.
  EXPECT_EQ(total_misses, 1u);
  EXPECT_GT(searches_after, searches_before);
  EXPECT_EQ(total_builds, anchor.stats.substrate_builds);

  // A second identical batch is fully warm: no new planner searches and no
  // new substrate builds at all.
  const std::uint64_t warm_before = PlannerSearchCount();
  const std::vector<QueryResponse> warm = SubmitAll(service, reqs);
  EXPECT_EQ(PlannerSearchCount(), warm_before);
  for (const QueryResponse& response : warm) {
    ASSERT_EQ(response.status, RunStatus::kOk);
    EXPECT_EQ(response.count, anchor.count);
    EXPECT_EQ(response.stats.substrate_builds, 0u);
  }
}

TEST(BatchAdmission, PlannerSearchedOnceForTheWholeBatch) {
  const Database db = testing::SmallSkewedDb(11);
  // Measure one cold resolve's planner searches on a throwaway service.
  const std::uint64_t lone_before = PlannerSearchCount();
  {
    QueryService lone(db, FifoOptions());
    ASSERT_EQ(lone.Execute(CountReq(kFiveCycle)).status, RunStatus::kOk);
  }
  const std::uint64_t lone_searches = PlannerSearchCount() - lone_before;

  QueryService service(db, BatchedOptions(/*max_size=*/8));
  const std::uint64_t batch_before = PlannerSearchCount();
  const std::vector<QueryResponse> responses =
      SubmitAll(service, std::vector<QueryRequest>(8, CountReq(kFiveCycle)));
  for (const QueryResponse& response : responses) {
    ASSERT_EQ(response.status, RunStatus::kOk);
  }
  EXPECT_EQ(PlannerSearchCount() - batch_before, lone_searches)
      << "a batch of 8 must plan exactly once, like one lone request";
}

TEST(BatchAdmission, EvalBatchReturnsBitIdenticalTupleStreams) {
  const Database db = testing::SmallSkewedDb(11);
  QueryService fifo(db, FifoOptions());
  QueryRequest request = CountReq(kTriangle);
  request.mode = "eval";
  const QueryResponse anchor = fifo.Execute(request);
  ASSERT_EQ(anchor.status, RunStatus::kOk);
  ASSERT_FALSE(anchor.tuples.empty());

  QueryService service(db, BatchedOptions(/*max_size=*/4));
  const std::vector<QueryResponse> responses =
      SubmitAll(service, std::vector<QueryRequest>(4, request));
  for (const QueryResponse& response : responses) {
    ASSERT_EQ(response.status, RunStatus::kOk);
    EXPECT_EQ(response.stats.batch_size, 4u);
    // Bit-identical stream, not just the same set: eval batches are never
    // escalated to the sharded engine precisely so the order matches what
    // a sequential run would have produced.
    EXPECT_EQ(response.tuples, anchor.tuples);
    EXPECT_EQ(response.count, anchor.count);
  }
}

TEST(BatchAdmission, MixedShapesFormSeparateBatches) {
  const Database db = testing::SmallSkewedDb(11);
  const std::uint64_t triangle_count =
      testing::ReferenceCount(testing::Q(kTriangle), db);

  QueryService fifo(db, FifoOptions());
  const std::uint64_t five_count = fifo.Execute(CountReq(kFiveCycle)).count;

  // Interleaved shapes: the leader only drains its own shape, so the two
  // shapes group into two batches of 4 (max_size 4 closes each window as
  // soon as the 4th member arrives).
  QueryService service(db, BatchedOptions(/*max_size=*/4));
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(CountReq(kTriangle));
    reqs.push_back(CountReq(kFiveCycle));
  }
  const std::vector<QueryResponse> responses = SubmitAll(service, reqs);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, RunStatus::kOk) << i;
    EXPECT_EQ(responses[i].count,
              i % 2 == 0 ? triangle_count : five_count)
        << i;
  }
}

TEST(BatchAdmission, BatchedMatchesFifoUnderInjectedFaults) {
  const Database db = testing::SmallSkewedDb(13);
  fault::Config faults;
  faults.seed = 7;
  faults.period[static_cast<int>(fault::Site::kCacheInsert)] = 3;
  faults.period[static_cast<int>(fault::Site::kWorkerDelay)] = 2;
  faults.delay_ms = 2;

  // Dropped cache inserts degrade capacity, never correctness, and worker
  // delays only slow dispatch — so both sides must still answer every
  // request kOk with the true count.
  std::vector<QueryResponse> batched;
  {
    fault::ScopedFaults scoped(faults);
    QueryService service(db, BatchedOptions(/*max_size=*/8));
    batched = SubmitAll(service,
                        std::vector<QueryRequest>(8, CountReq(kFiveCycle)));
  }
  std::vector<QueryResponse> sequential;
  {
    fault::ScopedFaults scoped(faults);
    QueryService service(db, FifoOptions());
    sequential = SubmitAll(
        service, std::vector<QueryRequest>(8, CountReq(kFiveCycle)));
  }
  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].status, sequential[i].status) << i;
    ASSERT_EQ(batched[i].status, RunStatus::kOk) << i;
    EXPECT_EQ(batched[i].count, sequential[i].count) << i;
  }
}

TEST(BatchAdmission, DeltaIsABatchBarrier) {
  Database db = testing::SmallSkewedDb(11);
  ServiceOptions options = BatchedOptions(/*max_size=*/8, /*window_ms=*/100);
  QueryService service(&db, options);

  const std::uint64_t pre = service.Execute(CountReq(kFiveCycle)).count;

  // Adds a fresh directed 5-cycle on unused node ids, so the count must
  // change — which is what makes a barrier violation observable.
  QueryRequest delta;
  delta.kind = "delta";
  delta.delta.relation = "E";
  delta.delta.adds = {{1000, 1001}, {1001, 1002}, {1002, 1003},
                      {1003, 1004}, {1004, 1000}};

  std::vector<QueryRequest> reqs(4, CountReq(kFiveCycle));
  reqs.push_back(delta);
  for (int i = 0; i < 4; ++i) reqs.push_back(CountReq(kFiveCycle));
  const std::vector<QueryResponse> responses = SubmitAll(service, reqs);

  const std::uint64_t post = service.Execute(CountReq(kFiveCycle)).count;
  ASSERT_NE(pre, post) << "the delta must change the count for this test";

  // FIFO + barrier semantics: every request admitted before the delta
  // observes the pre-delta database, every one after it the post-delta
  // database — whatever batches formed. A leader that dragged a post-delta
  // member across the barrier would hand it `pre` and fail here.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(responses[i].status, RunStatus::kOk) << i;
    EXPECT_EQ(responses[i].count, pre) << i;
  }
  ASSERT_EQ(responses[4].status, RunStatus::kOk);
  EXPECT_EQ(responses[4].count, 5u);  // applied adds
  for (int i = 5; i < 9; ++i) {
    ASSERT_EQ(responses[i].status, RunStatus::kOk) << i;
    EXPECT_EQ(responses[i].count, post) << i;
  }
}

TEST(BatchAdmission, PerRequestLimitsSplitSubCohorts) {
  const Database db = testing::SmallSkewedDb(13);
  QueryService service(db, BatchedOptions(/*max_size=*/4));

  // Same shape, different materialization budgets: the tiny-budget member
  // must still trip kOutOfMemory on its own cold run instead of riding a
  // shared run with the unconstrained members' limits. It leads the batch,
  // so its sub-cohort executes first — before the roomy run can warm the
  // persistent cache and make the budget unreachable. Eval mode because
  // only eval materializes factorized entries against the budget.
  QueryRequest roomy = CountReq(kFiveCycle);
  roomy.mode = "eval";
  QueryRequest tiny = roomy;
  tiny.max_tuples = 1;
  const std::vector<QueryResponse> responses =
      SubmitAll(service, {tiny, roomy, roomy, roomy});
  EXPECT_EQ(responses[0].status, RunStatus::kOutOfMemory);
  EXPECT_TRUE(responses[0].tuples.empty());
  EXPECT_EQ(responses[1].status, RunStatus::kOk);
  EXPECT_EQ(responses[2].status, RunStatus::kOk);
  EXPECT_EQ(responses[3].status, RunStatus::kOk);
  EXPECT_EQ(responses[1].tuples, responses[3].tuples);
}

TEST(BatchAdmission, ColdThreePathAfterWarmTwoPathMatchesReference) {
  const Database db = testing::SmallSkewedDb(11);
  QueryService service(db, BatchedOptions(/*max_size=*/4));

  // A warm 2-path shares its subjoins with the 3-path, but each shape keeps
  // its own persistent caches: the cold 3-path must still count exactly.
  ASSERT_EQ(service.Execute(CountReq("E(x,y), E(y,z)")).status,
            RunStatus::kOk);
  const QueryResponse cold =
      service.Execute(CountReq("E(u,v), E(v,w), E(w,t)"));
  ASSERT_EQ(cold.status, RunStatus::kOk);
  EXPECT_EQ(cold.count,
            testing::ReferenceCount(testing::Q("E(u,v), E(v,w), E(w,t)"), db));
}

TEST(BatchAdmission, ImmediateShutdownCancelsCollectedMembers) {
  const Database db = testing::SmallSkewedDb(7, /*nodes=*/3000,
                                             /*edges_per_node=*/6);
  auto service = std::make_unique<QueryService>(
      db, BatchedOptions(/*max_size=*/8, /*window_ms=*/30000));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service->Submit(CountReq(kFiveCycle)));
  }
  // The leader is holding the window open waiting for 4 more members;
  // immediate shutdown must cancel the whole collected batch promptly
  // instead of waiting out the 30s window.
  service->Shutdown(/*drain=*/false);
  for (auto& f : futures) {
    const QueryResponse response = f.get();
    EXPECT_TRUE(response.status == RunStatus::kCancelled ||
                response.status == RunStatus::kOk)
        << RunStatusName(response.status);
  }
  service.reset();
}

}  // namespace
}  // namespace clftj
