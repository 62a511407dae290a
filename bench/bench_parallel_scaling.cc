// Parallel scaling of CLFTJ-P: the Fig5 5-cycle count and a Fig10-style
// bounded-cache count at 1/2/4/8 worker threads, against single-thread
// CLFTJ as the baseline. Workers pull small depth-0 morsels and share one
// striped cache table, so the summed memory accesses stay within a few
// percent of the single-thread run. Records at two or more threads carry
// "sharing=striped" in their config: their hit/miss split depends on which
// worker inserts first, so bench_diff skips them (--skip-config
// sharing=striped). The threads=1 records are the sequential run and stay
// compared.
//
// Self-gate (exit status): on a host with >= 4 hardware threads, CLFTJ-P
// at 4 threads must count the wiki-Vote 5-cycle >= 1.3x faster than
// CLFTJ, comparing each arm's best of 5 arm-alternating trials spaced
// 150 ms apart, with identical counts in every trial. With fewer
// hardware threads the speedup gate is skipped with a printed reason; the
// count check still runs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "clftj/cached_trie_join.h"
#include "engine/engine.h"
#include "query/patterns.h"

namespace clftj::bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct Workload {
  std::string name;
  std::string profile;
  Query query;
  std::uint64_t cache_capacity;  // 0 = unbounded (the Fig5 configuration)
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  // The Fig5 5-cycle on the skewed profiles where caching pays most.
  w.push_back({"Fig5/5-cycle", "wiki-Vote", CycleQuery(5), 0});
  if (!Quick()) {
    w.push_back({"Fig5/5-cycle", "ego-Facebook", CycleQuery(5), 0});
    // Fig10-style: the same query under a tight global entry budget, which
    // the shared table spreads over its stripes.
    w.push_back({"Fig10/5-cycle/cap=4096", "wiki-Vote", CycleQuery(5), 4096});
  }
  return w;
}

void RegisterAll() {
  static std::vector<Workload>& workloads =
      *new std::vector<Workload>(Workloads());
  for (const Workload& w : workloads) {
    CacheOptions cache;
    cache.capacity = w.cache_capacity;

    const std::string base_name =
        "Parallel/" + w.profile + "/" + w.name + "/CLFTJ";
    benchmark::RegisterBenchmark(
        base_name.c_str(),
        [&w, cache, base_name](benchmark::State& state) {
          CachedTrieJoin::Options options;
          options.cache = cache;
          CachedTrieJoin engine(options);
          CountOnce(state, engine, w.query, SnapDb(w.profile), base_name,
                    "CLFTJ " + cache.ToString());
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);

    for (const int threads : kThreadCounts) {
      const std::string bench_name = "Parallel/" + w.profile + "/" + w.name +
                                     "/CLFTJ-P/threads=" +
                                     std::to_string(threads);
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [&w, cache, threads, bench_name](benchmark::State& state) {
            CachedTrieJoin::Options options;
            options.threads = threads;
            options.cache = cache;
            CachedTrieJoin engine(options, "CLFTJ-P");
            CountOnce(state, engine, w.query, SnapDb(w.profile), bench_name,
                      "CLFTJ-P threads=" + std::to_string(threads) +
                          (threads >= 2 ? " sharing=striped " : " ") +
                          cache.ToString());
          })
          ->Iterations(1)
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

// The speedup gate described at the top of the file. Both arms run cold
// (a fresh engine, plan and cache per trial) and without a deadline, so a
// slow host cannot turn a trial into a truncated timeout.
int Gate() {
  constexpr int kGateThreads = 4;
  constexpr int kTrials = 5;
  constexpr int kSpacingMs = 150;
  constexpr double kMinSpeedup = 1.3;
  const Database& db = SnapDb("wiki-Vote");
  const Query q = CycleQuery(5);
  double serial_best = 0.0;
  double parallel_best = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    if (trial > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kSpacingMs));
    }
    CachedTrieJoin serial;
    CachedTrieJoin::Options options;
    options.threads = kGateThreads;
    CachedTrieJoin parallel(options, "CLFTJ-P");
    // Alternate which arm runs first, so neither always takes the colder
    // slot.
    RunResult serial_run;
    RunResult parallel_run;
    if (trial % 2 == 0) {
      serial_run = serial.Count(q, db, RunLimits{});
      parallel_run = parallel.Count(q, db, RunLimits{});
    } else {
      parallel_run = parallel.Count(q, db, RunLimits{});
      serial_run = serial.Count(q, db, RunLimits{});
    }
    if (serial_run.count != parallel_run.count) {
      std::fprintf(stderr,
                   "bench_parallel_scaling: FAIL — CLFTJ-P counted %llu, "
                   "CLFTJ %llu\n",
                   static_cast<unsigned long long>(parallel_run.count),
                   static_cast<unsigned long long>(serial_run.count));
      return 1;
    }
    std::fprintf(stderr,
                 "bench_parallel_scaling: trial %d — CLFTJ %.3fs, CLFTJ-P "
                 "%.3fs\n",
                 trial, serial_run.seconds, parallel_run.seconds);
    if (serial_best == 0.0 || serial_run.seconds < serial_best) {
      serial_best = serial_run.seconds;
    }
    if (parallel_best == 0.0 || parallel_run.seconds < parallel_best) {
      parallel_best = parallel_run.seconds;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < kGateThreads) {
    std::fprintf(stderr,
                 "bench_parallel_scaling: note — only %u hardware "
                 "thread(s); the %d-thread speedup gate needs >= %d and is "
                 "skipped (counts checked)\n",
                 hw, kGateThreads, kGateThreads);
    return 0;
  }
  const double speedup = serial_best / parallel_best;
  std::fprintf(stderr,
               "bench_parallel_scaling: %s — wiki-Vote 5-cycle CLFTJ-P at %d "
               "threads %.2fx faster than CLFTJ (best of %d: CLFTJ %.3fs, "
               "CLFTJ-P %.3fs; gate >= %.1fx)\n",
               speedup >= kMinSpeedup ? "ok" : "FAIL", kGateThreads, speedup,
               kTrials, serial_best, parallel_best, kMinSpeedup);
  return speedup >= kMinSpeedup ? 0 : 1;
}

}  // namespace
}  // namespace clftj::bench

int main(int argc, char** argv) {
  clftj::bench::InitBench(&argc, argv);
  clftj::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  clftj::bench::FlushJson(argv[0]);
  return clftj::bench::Gate();
}
