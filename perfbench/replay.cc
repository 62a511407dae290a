// The traced run: the live run's request stream replayed in-process, one
// request at a time and in send order, through the calls QueryService makes
// for it — ParseRequest, ParseQuery, CrossQueryReuse::Prepare,
// MakeEngine(...)->Count/Evaluate, FormatResponse -> ParseResponse, and
// Database::ApplyDelta — each wrapped in a span. Layers are timed from
// outside, through their public functions only.
#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "bench.h"
#include "engine/engine.h"
#include "engine/reuse.h"
#include "query/parser.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

class Tracer {
 public:
  int Begin(const std::string& name, int parent, int request) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = Now();
    s.end = s.start;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int span) {
    spans_[span].end = Now();
    return spans_[span].end - spans_[span].start;
  }
  // A child whose duration was measured by the callee (Prepare's plan and
  // trie-build split), laid end to end from `start`.
  void Add(const std::string& name, int parent, int request, double start,
           double seconds) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = start;
    s.end = start + seconds;
    spans_.push_back(std::move(s));
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

// The reuse layer exactly as QueryService builds it for `nproc` workers
// (server/service.cc): default reuse options, default planner and cache
// options, stripes sized for one prober per worker.
std::unique_ptr<clftj::CrossQueryReuse> ServiceReuse(int nproc,
                                                      bool persistent) {
  const clftj::ServiceOptions service;
  clftj::ReuseOptions reuse = service.reuse;
  reuse.persistent_cache = persistent;
  return std::make_unique<clftj::CrossQueryReuse>(
      reuse, clftj::PlannerOptions{}, service.engine_options.cache,
      nproc * std::max(1, service.engine_options.threads));
}

std::uint64_t Entries(const std::vector<std::shared_ptr<clftj::ShapeCaches>>& all) {
  std::uint64_t n = 0;
  for (const auto& c : all) n += c->count.size() + c->eval.size();
  return n;
}

struct Item {
  const BenchRequest* request;
  bool timed;  // part of the live run's timed phase
};

struct Outcome {
  const BenchRequest* request;
  int version;
  clftj::RunStatus status;
  std::uint64_t count;
  std::uint64_t digest;
};

}  // namespace

bool RunReplay(const Inputs& inputs, const LiveResult& live, int nproc,
               Reference* reference, ReplayResult* out, std::string* error) {
  *out = ReplayResult();
  // The stream the timed server received, in send order: its set-up,
  // timed phase and probe. After a probe DELTA, every distinct read of the
  // probed relation is re-read once, so refill is measured on every
  // workload.
  std::vector<const Sample*> sent;
  for (const Sample& s : live.samples) {
    if (s.server != live.last_server || s.send <= 0) continue;
    if (s.phase == Sample::Phase::kQuiescent) continue;
    sent.push_back(&s);
  }
  std::stable_sort(sent.begin(), sent.end(),
                   [](const Sample* a, const Sample* b) { return a->send < b->send; });
  std::vector<Item> items;
  for (const Sample* s : sent) {
    items.push_back({s->request, s->phase == Sample::Phase::kTimed});
  }
  bool probed = false;
  for (const Sample* s : sent) probed |= s->phase == Sample::Phase::kProbe;
  if (probed) {
    const std::string& rel = inputs.probe.front().wire.delta.relation;
    std::set<std::string> seen;
    for (const Sample* s : sent) {
      const BenchRequest& r = *s->request;
      if (IsDelta(r) || !seen.insert(r.line).second) continue;
      if (r.wire.query_text.rfind(rel + "(", 0) != 0) continue;
      items.push_back({&r, false});
    }
  }

  clftj::Database db;
  if (!LoadDatabase(inputs, &db, error)) return false;
  Tracer tracer;
  std::vector<Outcome> outcomes;
  std::vector<double> parse_us, prepare_ms, plan_ms, join_ms, encode_ms,
      decode_ms, apply_ms, refill_ms;
  std::vector<double> timed_request_s;
  std::uint64_t plan_hits = 0, plan_misses = 0, builds = 0, reuses = 0;
  std::uint64_t build_ns = 0, accesses = 0, hits_reported = 0;
  std::uint64_t eval_bytes = 0, eval_tuples = 0, invalidated = 0;
  std::uint64_t trie_bytes = 0;
  std::size_t shape_caches = 0;
  clftj::ExecStats cache_stats;
  std::uint64_t cache_entries = 0, cache_payload = 0;
  // Join time of each distinct count request's first (cold) occurrence in
  // the replay, for sharded.speedup.
  std::map<std::string, double> first_join_s;
  std::vector<std::string> first_order;
  std::string replay_engine;
  std::map<std::string, double> apply_s_by_line;
  int version = 0;
  {
    const std::unique_ptr<clftj::CrossQueryReuse> reuse =
        ServiceReuse(nproc, /*persistent=*/true);
    std::vector<std::shared_ptr<clftj::ShapeCaches>> caches;
    std::set<const clftj::ShapeCaches*> cache_set;
    std::set<std::string> read_since_delta;
    bool pending_invalidation = false;
    std::uint64_t entries_before_delta = 0;
    const double replay_cap = Now() + 60;

    for (std::size_t i = 0; i < items.size() && Now() < replay_cap; ++i) {
      const BenchRequest& br = *items[i].request;
      const int rid = static_cast<int>(i);
      const int root = tracer.Begin("request", -1, rid);
      int span = tracer.Begin("protocol.parse_request", root, rid);
      clftj::QueryRequest request;
      std::string perr;
      const bool parsed = clftj::ParseRequest(br.line, &request, &perr);
      tracer.End(span);
      if (!parsed) {
        *error = "replay cannot parse its own request: " + perr;
        return false;
      }
      clftj::QueryResponse response;
      if (request.kind == "delta") {
        entries_before_delta = Entries(caches);
        span = tracer.Begin("data.apply_delta", root, rid);
        clftj::DeltaResult result;
        std::string derr;
        const bool ok = db.ApplyDelta(request.delta, &derr, &result);
        const double s = tracer.End(span);
        if (!ok) {
          *error = "replay delta rejected: " + derr;
          return false;
        }
        apply_ms.push_back(s * 1e3);
        apply_s_by_line[br.line] = s;
        response.count = result.applied_adds + result.applied_deletes;
        response.seconds = s;
        ++version;
        pending_invalidation = true;
        read_since_delta.clear();
      } else {
        span = tracer.Begin("query.parse", root, rid);
        auto query = clftj::ParseQuery(request.query_text, &perr);
        parse_us.push_back(tracer.End(span) * 1e6);
        if (!query.has_value()) {
          *error = "replay cannot parse its own query: " + perr;
          return false;
        }
        clftj::ExecStats reuse_stats;
        span = tracer.Begin("reuse.prepare", root, rid);
        const double prep_start = tracer.spans()[span].start;
        clftj::CrossQueryReuse::Prepared prepared =
            reuse->Prepare(*query, db, &reuse_stats);
        prepare_ms.push_back(tracer.End(span) * 1e3);
        const double plan_s = reuse_stats.plan_resolve_ns / 1e9;
        tracer.Add("plan.resolve", span, rid, prep_start, plan_s);
        tracer.Add("trie.build", span, rid, prep_start + plan_s,
                   reuse_stats.substrate_build_ns / 1e9);
        plan_ms.push_back(plan_s * 1e3);
        plan_hits += reuse_stats.plan_cache_hits;
        plan_misses += reuse_stats.plan_cache_misses;
        builds += reuse_stats.substrate_builds;
        reuses += reuse_stats.substrate_reuses;
        build_ns += reuse_stats.substrate_build_ns;
        if (prepared.caches != nullptr &&
            cache_set.insert(prepared.caches.get()).second) {
          caches.push_back(prepared.caches);
        }
        if (pending_invalidation) {
          // Prepare applies the delta log to every resident shape cache.
          const std::uint64_t now_entries = Entries(caches);
          if (entries_before_delta > now_entries) {
            invalidated += entries_before_delta - now_entries;
          }
          pending_invalidation = false;
        }

        clftj::EngineOptions options = clftj::ServiceOptions().engine_options;
        options.prepared_plan = prepared.plan;
        options.prepared_substrate = prepared.substrate;
        if (prepared.caches != nullptr) {
          if (request.mode == "count") {
            options.shared_count_cache = &prepared.caches->count;
          } else {
            options.shared_eval_cache = &prepared.caches->eval;
          }
        }
        clftj::RunLimits limits;
        limits.max_intermediate_tuples = request.max_tuples;
        span = tracer.Begin("join", root, rid);
        const std::unique_ptr<clftj::JoinEngine> engine =
            clftj::MakeEngine(request.engine, options);
        clftj::RunResult result;
        if (request.mode == "count") {
          result = engine->Count(*query, db, limits);
        } else {
          result = engine->Evaluate(
              *query, db,
              [&response](const clftj::Tuple& t) {
                response.tuples.push_back(t);
              },
              limits);
        }
        const double join_s = tracer.End(span);
        join_ms.push_back(join_s * 1e3);
        if (version > 0 && read_since_delta.insert(br.line).second) {
          refill_ms.push_back(join_s * 1e3);
        }
        if (request.mode == "count" && first_join_s.count(br.line) == 0) {
          first_join_s[br.line] = join_s;
          first_order.push_back(br.line);
          replay_engine = request.engine;
        }
        response.status = result.status;
        response.message = result.message;
        response.count = result.count;
        response.seconds = result.seconds;
        response.stats = result.stats;
        response.stats.Merge(reuse_stats);
        if (response.status != clftj::RunStatus::kOk) response.tuples.clear();
        accesses += result.stats.memory_accesses;
        hits_reported += result.stats.cache_hits;
      }

      span = tracer.Begin("protocol.encode", root, rid);
      const std::vector<std::string> lines = clftj::FormatResponse(response);
      encode_ms.push_back(tracer.End(span) * 1e3);
      std::uint64_t digest = 0;
      for (const clftj::Tuple& t : response.tuples) digest += TupleDigest(t);
      if (request.mode == "eval" && request.kind == "run") {
        for (const std::string& l : lines) eval_bytes += l.size() + 1;
        eval_tuples += response.tuples.size();
      }
      span = tracer.Begin("protocol.decode", root, rid);
      clftj::QueryResponse decoded;
      std::string derr;
      const bool decoded_ok = clftj::ParseResponse(lines, &decoded, &derr);
      decode_ms.push_back(tracer.End(span) * 1e3);
      const double total = tracer.End(root);
      if (items[i].timed) timed_request_s.push_back(total);
      if (!decoded_ok) {
        *error = "replay cannot decode its own response: " + derr;
        return false;
      }
      if (request.kind == "run") {
        outcomes.push_back({&br, version, decoded.status, decoded.count, digest});
      }
    }
    if (outcomes.size() + apply_ms.size() < items.size()) {
      out->summary.push_back("replay stopped at its time cap after " +
                             std::to_string(outcomes.size() + apply_ms.size()) +
                             " of " + std::to_string(items.size()) +
                             " requests");
    }
    for (const auto& c : caches) {
      cache_stats.Merge(c->count.AggregatedStats());
      cache_stats.Merge(c->eval.AggregatedStats());
      cache_payload += c->count.payload_bytes() + c->eval.payload_bytes();
    }
    cache_entries = Entries(caches);
    shape_caches = caches.size();
    trie_bytes = reuse->registry().CachedBytes();
  }

  // sharded.speedup: serial CLFTJ join time over CLFTJ-P join time for the
  // same distinct count requests, each cold (plan and tries prepared
  // outside the timed join). CLFTJ-P times come from the replay when it
  // ran CLFTJ-P (cold-join), else from a pass with a fresh reuse layer.
  double parallel_s = 0, serial_s = 0;
  {
    clftj::Database db0;
    if (!LoadDatabase(inputs, &db0, error)) return false;
    std::map<std::string, const BenchRequest*> by_line;
    for (const Item& it : items) by_line[it.request->line] = it.request;
    const auto timed_join = [&](clftj::CrossQueryReuse& reuse,
                                const BenchRequest& r, const std::string& engine_name,
                                std::uint64_t* count) {
      auto query = clftj::ParseQuery(r.wire.query_text);
      clftj::CrossQueryReuse::Prepared prepared = reuse.Prepare(*query, db0, nullptr);
      clftj::EngineOptions options = clftj::ServiceOptions().engine_options;
      options.prepared_plan = prepared.plan;
      options.prepared_substrate = prepared.substrate;
      if (prepared.caches != nullptr) {
        options.shared_count_cache = &prepared.caches->count;
      }
      const double t = Now();
      const clftj::RunResult result =
          clftj::MakeEngine(engine_name, options)->Count(*query, db0, {});
      *count = result.ok() ? result.count : ~0ULL;
      return Now() - t;
    };
    if (replay_engine == "CLFTJ-P") {
      for (const std::string& line : first_order) parallel_s += first_join_s[line];
    } else {
      const auto reuse = ServiceReuse(nproc, /*persistent=*/true);
      for (const std::string& line : first_order) {
        std::uint64_t count = 0;
        parallel_s += timed_join(*reuse, *by_line[line], "CLFTJ-P", &count);
      }
    }
    // The serial pass runs with the engine's own private cache, as a
    // standalone CLFTJ would; its answers are version-0 references.
    const auto reuse = ServiceReuse(nproc, /*persistent=*/false);
    for (const std::string& line : first_order) {
      std::uint64_t count = 0;
      serial_s += timed_join(*reuse, *by_line[line], "CLFTJ", &count);
      if (reference->Find(line, 0) == nullptr && count != ~0ULL) {
        Reference::Answer a;
        a.ok = true;
        a.count = count;
        reference->Put(line, 0, a);
      }
    }
  }

  // Check every replay answer against the reference at its version.
  std::vector<std::pair<const BenchRequest*, int>> needed;
  for (const Outcome& o : outcomes) needed.emplace_back(o.request, o.version);
  std::stable_sort(needed.begin(), needed.end(), [](const auto& a, const auto& b) {
    return a.first->shape < b.first->shape;
  });
  reference->Compute(needed, nproc);
  for (const Outcome& o : outcomes) {
    const Reference::Answer* ref = reference->Find(o.request->line, o.version);
    const bool match = ref != nullptr && ref->ok &&
                       o.status == clftj::RunStatus::kOk &&
                       ref->count == o.count &&
                       (o.request->wire.mode != "eval" || ref->digest == o.digest);
    if (!match) {
      ++out->mismatches;
      out->summary.push_back("replay mismatch: " + o.request->line);
    }
  }

  // Server-side layers, from the live run's wire stats and client clocks.
  std::vector<double> queue_wait, write_wait, late;
  double batch_sum = 0, shared = 0, runs = 0;
  for (const Sample& s : live.samples) {
    if (!s.answered) continue;
    const bool timed = s.phase == Sample::Phase::kTimed;
    if (IsDelta(*s.request)) {
      if (timed || s.phase == Sample::Phase::kProbe) {
        const auto it = apply_s_by_line.find(s.request->line);
        const double start = s.due > 0 ? s.due : s.send;
        const double apply = it == apply_s_by_line.end() ? 0 : it->second;
        write_wait.push_back((s.recv - start - apply) * 1e3);
      }
      continue;
    }
    if (!timed || s.response.status != clftj::RunStatus::kOk) continue;
    const clftj::ExecStats& st = s.response.stats;
    const double served = s.response.seconds +
                          (st.plan_resolve_ns + st.substrate_build_ns) / 1e9;
    queue_wait.push_back((s.recv - s.send - served) * 1e3);
    batch_sum += std::max<std::uint64_t>(1, st.batch_size);
    shared += st.batch_shared_execs > 0 ? 1 : 0;
    runs += 1;
    late.push_back((s.due > 0 ? s.send - s.due : s.send - s.ready) * 1e3);
  }

  const double makespan = live.timed_end - live.timed_start;
  double replay_timed = 0;
  for (const double s : timed_request_s) replay_timed += s;
  const double cache_lookups =
      static_cast<double>(cache_stats.cache_hits + cache_stats.cache_misses);
  Metrics& m = out->metrics;
  m["server.queue_wait_ms_p50"] = {RankPercentile(queue_wait, 50), "ms"};
  m["server.queue_wait_ms_p99"] = {RankPercentile(queue_wait, 99), "ms"};
  m["server.batch_size_mean"] = {runs > 0 ? batch_sum / runs : 0, "count"};
  m["server.batch_shared_ratio"] = {runs > 0 ? shared / runs : 0, "ratio"};
  m["server.write_wait_ms_p50"] = {RankPercentile(write_wait, 50), "ms"};
  m["protocol.encode_ms"] = {Mean(encode_ms), "ms"};
  m["protocol.decode_ms"] = {Mean(decode_ms), "ms"};
  m["protocol.bytes_per_tuple"] = {
      eval_tuples > 0 ? static_cast<double>(eval_bytes) / eval_tuples : 0, "B"};
  m["query.parse_us_mean"] = {Mean(parse_us), "us"};
  m["plan.resolve_ms"] = {Mean(plan_ms), "ms"};
  m["plan.cache_hit_ratio"] = {
      plan_hits + plan_misses > 0
          ? static_cast<double>(plan_hits) / (plan_hits + plan_misses)
          : 0,
      "ratio"};
  m["trie.build_ms"] = {build_ns / 1e6, "ms"};
  m["trie.builds"] = {static_cast<double>(builds), "count"};
  m["trie.reuses"] = {static_cast<double>(reuses), "count"};
  m["trie.resident_bytes"] = {static_cast<double>(trie_bytes), "B"};
  m["reuse.prepare_ms"] = {Mean(prepare_ms), "ms"};
  m["reuse.shape_caches"] = {static_cast<double>(shape_caches), "count"};
  m["reuse.refill_ms"] = {Mean(refill_ms), "ms"};
  m["join.busy_ms"] = {Mean(join_ms), "ms"};
  m["join.memory_accesses"] = {static_cast<double>(accesses), "count"};
  m["join.cache_hits_reported"] = {static_cast<double>(hits_reported), "count"};
  m["cache.hits"] = {static_cast<double>(cache_stats.cache_hits), "count"};
  m["cache.misses"] = {static_cast<double>(cache_stats.cache_misses), "count"};
  m["cache.hit_ratio"] = {
      cache_lookups > 0 ? cache_stats.cache_hits / cache_lookups : 0, "ratio"};
  m["cache.inserts"] = {static_cast<double>(cache_stats.cache_inserts), "count"};
  m["cache.entries"] = {static_cast<double>(cache_entries), "count"};
  m["cache.payload_bytes"] = {static_cast<double>(cache_payload), "B"};
  m["cache.invalidated_entries"] = {static_cast<double>(invalidated), "count"};
  m["sharded.speedup"] = {parallel_s > 0 ? serial_s / parallel_s : 0, "x"};
  m["data.apply_delta_ms"] = {Mean(apply_ms), "ms"};
  m["data.bytes"] = {static_cast<double>(db.MemoryBytes()), "B"};
  m["loadgen.late_p99_ms"] = {RankPercentile(late, 99), "ms"};
  m["trace.overhead_ratio"] = {makespan > 0 ? replay_timed / makespan : 0,
                               "ratio"};

  // Self time per span name.
  out->spans = std::move(tracer.spans());
  const std::vector<double> self = SelfTimes(out->spans);
  std::map<std::string, std::pair<int, std::pair<double, double>>> by_name;
  for (std::size_t i = 0; i < out->spans.size(); ++i) {
    auto& e = by_name[out->spans[i].name];
    e.first += 1;
    e.second.first += out->spans[i].end - out->spans[i].start;
    e.second.second += self[i];
  }
  for (const auto& [name, e] : by_name) {
    std::ostringstream line;
    line.precision(6);
    line << "span " << name << ": n=" << e.first
         << " total_ms=" << e.second.first * 1e3
         << " self_ms=" << e.second.second * 1e3;
    out->summary.push_back(line.str());
  }
  return true;
}

}  // namespace perfbench
