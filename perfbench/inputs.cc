// Seeded input generation: relation files and request streams. Everything
// here is a pure function of (workload, seed, seconds) — the self-test pins
// that equal seeds give byte-identical files and request lines.
#include <algorithm>
#include <cmath>
#include <set>

#include "bench.h"
#include "data/generators.h"
#include "data/loader.h"
#include "server/protocol.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// wiki-Vote profile size (src/data/snap_profiles.cc): 600 nodes, 9 edges
// per node, triad-closure probability 0.3.
constexpr int kNodes = 600;
constexpr int kEdgesPerNode = 9;
constexpr double kTriad = 0.3;
// Eval results are capped so no answer can exhaust memory; every eval the
// workloads send stays well below it (a cap trip would be a failure).
constexpr std::uint64_t kEvalMaxTuples = 2000000;

std::uint64_t Derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Atom(const std::string& rel, const std::string& a,
                 const std::string& b) {
  return rel + "(" + a + "," + b + ")";
}

std::string Var(int i) { return std::string(1, static_cast<char>('a' + i)); }

std::string Cycle(int k, const std::string& rel) {
  std::string q;
  for (int i = 0; i < k; ++i) {
    if (i > 0) q += ", ";
    q += Atom(rel, Var(i), Var((i + 1) % k));
  }
  return q;
}

// `edges` atoms along a path starting at `first` (a variable or constant).
std::string Path(int edges, const std::string& rel,
                 const std::string& first = "a") {
  std::string q;
  for (int i = 0; i < edges; ++i) {
    if (i > 0) q += ", ";
    q += Atom(rel, i == 0 ? first : Var(i), Var(i + 1));
  }
  return q;
}

std::string ShapeText(const std::string& shape, const std::string& rel) {
  if (shape == "3-cycle") return Cycle(3, rel);
  if (shape == "4-cycle") return Cycle(4, rel);
  if (shape == "5-cycle") return Cycle(5, rel);
  if (shape == "6-cycle") return Cycle(6, rel);
  if (shape == "4-path") return Path(4, rel);
  // {3,2}-lollipop: triangle a-b-c with the tail c-d-e.
  if (shape == "lollipop") {
    return Cycle(3, rel) + ", " + Atom(rel, "c", "d") + ", " +
           Atom(rel, "d", "e");
  }
  // Diamond: the 4-cycle with the chord a-c.
  if (shape == "diamond") return Cycle(4, rel) + ", " + Atom(rel, "a", "c");
  return "";
}

BenchRequest MakeRun(const std::string& shape, const std::string& text,
                     const std::string& mode, const std::string& engine) {
  BenchRequest r;
  r.shape = shape;
  r.wire.kind = "run";
  r.wire.mode = mode;
  r.wire.engine = engine;
  r.wire.query_text = text;
  if (mode == "eval") r.wire.max_tuples = kEvalMaxTuples;
  r.line = clftj::FormatRequest(r.wire);
  return r;
}

// The dashboard mix of warm-mixed (and the read mix of read-write): count
// queries over six repeated shapes, plus evals of the 3-cycle and of a few
// anchored 3-paths.
struct Weighted {
  BenchRequest request;
  int weight;
};

std::vector<Weighted> CountMix(const std::string& rel) {
  // Weights put the median well inside one latency band: the 4-path and
  // the lollipop, answered almost entirely from warm caches, make up 90% of
  // the answers, so the median is their 55th percentile. Neither the
  // refills after a delta nor the seed's graph (which moves the other
  // shapes' cost by a fifth or more) can move it onto the edge between two
  // shapes' bands. The heavy shapes still run every second or so.
  const std::vector<std::pair<std::string, int>> shapes = {
      {"3-cycle", 4},  {"4-cycle", 2},   {"5-cycle", 1},
      {"4-path", 45},  {"lollipop", 45}, {"diamond", 3}};
  std::vector<Weighted> mix;
  for (const auto& [shape, weight] : shapes) {
    mix.push_back({MakeRun(shape, ShapeText(shape, rel), "count", "CLFTJ"),
                   weight});
  }
  return mix;
}

// Draws from a weighted mix in shuffled blocks: every block of
// sum(weights) requests holds each request exactly `weight` times, so every
// run sends the mix's exact proportions and only the order is random.
class MixDrawer {
 public:
  MixDrawer(const std::vector<Weighted>& mix, std::uint64_t seed)
      : mix_(mix), rng_(seed) {}

  const BenchRequest& Next() {
    if (next_ == block_.size()) {
      block_.clear();
      for (std::size_t i = 0; i < mix_.size(); ++i) {
        block_.insert(block_.end(), mix_[i].weight, i);
      }
      for (std::size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.Uniform(i)]);
      }
      next_ = 0;
    }
    return mix_[block_[next_++]].request;
  }

 private:
  const std::vector<Weighted>& mix_;
  clftj::Rng rng_;
  std::vector<std::size_t> block_;
  std::size_t next_ = 0;
};

// Rough cold cost rank used only to order set-up and reference work
// (heaviest first, so the parallel makespan is shortest).
int CostRank(const std::string& shape) {
  if (shape == "6-cycle") return 0;
  if (shape == "5-cycle") return 1;
  if (shape == "4-cycle") return 2;
  return 3;
}

bool WriteGraph(const std::string& name, std::uint64_t seed,
                const std::string& dir, Inputs* inputs, clftj::Relation* out,
                std::string* error) {
  clftj::Relation rel =
      clftj::ClusteredPowerLawGraph(name, kNodes, kEdgesPerNode, kTriad, seed);
  const std::string path = dir + "/" + name + ".tsv";
  if (!clftj::SaveRelationToFile(rel, path)) {
    *error = "cannot write " + path;
    return false;
  }
  inputs->relations.emplace_back(name, path);
  if (out != nullptr) *out = std::move(rel);
  return true;
}

using EdgeSet = std::set<std::pair<clftj::Value, clftj::Value>>;

EdgeSet Edges(const clftj::Relation& rel) {
  EdgeSet edges;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    edges.emplace(rel.At(i, 0), rel.At(i, 1));
  }
  return edges;
}

// A small DELTA: adds one undirected edge that is absent and deletes one
// that is present (both directions: the graph is stored symmetric), so all
// four tuples apply. Updates *edges to the post-delta state.
BenchRequest MakeDelta(const std::string& relation, EdgeSet* edges,
                       clftj::Rng& rng) {
  BenchRequest r;
  r.shape = "delta";
  r.wire.kind = "delta";
  r.wire.delta.relation = relation;
  for (;;) {
    const auto u = static_cast<clftj::Value>(rng.Uniform(kNodes));
    const auto v = static_cast<clftj::Value>(rng.Uniform(kNodes));
    if (u == v || edges->count({u, v}) > 0) continue;
    r.wire.delta.adds = {{u, v}, {v, u}};
    break;
  }
  const std::vector<std::pair<clftj::Value, clftj::Value>> present(
      edges->begin(), edges->end());
  const auto [u, v] = present[rng.Uniform(present.size())];
  r.wire.delta.deletes = {{u, v}, {v, u}};
  for (const clftj::Tuple& t : r.wire.delta.deletes) edges->erase({t[0], t[1]});
  for (const clftj::Tuple& t : r.wire.delta.adds) edges->emplace(t[0], t[1]);
  r.line = clftj::FormatRequest(r.wire);
  return r;
}

std::vector<BenchRequest> SortedByCost(std::vector<BenchRequest> requests) {
  std::stable_sort(requests.begin(), requests.end(),
                   [](const BenchRequest& a, const BenchRequest& b) {
                     return CostRank(a.shape) < CostRank(b.shape);
                   });
  return requests;
}

// The dashboard's tables: three generated relations. Spreading the mix
// over three graphs averages out how much one seed's graph moves each
// shape's cost, and a delta refills only one third of the shapes.
constexpr int kDashboardRelations = 3;

struct Dashboard {
  std::vector<std::string> names;
  std::vector<clftj::Relation> relations;
  std::vector<Weighted> counts;  // the count mix over every relation
};

bool MakeDashboard(std::uint64_t seed, const std::string& dir, Inputs* in,
                   Dashboard* out, std::string* error) {
  std::size_t tuples = 0;
  for (int k = 0; k < kDashboardRelations; ++k) {
    const std::string name = "E" + std::to_string(k);
    clftj::Relation rel(name, 2);
    if (!WriteGraph(name, Derive(seed, 20 + k), dir, in, &rel, error)) {
      return false;
    }
    tuples += rel.size();
    for (Weighted& w : CountMix(name)) out->counts.push_back(std::move(w));
    out->names.push_back(name);
    out->relations.push_back(std::move(rel));
  }
  in->notes.push_back(std::to_string(kDashboardRelations) + " relations E0..E" +
                      std::to_string(kDashboardRelations - 1) + " of ~" +
                      std::to_string(tuples / kDashboardRelations) +
                      " tuples (" + std::to_string(kNodes) + " nodes)");
  return true;
}

std::vector<BenchRequest> DistinctByCost(const std::vector<Weighted>& mix) {
  std::vector<BenchRequest> distinct;
  std::set<std::string> seen;
  for (const Weighted& w : mix) {
    if (seen.insert(w.request.line).second) distinct.push_back(w.request);
  }
  return SortedByCost(std::move(distinct));
}

bool MakeWarmMixed(std::uint64_t seed, double seconds, const std::string& dir,
                   Inputs* in, std::string* error) {
  Dashboard dash;
  if (!MakeDashboard(seed, dir, in, &dash, error)) return false;
  std::vector<Weighted> mix = dash.counts;
  clftj::Rng anchor_rng(Derive(seed, 2));
  for (int k = 0; k < kDashboardRelations; ++k) {
    const std::string& name = dash.names[k];
    mix.push_back({MakeRun("3-cycle", ShapeText("3-cycle", name), "eval",
                           "CLFTJ"),
                   3});
    // Anchor: a seeded pick among nodes of moderate out-degree, so the
    // anchored 3-path eval returns thousands of tuples, not millions.
    std::vector<int> degree(kNodes, 0);
    for (const clftj::Value v : dash.relations[k].Column(0)) {
      if (v >= 0 && v < kNodes) ++degree[v];
    }
    std::vector<int> candidates;
    for (int v = 0; v < kNodes; ++v) {
      if (degree[v] >= 4 && degree[v] <= 12) candidates.push_back(v);
    }
    if (candidates.empty()) {
      for (int v = 0; v < kNodes; ++v) {
        if (degree[v] > 0) candidates.push_back(v);
      }
    }
    const int anchor = candidates[anchor_rng.Uniform(candidates.size())];
    mix.push_back({MakeRun("anchored-3-path@" + std::to_string(anchor),
                           Path(3, name, std::to_string(anchor)), "eval",
                           "CLFTJ"),
                   7});
  }
  in->warmup = DistinctByCost(mix);
  EdgeSet edges = Edges(dash.relations[0]);
  clftj::Rng probe_rng(Derive(seed, 400));
  in->probe = {MakeDelta(dash.names[0], &edges, probe_rng)};

  // Four closed-loop connections. Each stream is long enough that no
  // connection can exhaust it within the timed phase (~300 requests per
  // second per connection, several times the measured rate).
  const int connections = 4;
  const std::size_t length =
      static_cast<std::size_t>(std::ceil(std::max(1.0, seconds) * 300));
  for (int c = 0; c < connections; ++c) {
    MixDrawer draw(mix, Derive(seed, 100 + c));
    std::vector<BenchRequest> stream;
    stream.reserve(length);
    for (std::size_t i = 0; i < length; ++i) stream.push_back(draw.Next());
    in->streams.push_back(std::move(stream));
  }
  in->notes.push_back("closed loop, 4 connections; " +
                      std::to_string(in->warmup.size()) + " distinct requests");
  return true;
}

bool MakeColdJoin(std::uint64_t seed, const std::string& dir, Inputs* in,
                  std::string* error) {
  // Four generated relations, each visited once in order: every request is
  // a (shape, relation) pair the server has never seen, so every plan, trie
  // and shape-cache lookup misses. The timed phase is all 20 requests, a
  // fixed amount of work: retained cache memory grows with every request,
  // so peak RSS stays comparable between builds of different speed, and
  // the median has 10 samples beyond it.
  const int relations = 4;
  const std::vector<std::string> shapes = {"5-cycle", "4-cycle", "lollipop",
                                           "diamond", "6-cycle"};
  std::vector<BenchRequest> stream;
  std::size_t tuples = 0;
  for (int k = 0; k < relations; ++k) {
    const std::string name = "E" + std::to_string(k);
    clftj::Relation rel(name, 2);
    if (!WriteGraph(name, Derive(seed, 10 + k), dir, in, &rel, error)) {
      return false;
    }
    tuples += rel.size();
    if (k == 0) {
      EdgeSet edges = Edges(rel);
      clftj::Rng probe_rng(Derive(seed, 400));
      in->probe = {MakeDelta(name, &edges, probe_rng)};
    }
    for (const std::string& shape : shapes) {
      stream.push_back(
          MakeRun(shape, ShapeText(shape, name), "count", "CLFTJ-P"));
    }
  }
  in->min_requests = static_cast<int>(stream.size());
  in->streams.push_back(std::move(stream));
  // Set-up warms the server process on a table the timed phase never reads
  // (a served process has answered other queries before the analyst
  // arrives). Plans, tries and caches are keyed by relation, so every timed
  // lookup still misses. Set-up time is then mostly join work rather than a
  // 20 ms process start, which host jitter moved by a quarter between sets
  // of runs.
  if (!WriteGraph("W", Derive(seed, 30), dir, in, nullptr, error)) return false;
  in->warmup = {MakeRun("4-cycle", ShapeText("4-cycle", "W"), "count", "CLFTJ-P")};
  in->notes.push_back(
      "closed loop, 1 connection, engine CLFTJ-P; 4 relations of ~" +
      std::to_string(tuples / relations) +
      " tuples, 5 shapes each; set-up warms on a 5th relation W");
  return true;
}

bool MakeReadWrite(std::uint64_t seed, double seconds, const std::string& dir,
                   Inputs* in, std::string* error) {
  Dashboard dash;
  if (!MakeDashboard(seed, dir, in, &dash, error)) return false;
  in->warmup = DistinctByCost(dash.counts);

  in->open_loop = true;
  const double read_rate = 20.0;
  const double write_interval = 5.0;
  // Three reader streams with independent Poisson arrivals that sum to
  // read_rate. Each is conditioned on its expected arrival count (that many
  // uniform arrival times, sorted), so the offered load is the same for
  // every seed and only the arrival pattern varies.
  const int readers = 3;
  const int per_reader = static_cast<int>(
      std::lround(read_rate * std::max(1.0, seconds) / readers));
  for (int c = 0; c < readers; ++c) {
    clftj::Rng rng(Derive(seed, 200 + c));
    std::vector<double> due;
    for (int i = 0; i < per_reader; ++i) due.push_back(rng.UniformReal() * seconds);
    std::sort(due.begin(), due.end());
    MixDrawer draw(dash.counts, Derive(seed, 250 + c));
    std::vector<BenchRequest> stream;
    for (const double t : due) {
      BenchRequest r = draw.Next();
      r.due = t;
      stream.push_back(std::move(r));
    }
    in->streams.push_back(std::move(stream));
  }

  // One writer: a small DELTA every write_interval seconds, starting half an
  // interval in and rotating over the relations. None is sent in the last
  // interval, so the refill after the last write ends inside the schedule
  // and the makespan measures whether the server kept up, not where a
  // refill happened to fall.
  std::vector<EdgeSet> edges;
  for (const clftj::Relation& rel : dash.relations) edges.push_back(Edges(rel));
  clftj::Rng rng(Derive(seed, 300));
  const double last_write = std::max(seconds - write_interval, write_interval / 2);
  int k = 0;
  for (double t = write_interval / 2; t <= last_write;
       t += write_interval, k = (k + 1) % kDashboardRelations) {
    BenchRequest r = MakeDelta(dash.names[k], &edges[k], rng);
    r.due = t;
    in->writes.push_back(std::move(r));
  }
  in->notes.push_back(
      "open loop: 3 Poisson reader streams, 20 reads/s in total; 1 writer, "
      "one 4-tuple DELTA every 5 s");
  return true;
}

}  // namespace

bool IsDelta(const BenchRequest& r) { return r.wire.kind == "delta"; }

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"warm-mixed", "cold-join",
                                                 "read-write"};
  return names;
}

bool MakeInputs(const std::string& workload, std::uint64_t seed,
                double seconds, const std::string& dir, Inputs* inputs,
                std::string* error) {
  *inputs = Inputs();
  inputs->workload = workload;
  inputs->seed = seed;
  if (workload == "warm-mixed") {
    return MakeWarmMixed(seed, seconds, dir, inputs, error);
  }
  if (workload == "cold-join") return MakeColdJoin(seed, dir, inputs, error);
  if (workload == "read-write") {
    return MakeReadWrite(seed, seconds, dir, inputs, error);
  }
  *error = "unknown workload: " + workload;
  return false;
}

}  // namespace perfbench
