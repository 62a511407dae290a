// The string-workload differential suite: a string-keyed dataset and its
// hand-remapped integer twin (every string replaced by its dictionary id,
// by hand, outside the loader) must be *indistinguishable* to every
// engine — bit-identical execution counters and identical raw tuple sets —
// because the join core never sees a string. The decode boundary is then
// checked separately: decoding the string run's tuples must reproduce the
// original labels. This is the invariant that makes the typed value domain
// a pure boundary refactor.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "clftj/cached_trie_join.h"

#include "data/database.h"
#include "data/dictionary.h"
#include "data/generators.h"
#include "engine/engine.h"
#include "engine/printer.h"
#include "test_util.h"

namespace clftj {
namespace {

using clftj::testing::CollectTuples;
using clftj::testing::Q;

// One engine configuration of the differential matrix. CLFTJ-P at two or
// more threads shares one cache table among its workers, so which worker
// hits a subtree another computed depends on thread timing: its counters
// vary from run to run even on identical data, and only its counts and
// tuples are compared. Every other configuration's counters are
// deterministic and must be bit-identical across the twins.
struct EngineConfig {
  std::string label;
  std::string name;
  int threads = 0;
  bool deterministic_stats = true;
};

std::vector<EngineConfig> Engines() {
  return {
      {"PairwiseHJ", "PairwiseHJ", 0},
      {"GenericJoin", "GenericJoin", 0},
      {"LFTJ", "LFTJ", 0},
      {"CLFTJ", "CLFTJ", 0},
      {"CLFTJ-P/1", "CLFTJ-P", 1},
      {"CLFTJ-P/2", "CLFTJ-P", 2, /*deterministic_stats=*/false},
      {"CLFTJ-P/8", "CLFTJ-P", 8, /*deterministic_stats=*/false},
  };
}

std::unique_ptr<JoinEngine> Make(const EngineConfig& cfg) {
  EngineOptions options;
  options.threads = cfg.threads;
  auto engine = MakeEngine(cfg.name, options);
  EXPECT_NE(engine, nullptr) << cfg.name;
  return engine;
}

void ExpectStatsIdentical(const ExecStats& a, const ExecStats& b,
                          const EngineConfig& cfg,
                          const std::string& context) {
  EXPECT_EQ(a.output_tuples, b.output_tuples) << context;
  if (!cfg.deterministic_stats) return;
  EXPECT_EQ(a.memory_accesses, b.memory_accesses) << context;
  EXPECT_EQ(a.intermediate_tuples, b.intermediate_tuples) << context;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << context;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << context;
  EXPECT_EQ(a.cache_inserts, b.cache_inserts) << context;
  EXPECT_EQ(a.cache_rejects, b.cache_rejects) << context;
  EXPECT_EQ(a.cache_evictions, b.cache_evictions) << context;
  EXPECT_EQ(a.cache_entries_peak, b.cache_entries_peak) << context;
  EXPECT_EQ(a.cache_bytes_peak, b.cache_bytes_peak) << context;
}

// Hand-remaps an integer relation through the labels StringKeyed interned:
// value v becomes Lookup("<prefix><v>"). This is the "pre-remapped by
// hand" twin of the ISSUE's acceptance criterion — built without the
// loader or the string twin's columns, only the public dictionary mapping.
Relation HandRemapped(const Relation& rel, const std::string& prefix,
                      const Dictionary& dict) {
  std::vector<std::vector<Value>> columns(
      static_cast<std::size_t>(rel.arity()));
  for (int c = 0; c < rel.arity(); ++c) {
    const ColumnSpan span = rel.Column(c);
    auto& out = columns[static_cast<std::size_t>(c)];
    out.reserve(span.size());
    for (const Value v : span) {
      const auto id = dict.Lookup(prefix + std::to_string(v));
      EXPECT_TRUE(id.has_value());
      out.push_back(*id);
    }
  }
  Relation remapped = Relation::FromColumns(rel.name(), std::move(columns));
  remapped.Normalize();
  return remapped;
}

class StringWorkloadDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    const Relation ints =
        PreferentialAttachmentGraph("E", /*num_nodes=*/60,
                                    /*edges_per_node=*/3, /*seed=*/7);
    original_int_db_.Put(ints);
    string_db_.Put(StringKeyed(ints, "node_", &string_db_.dict()));
    remapped_db_.Put(HandRemapped(ints, "node_", string_db_.dict()));
  }

  Database original_int_db_;  // the labels' source values
  Database string_db_;        // string-keyed (dictionary-encoded)
  Database remapped_db_;      // integer twin, remapped by hand
};

TEST_F(StringWorkloadDifferential, AllEnginesCountersAndTuplesIdentical) {
  const std::vector<std::string> queries = {
      "E(x,y), E(y,z), E(x,z)",                  // triangle
      "E(a,b), E(b,c), E(c,d)",                  // 3-path
      "E(a,b), E(b,c), E(c,d), E(d,a)",          // 4-cycle
  };
  for (const std::string& text : queries) {
    const Query q = Q(text);
    for (const EngineConfig& cfg : Engines()) {
      const std::string context = cfg.label + " on " + text;
      auto on_strings = Make(cfg);
      auto on_ints = Make(cfg);
      const RunResult rs = on_strings->Count(q, string_db_, {});
      const RunResult ri = on_ints->Count(q, remapped_db_, {});
      EXPECT_EQ(rs.count, ri.count) << context;
      ExpectStatsIdentical(rs.stats, ri.stats, cfg, context);

      auto eval_strings = Make(cfg);
      auto eval_ints = Make(cfg);
      EXPECT_EQ(CollectTuples(*eval_strings, q, string_db_),
                CollectTuples(*eval_ints, q, remapped_db_))
          << context;
    }
  }
}

TEST_F(StringWorkloadDifferential, DecodedTuplesMatchOriginalLabels) {
  const Query q = Q("E(x,y), E(y,z), E(x,z)");
  auto clftj_strings = MakeEngine("CLFTJ");
  auto clftj_ints = MakeEngine("CLFTJ");

  // Decode every string-run tuple back to labels.
  const std::vector<ColumnType> types = VariableTypes(q, string_db_);
  ASSERT_EQ(types, (std::vector<ColumnType>{ColumnType::kString,
                                            ColumnType::kString,
                                            ColumnType::kString}));
  std::vector<std::vector<std::string>> decoded;
  for (const Tuple& t : CollectTuples(*clftj_strings, q, string_db_)) {
    std::vector<std::string> row;
    for (std::size_t v = 0; v < t.size(); ++v) {
      row.push_back(FormatValue(t[v], types[v], &string_db_.dict()));
    }
    decoded.push_back(std::move(row));
  }

  // Map the original integer run's tuples through the label scheme.
  std::vector<std::vector<std::string>> expected;
  for (const Tuple& t : CollectTuples(*clftj_ints, q, original_int_db_)) {
    std::vector<std::string> row;
    for (const Value v : t) row.push_back("node_" + std::to_string(v));
    expected.push_back(std::move(row));
  }

  std::sort(decoded.begin(), decoded.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(decoded, expected);
}

TEST_F(StringWorkloadDifferential, FactorizedEnumerationDecodes) {
  // The factorized representation stays in the Value domain; decode
  // happens per emitted tuple inside PrintFactorized. Its output must
  // match printing the flat Evaluate stream through the same printer.
  const Query q = Q("E(x,y), E(y,z), E(x,z)");
  CachedTrieJoin engine;
  RunResult run;
  const auto factorized = engine.EvaluateFactorized(q, string_db_, {}, &run);
  ASSERT_TRUE(factorized.has_value());

  std::ostringstream from_factorized;
  PrintFactorized(*factorized, q, string_db_, from_factorized);

  std::ostringstream from_flat;
  TuplePrinter printer(q, string_db_, from_flat);
  auto flat_engine = MakeEngine("CLFTJ");
  flat_engine->Evaluate(q, string_db_,
                        [&printer](const Tuple& t) { printer.Print(t); }, {});

  // Same multiset of lines (enumeration orders may differ).
  const auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto factorized_lines = lines(from_factorized.str());
  EXPECT_EQ(factorized_lines, lines(from_flat.str()));
  EXPECT_EQ(factorized_lines.size(), factorized->Count());
  ASSERT_FALSE(factorized_lines.empty());
  EXPECT_NE(factorized_lines.front().find("node_"), std::string::npos);
}

TEST(StringWorkloadMixed, MixedTypeColumnsDifferentialAndVariableTypes) {
  // A bipartite relation with a string person column and an integer movie
  // column: only the string column round-trips through the dictionary; the
  // int column's values must pass through untouched.
  const Relation ints = BipartiteZipf("A", /*left_nodes=*/25,
                                      /*right_nodes=*/40, /*num_edges=*/150,
                                      /*left_skew=*/1.0, /*right_skew=*/0.2,
                                      /*seed=*/11);
  Database string_db;
  Database remapped_db;
  {
    std::vector<Value> persons, movies;
    const ColumnSpan p = ints.Column(0);
    const ColumnSpan m = ints.Column(1);
    for (std::size_t i = 0; i < ints.size(); ++i) {
      persons.push_back(
          string_db.dict().Encode("person_" + std::to_string(p[i])));
      movies.push_back(m[i]);
    }
    Relation rel = Relation::FromColumns(
        "A", {std::move(persons), std::move(movies)},
        {ColumnType::kString, ColumnType::kInt});
    rel.Normalize();
    string_db.Put(std::move(rel));
  }
  {
    std::vector<Value> persons, movies;
    const ColumnSpan p = ints.Column(0);
    const ColumnSpan m = ints.Column(1);
    for (std::size_t i = 0; i < ints.size(); ++i) {
      persons.push_back(*string_db.dict().Lookup(
          "person_" + std::to_string(p[i])));
      movies.push_back(m[i]);
    }
    Relation rel = Relation::FromColumns(
        "A", {std::move(persons), std::move(movies)});
    rel.Normalize();
    remapped_db.Put(std::move(rel));
  }

  const Query q = Q("A(p,m), A(q,m)");  // co-cast pairs
  const std::vector<ColumnType> types = VariableTypes(q, string_db);
  EXPECT_EQ(types, (std::vector<ColumnType>{
                       ColumnType::kString,   // p
                       ColumnType::kInt,      // m
                       ColumnType::kString})) // q
      << "variable types must follow the bound columns";

  for (const EngineConfig& cfg : Engines()) {
    auto on_strings = Make(cfg);
    auto on_ints = Make(cfg);
    const RunResult rs = on_strings->Count(q, string_db, {});
    const RunResult ri = on_ints->Count(q, remapped_db, {});
    EXPECT_EQ(rs.count, ri.count) << cfg.label;
    ExpectStatsIdentical(rs.stats, ri.stats, cfg, cfg.label);
    auto eval_strings = Make(cfg);
    auto eval_ints = Make(cfg);
    EXPECT_EQ(CollectTuples(*eval_strings, q, string_db),
              CollectTuples(*eval_ints, q, remapped_db))
        << cfg.label;
  }
}

}  // namespace
}  // namespace clftj
