// clftj_cli — run a conjunctive query against a dataset with any engine.
//
// Usage examples:
//   clftj_cli --query "E(x,y), E(y,z), E(x,z)" --dataset wiki-Vote
//   clftj_cli --query-file q.txt --edges graph.txt --engine CLFTJ --mode eval
//   clftj_cli --query "E(a,b),E(b,c)" --dataset ca-GrQc --engine LFTJ
//             --timeout 30 --cache-capacity 100000

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <utility>
#include <vector>

#include "data/loader.h"
#include "data/snap_profiles.h"
#include "engine/engine.h"
#include "engine/printer.h"
#include "engine/reuse.h"
#include "query/parser.h"
#include "td/planner.h"
#include "util/simd.h"

namespace {

void Usage() {
  std::cerr <<
      "clftj_cli — trie joins with flexible caching\n"
      "  --query <text>         query, e.g. \"E(x,y), E(y,z)\"\n"
      "  --query-file <path>    read the query from a file\n"
      "  --dataset <label>      synthetic profile: wiki-Vote, p2p-Gnutella04,\n"
      "                         ca-GrQc, ego-Facebook, ego-Twitter, imdb\n"
      "  --edges <path>         load relation E from an edge-list file;\n"
      "                         column types auto-detected (text keys are\n"
      "                         dictionary-encoded and decoded on output)\n"
      "  --relation <name=path> load any relation from a text file (repeat\n"
      "                         for several); arity and column types are\n"
      "                         auto-detected, quoted fields supported\n"
      "  --engine <name>        LFTJ | CLFTJ | CLFTJ-P | YTD | PairwiseHJ\n"
      "                         | GenericJoin | NestedLoop   (default CLFTJ)\n"
      "  --mode <count|eval|info>  default count (eval prints tuples; info\n"
      "                         prints the SIMD dispatch summary and exits)\n"
      "  --simd <auto|avx2|scalar>  kernel dispatch for the seek/filter hot\n"
      "                         paths (default auto: AVX2 when the CPU has\n"
      "                         it; results and counters are identical\n"
      "                         either way, see docs/simd.md)\n"
      "  --timeout <seconds>    wall-clock budget (default unlimited)\n"
      "  --threads <n>          CLFTJ-P worker count (default: all hardware\n"
      "                         threads; workers pull small morsels of the\n"
      "                         first variable's domain and share one\n"
      "                         striped cache table; 1 = sequential CLFTJ)\n"
      "  --cache-capacity <n>   bound CLFTJ's cache entries (default unbounded)\n"
      "  --cache-bytes <n>      bound CLFTJ's cache payload bytes instead\n"
      "  --cache-stripes <n>    stripe count of CLFTJ-P's shared table\n"
      "                         (default: picked from the worker count)\n"
      "  --support-threshold <n> CLFTJ admission: min value support\n"
      "  --max-rows <n>         materialization budget for YTD/PairwiseHJ\n"
      "  --stats                print execution counters\n"
      "  --repeat <n>           run the query n times in one process; CLFTJ\n"
      "                         and CLFTJ-P reuse the prepared plan, shared\n"
      "                         tries and persistent cache across iterations\n"
      "                         (per-iteration wall clock is printed, so the\n"
      "                         warm-over-cold effect is directly visible)\n"
      "  --append <R=tuples>    with --repeat: apply a delta (tuples\n"
      "                         \"1,2;3,4\") to relation R after the first\n"
      "                         iteration — later iterations run on mutated\n"
      "                         data with plans/tries/caches surviving via\n"
      "                         targeted invalidation (repeatable flag)\n"
      "  --explain              print the chosen tree decomposition, the\n"
      "                         variable order and plan costs, then exit\n"
      "Exit codes: 0 success; 2 usage error or unparsable query;\n"
      "            3 TIMEOUT (--timeout expired); 4 OUT-OF-MEMORY\n"
      "            (--max-rows budget exceeded); 5 other failure.\n"
      "Failures print a diagnostic to stderr; stdout carries results only.\n";
}

// Parses "R=1,2;3,4" into an append-only DeltaBatch (values ','-separated
// within a tuple, tuples ';'-separated).
bool ParseAppendSpec(const std::string& spec, clftj::DeltaBatch* batch) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    return false;
  }
  batch->relation = spec.substr(0, eq);
  std::stringstream in(spec.substr(eq + 1));
  std::string chunk;
  while (std::getline(in, chunk, ';')) {
    clftj::Tuple tuple;
    std::stringstream tin(chunk);
    std::string field;
    while (std::getline(tin, field, ',')) {
      if (field.empty()) return false;
      char* tail = nullptr;
      tuple.push_back(static_cast<clftj::Value>(
          std::strtoull(field.c_str(), &tail, 10)));
      if (tail == nullptr || *tail != '\0') return false;
    }
    if (tuple.empty()) return false;
    batch->adds.push_back(std::move(tuple));
  }
  return !batch->adds.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_text;
  std::string dataset;
  std::string edges_path;
  std::vector<std::pair<std::string, std::string>> relation_specs;
  std::string engine_name = "CLFTJ";
  std::string mode = "count";
  double timeout = 0.0;
  int threads = 0;
  std::uint64_t cache_capacity = 0;
  std::uint64_t cache_bytes = 0;
  int cache_stripes = 0;
  std::uint64_t support_threshold = 0;
  std::uint64_t max_rows = 0;
  bool print_stats = false;
  bool explain = false;
  int repeat = 1;
  std::vector<clftj::DeltaBatch> appends;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--query") {
      query_text = next();
    } else if (arg == "--query-file") {
      std::ifstream in(next());
      std::stringstream ss;
      ss << in.rdbuf();
      query_text = ss.str();
    } else if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--edges") {
      edges_path = next();
    } else if (arg == "--relation") {
      const std::string spec = next();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
        std::cerr << "--relation expects name=path, got: " << spec << "\n";
        return 2;
      }
      relation_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--engine") {
      engine_name = next();
    } else if (arg == "--mode") {
      mode = next();
    } else if (arg == "--simd") {
      const std::string spec = next();
      clftj::simd::Mode simd_mode;
      if (!clftj::simd::ParseMode(spec, &simd_mode)) {
        std::cerr << "unknown --simd mode: " << spec
                  << " (expected auto, avx2 or scalar)\n";
        return 2;
      }
      if (!clftj::simd::SetMode(simd_mode)) {
        std::cerr << "--simd avx2 requested but the AVX2 kernels are "
                     "unavailable here (" << clftj::simd::Describe() << ")\n";
        return 2;
      }
    } else if (arg == "--timeout") {
      timeout = std::stod(next());
    } else if (arg == "--threads") {
      threads = std::stoi(next());
    } else if (arg == "--cache-capacity") {
      cache_capacity = std::stoull(next());
    } else if (arg == "--cache-bytes") {
      cache_bytes = std::stoull(next());
    } else if (arg == "--cache-stripes") {
      cache_stripes = std::stoi(next());
    } else if (arg == "--support-threshold") {
      support_threshold = std::stoull(next());
    } else if (arg == "--max-rows") {
      max_rows = std::stoull(next());
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--repeat") {
      repeat = std::stoi(next());
    } else if (arg == "--append") {
      const std::string spec = next();
      clftj::DeltaBatch batch;
      if (!ParseAppendSpec(spec, &batch)) {
        std::cerr << "--append expects R=1,2;3,4, got: " << spec << "\n";
        return 2;
      }
      appends.push_back(std::move(batch));
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      Usage();
      return 2;
    }
  }

  // --mode info is a pure introspection mode: report the resolved kernel
  // dispatch (after any --simd override) and exit without needing a query
  // or dataset.
  if (mode == "info") {
    std::cout << "simd: " << clftj::simd::Describe() << "\n";
    return 0;
  }

  if (query_text.empty()) {
    std::cerr << "a query is required (--query or --query-file)\n";
    Usage();
    return 2;
  }
  std::string error;
  const auto query = clftj::ParseQuery(query_text, &error);
  if (!query.has_value()) {
    std::cerr << "query parse error: " << error << "\n";
    return 2;
  }

  clftj::Database db;
  if (!edges_path.empty() || !relation_specs.empty()) {
    // File loads auto-detect column types; string keys are interned into
    // the database dictionary and decoded again when tuples are printed.
    if (!edges_path.empty()) {
      relation_specs.emplace_back("E", edges_path);
    }
    for (const auto& [name, path] : relation_specs) {
      clftj::LoadError err;
      std::vector<clftj::ColumnType> schema;
      auto rel = clftj::LoadRelationAuto(path, name, &db.dict(), &err,
                                         &schema);
      if (!rel.has_value()) {
        std::cerr << "failed to load " << name << ": " << err.ToString()
                  << "\n";
        return 2;
      }
      if (path == edges_path && rel->arity() != 2) {
        std::cerr << "failed to load edge list " << path << ": expected 2 "
                  << "columns, got " << rel->arity() << "\n";
        return 2;
      }
      if (rel->has_string_columns()) {
        // Say so out loud: one stray non-numeric token in an otherwise
        // integer file flips its whole column to strings, and the ids
        // would silently mean something different from the raw integers.
        std::cerr << "note: " << name << " (" << path << ") detected as [";
        for (std::size_t c = 0; c < schema.size(); ++c) {
          std::cerr << (c > 0 ? "," : "")
                    << (schema[c] == clftj::ColumnType::kString ? "string"
                                                                : "int");
        }
        std::cerr << "] — string keys are dictionary-encoded\n";
      }
      db.Put(std::move(*rel));
    }
  } else if (dataset == "imdb") {
    db = clftj::MakeImdbDatabase();
  } else if (!dataset.empty()) {
    db = clftj::MakeSnapDatabase(clftj::SnapProfileByLabel(dataset));
  } else {
    std::cerr << "a dataset is required (--dataset, --edges or --relation)\n";
    return 2;
  }

  if (explain) {
    const auto plans = clftj::EnumeratePlans(*query, db);
    std::cout << plans.size() << " candidate decomposition(s); best first:\n";
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const clftj::TdPlan& plan = plans[i];
      std::cout << "#" << (i + 1) << " " << plan.td.ToString(*query)
                << "\n   structural_cost=" << plan.structural_cost
                << " order_cost=" << plan.order_cost << " order=";
      for (const clftj::VarId v : plan.order) {
        std::cout << query->var_name(v) << " ";
      }
      std::cout << "\n   adhesions:";
      for (clftj::NodeId v = 0; v < plan.td.num_nodes(); ++v) {
        if (v == plan.td.root()) continue;
        std::cout << " {";
        const auto adhesion = plan.td.Adhesion(v);
        for (std::size_t j = 0; j < adhesion.size(); ++j) {
          std::cout << (j > 0 ? "," : "") << query->var_name(adhesion[j]);
        }
        std::cout << "}";
      }
      std::cout << "\n";
    }
    return 0;
  }

  clftj::EngineOptions engine_options;
  engine_options.threads = threads;
  engine_options.cache.capacity = cache_capacity;
  engine_options.cache.capacity_bytes = cache_bytes;
  engine_options.cache.stripes = cache_stripes;
  if (support_threshold > 0) {
    engine_options.cache.admission =
        clftj::CacheOptions::Admission::kSupportThreshold;
    engine_options.cache.support_threshold = support_threshold;
  }

  if (!clftj::IsKnownEngine(engine_name)) {
    std::cerr << "unknown engine: " << engine_name << "\n";
    return 2;
  }
  if (mode != "count" && mode != "eval") {
    std::cerr << "unknown mode: " << mode << "\n";
    return 2;
  }
  if (repeat < 1) repeat = 1;
  if (!appends.empty() && repeat < 2) {
    std::cerr << "--append only makes sense with --repeat >= 2 (the delta "
                 "applies after the first iteration)\n";
    return 2;
  }

  clftj::RunLimits limits;
  limits.timeout_seconds = timeout;
  limits.max_intermediate_tuples = max_rows;

  // --repeat with a CLFTJ-family engine exercises the same cross-query
  // reuse layer the query service uses: the first iteration plans, builds
  // tries and fills the persistent cache; later iterations ride on them.
  std::unique_ptr<clftj::CrossQueryReuse> reuse;
  if (repeat > 1 && (engine_name == "CLFTJ" || engine_name == "CLFTJ-P")) {
    reuse = std::make_unique<clftj::CrossQueryReuse>(
        clftj::ReuseOptions{}, clftj::PlannerOptions{}, engine_options.cache,
        clftj::EffectiveThreads(threads));
  }

  clftj::RunResult result;
  for (int iter = 0; iter < repeat; ++iter) {
    const bool last = iter + 1 == repeat;
    clftj::EngineOptions iter_options = engine_options;
    clftj::ExecStats reuse_stats;
    clftj::CrossQueryReuse::Prepared prepared;  // outlives the engine run
    if (reuse != nullptr) {
      prepared = reuse->Prepare(*query, db, &reuse_stats);
      iter_options.prepared_plan = prepared.plan;
      iter_options.prepared_substrate = prepared.substrate;
      if (prepared.caches != nullptr) {
        if (mode == "count") {
          iter_options.shared_count_cache = &prepared.caches->count;
        } else {
          iter_options.shared_eval_cache = &prepared.caches->eval;
        }
      }
    }
    const std::unique_ptr<clftj::JoinEngine> engine =
        clftj::MakeEngine(engine_name, iter_options);
    if (mode == "count") {
      result = engine->Count(*query, db, limits);
    } else {
      // Tuples are printed once, on the last iteration; earlier warm-up
      // iterations still evaluate fully, they just discard the stream.
      clftj::TuplePrinter printer(*query, db, std::cout);
      const clftj::TupleCallback print = [&printer](const clftj::Tuple& t) {
        printer.Print(t);
      };
      const clftj::TupleCallback drop = [](const clftj::Tuple&) {};
      result = engine->Evaluate(*query, db, last ? print : drop, limits);
    }
    result.stats.Merge(reuse_stats);
    if (repeat > 1) {
      std::cout << "iter " << (iter + 1) << ": " << result.seconds << "s\n";
    }
    if (!result.ok()) break;
    if (iter == 0) {
      // Live mutation demo: the delta lands between iterations, so the
      // remaining warm runs show plans, shared tries and caches surviving
      // a data change (reuse is revalidated, not rebuilt).
      for (const clftj::DeltaBatch& batch : appends) {
        clftj::DeltaResult delta_result;
        if (!db.ApplyDelta(batch, &error, &delta_result)) {
          std::cerr << "--append failed for " << batch.relation << ": "
                    << error << "\n";
          return 2;
        }
        std::cout << "applied +" << delta_result.applied_adds << " to "
                  << batch.relation
                  << (delta_result.compacted ? " (compacted)" : "") << "\n";
      }
    }
  }
  std::cout << (mode == "count" ? "count: " : "tuples: ") << result.count
            << "\n";

  std::cout << "engine: " << engine_name << "  time: " << result.seconds
            << "s\n";
  if (print_stats) std::cout << result.stats.ToString() << "\n";
  if (!result.ok()) {
    // Scripts branch on the exit code and read the diagnostic from stderr;
    // stdout stays parseable result output even on failure.
    std::cerr << "error: " << clftj::RunStatusName(result.status);
    if (!result.message.empty()) std::cerr << ": " << result.message;
    if (result.status == clftj::RunStatus::kTimeout) {
      std::cerr << " (wall clock exceeded --timeout " << timeout << "s)";
    } else if (result.status == clftj::RunStatus::kOutOfMemory) {
      std::cerr << " (materialization exceeded --max-rows " << max_rows
                << ")";
    }
    std::cerr << "\n";
    switch (result.status) {
      case clftj::RunStatus::kTimeout:
        return 3;
      case clftj::RunStatus::kOutOfMemory:
        return 4;
      default:
        return 5;
    }
  }
  return 0;
}
