// Reference answers: fresh serial CLFTJ runs with no reuse layer over the
// same generated data, one database per version of a read-write stream.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "data/loader.h"
#include "engine/engine.h"
#include "query/parser.h"

namespace perfbench {

bool LoadDatabase(const Inputs& inputs, clftj::Database* db,
                  std::string* error) {
  for (const auto& [name, path] : inputs.relations) {
    clftj::LoadError err;
    auto rel = clftj::LoadRelationAuto(path, name, &db->dict(), &err);
    if (!rel.has_value()) {
      *error = "cannot load " + path + ": " + err.ToString();
      return false;
    }
    db->Put(std::move(*rel));
  }
  return true;
}

bool Reference::Load(const Inputs& inputs,
                     const std::vector<BenchRequest>& writes,
                     std::string* error) {
  dbs_.clear();
  applied_.clear();
  for (std::size_t k = 0; k <= writes.size(); ++k) {
    auto db = std::make_unique<clftj::Database>();
    if (!LoadDatabase(inputs, db.get(), error)) return false;
    for (std::size_t j = 0; j < k; ++j) {
      clftj::DeltaResult result;
      if (!db->ApplyDelta(writes[j].wire.delta, error, &result)) return false;
      if (j + 1 == k) {
        applied_.push_back(result.applied_adds + result.applied_deletes);
      }
    }
    dbs_.push_back(std::move(db));
  }
  return true;
}

namespace {

Reference::Answer Run(const BenchRequest& request, const clftj::Database& db) {
  Reference::Answer answer;
  auto query = clftj::ParseQuery(request.wire.query_text);
  if (!query.has_value()) return answer;
  const std::unique_ptr<clftj::JoinEngine> engine = clftj::MakeEngine("CLFTJ");
  clftj::RunResult result;
  if (request.wire.mode == "eval") {
    std::uint64_t digest = 0;
    result = engine->Evaluate(
        *query, db, [&digest](const clftj::Tuple& t) { digest += TupleDigest(t); },
        clftj::RunLimits{});
    answer.digest = digest;
  } else {
    result = engine->Count(*query, db, clftj::RunLimits{});
  }
  answer.ok = result.status == clftj::RunStatus::kOk;
  answer.count = result.count;
  return answer;
}

}  // namespace

void Reference::Compute(
    const std::vector<std::pair<const BenchRequest*, int>>& needed,
    int threads) {
  std::vector<std::pair<const BenchRequest*, int>> todo;
  for (const auto& item : needed) {
    if (item.second < 0 || item.second >= versions()) continue;
    if (Find(item.first->line, item.second) != nullptr) continue;
    bool dup = false;
    for (const auto& t : todo) {
      if (t.first->line == item.first->line && t.second == item.second) {
        dup = true;
        break;
      }
    }
    if (!dup) todo.push_back(item);
  }
  std::vector<Answer> answers(todo.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      answers[i] = Run(*todo[i].first, *dbs_[todo[i].second]);
    }
  };
  std::vector<std::thread> pool;
  const int n = std::max(1, std::min<int>(threads, static_cast<int>(todo.size())));
  for (int t = 0; t < n; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < todo.size(); ++i) {
    Put(todo[i].first->line, todo[i].second, answers[i]);
  }
}

const Reference::Answer* Reference::Find(const std::string& line,
                                         int version) const {
  const auto it = answers_.find({line, version});
  return it == answers_.end() ? nullptr : &it->second;
}

void Reference::Put(const std::string& line, int version,
                    const Answer& answer) {
  answers_[{line, version}] = answer;
}

}  // namespace perfbench
