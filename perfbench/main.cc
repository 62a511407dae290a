// perfbench_harness — end-to-end serving benchmark for clftj_server.
//
//   perfbench_harness run --workload <name> --seed <n> --seconds <s>
//       --trace <0|1> --bin <dir with clftj_server, clftj_cli> --out <dir>
//   perfbench_harness selftest --out <dir>
//
// `run` prints a report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: every end-to-end metric the
// run's samples support with --trace 0, the per-layer metrics of the traced
// replay with --trace 1. It exits nonzero on any wrong answer or if the
// server dies. perfbench/run.py builds everything, calls this, and keeps the
// metrics BENCHMARK.json names; see README.md.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = value != "0";
      } else if (key == "--bin") {
        args->bin = value;
      } else if (key == "--out") {
        args->out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->out.empty();
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  std::stringstream parts(path);
  std::string part;
  if (!path.empty() && path[0] == '/') prefix = "/";
  while (std::getline(parts, part, '/')) {
    if (part.empty()) continue;
    prefix += part + "/";
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::string JsonNumber(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string SimdArm(const std::string& bin) {
  const std::string cmd = "'" + bin + "/clftj_cli' --mode info 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[512];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

// ------------------------------------------------------------------ check

struct Check {
  std::map<std::string, std::uint64_t> statuses;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
};

// Every answered request is compared with the reference: counts exactly,
// evals by tuple count and order-independent digest, deltas by the number
// of tuples applied. A read-write read may match any version live while it
// was in flight; the quiescent pass must match the final version exactly.
void CheckLive(const Inputs& inputs, const LiveResult& live,
               const std::vector<BenchRequest>& writes, int threads,
               Reference* reference, Check* check) {
  // When each write was sent and answered, for version windows.
  std::vector<double> w_send(writes.size(), 0), w_recv(writes.size(), 1e300);
  for (const Sample& s : live.samples) {
    for (std::size_t k = 0; k < writes.size(); ++k) {
      if (s.request == &writes[k] ||
          (s.request != nullptr && IsDelta(*s.request) &&
           s.request->line == writes[k].line)) {
        if (s.send > 0) w_send[k] = s.send;
        if (s.answered) w_recv[k] = s.recv;
      }
    }
  }
  const int last = static_cast<int>(writes.size());
  std::vector<std::pair<int, int>> window(live.samples.size(), {0, 0});
  std::vector<std::pair<const BenchRequest*, int>> needed;
  for (std::size_t i = 0; i < live.samples.size(); ++i) {
    const Sample& s = live.samples[i];
    if (!s.answered || IsDelta(*s.request)) continue;
    int lo = 0, hi = 0;
    if (s.phase == Sample::Phase::kQuiescent) {
      lo = hi = last;
    } else if (s.phase == Sample::Phase::kTimed && inputs.open_loop) {
      lo = last;
      hi = 0;
      for (int k = 0; k <= last; ++k) {
        const bool started = k == 0 || w_send[k - 1] <= s.recv;
        const bool not_superseded = k == last || w_recv[k] >= s.send;
        if (started && not_superseded) {
          lo = std::min(lo, k);
          hi = std::max(hi, k);
        }
      }
    }
    window[i] = {lo, hi};
    for (int k = lo; k <= hi; ++k) needed.emplace_back(s.request, k);
  }
  std::stable_sort(needed.begin(), needed.end(), [](const auto& a, const auto& b) {
    return a.first->shape < b.first->shape;
  });
  reference->Compute(needed, threads);

  for (std::size_t i = 0; i < live.samples.size(); ++i) {
    const Sample& s = live.samples[i];
    ++check->attempted;
    if (!s.answered) {
      ++check->statuses["transport"];
      ++check->failed;
      continue;
    }
    ++check->statuses[clftj::RunStatusName(s.response.status)];
    if (s.response.status != clftj::RunStatus::kOk) {
      ++check->failed;
      continue;
    }
    const BenchRequest& r = *s.request;
    if (IsDelta(r)) {
      std::size_t k = 0;
      while (k < writes.size() && writes[k].line != r.line) ++k;
      if (k == writes.size() || reference->applied()[k] != s.response.count) {
        check->mismatches.push_back("delta applied " +
                                    std::to_string(s.response.count) + ": " +
                                    r.line);
      }
      continue;
    }
    bool match = false;
    for (int k = window[i].first; k <= window[i].second && !match; ++k) {
      const Reference::Answer* a = reference->Find(r.line, k);
      match = a != nullptr && a->ok && a->count == s.response.count &&
              (r.wire.mode != "eval" || a->digest == s.digest);
    }
    if (!match) {
      const Reference::Answer* a = reference->Find(r.line, window[i].first);
      check->mismatches.push_back(
          "got " + std::to_string(s.response.count) + " want " +
          (a == nullptr ? std::string("?") : std::to_string(a->count)) +
          " (versions " + std::to_string(window[i].first) + ".." +
          std::to_string(window[i].second) + "): " + r.line);
    }
  }
}

// ---------------------------------------------------------------- metrics

void Percentiles(const std::string& prefix, const std::vector<double>& v,
                 const std::vector<int>& ps, Metrics* table,
                 std::vector<std::string>* unsupported) {
  for (const int p : ps) {
    const std::string name = prefix + "_p" + std::to_string(p) + "_ms";
    double value = 0;
    if (SupportedPercentile(v, p, &value)) {
      (*table)[name] = {value, "ms"};
    } else {
      unsupported->push_back(name + " (n=" + std::to_string(v.size()) + ")");
    }
  }
}

Metrics EndToEnd(const Inputs& inputs, const LiveResult& live,
                 const Check& check, std::vector<std::string>* unsupported) {
  Metrics t;
  t["setup_s"] = {RankPercentile(live.setup_seconds, 50), "s"};
  std::vector<double> count_ms, eval_ms, write_ms;
  double ok_runs = 0;
  for (const Sample& s : live.samples) {
    if (s.phase != Sample::Phase::kTimed || !s.answered ||
        s.response.status != clftj::RunStatus::kOk) {
      continue;
    }
    // Open loop: from the due time, so a stalled generator's lateness
    // counts against the system.
    const double start = inputs.open_loop ? s.due : s.send;
    const double ms = (s.parsed - start) * 1e3;
    if (IsDelta(*s.request)) {
      write_ms.push_back(ms);
      continue;
    }
    ok_runs += 1;
    (s.request->wire.mode == "eval" ? eval_ms : count_ms).push_back(ms);
  }
  // Open loop: near the offered rate while the server keeps up; a backlog
  // stretches the makespan.
  const double makespan = live.timed_end - live.timed_start;
  t["throughput_qps"] = {makespan > 0 ? ok_runs / makespan : 0, "1/s"};
  Percentiles("count", count_ms, {50, 90, 99}, &t, unsupported);
  if (!eval_ms.empty()) Percentiles("eval", eval_ms, {50, 90}, &t, unsupported);
  if (!inputs.writes.empty()) Percentiles("write", write_ms, {50}, &t, unsupported);
  t["peak_rss_mb"] = {live.peak_rss_mb, "MB"};
  t["error_rate"] = {check.attempted > 0
                         ? static_cast<double>(check.failed) / check.attempted
                         : 1.0,
                     "ratio"};
  return t;
}

void PrintTable(const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::cout << "  " << std::left << std::setw(30) << name << " "
              << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
}

int Run(const Args& args) {
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string data_dir = args.out + "/data";
  if (!MakeDirs(data_dir)) {
    std::cerr << "cannot create " << data_dir << "\n";
    return 2;
  }
  Inputs inputs;
  std::string error;
  if (!MakeInputs(args.workload, args.seed, args.seconds, data_dir, &inputs,
                  &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  const std::string simd = SimdArm(args.bin);
  std::cout << "workload " << inputs.workload << "  seed " << args.seed
            << "  seconds " << args.seconds << "  trace " << args.trace
            << "\n  nproc " << nproc << "  " << simd << "\n  compiler "
            << PERFBENCH_CXX_COMPILER << "  build " << PERFBENCH_BUILD_TYPE
            << "\n";
  for (const std::string& note : inputs.notes) std::cout << "  " << note << "\n";

  LiveOptions options;
  options.bin_dir = args.bin;
  options.work_dir = args.out;
  options.seconds = args.seconds;
  options.nproc = nproc;
  options.probe_delta =
      args.trace && inputs.writes.empty() && !inputs.probe.empty();
  LiveResult live;
  const bool live_ok = RunLive(inputs, options, &live);
  if (!live_ok && live.samples.empty()) {
    std::cerr << "live run failed: " << live.error << "\n";
    return 1;
  }

  std::vector<BenchRequest> writes = inputs.writes;
  if (options.probe_delta) writes.push_back(inputs.probe.front());
  Reference reference;
  if (!reference.Load(inputs, writes, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  ReplayResult replay;
  bool replay_ok = true;
  if (args.trace && live_ok) {
    replay_ok = RunReplay(inputs, live, nproc, &reference, &replay, &error);
    if (!replay_ok) std::cerr << "replay failed: " << error << "\n";
  }
  Check check;
  CheckLive(inputs, live, writes, nproc, &reference, &check);

  std::vector<std::string> unsupported;
  const Metrics table = EndToEnd(inputs, live, check, &unsupported);
  std::cout << "end-to-end (setup: median of " << live.setup_seconds.size()
            << " set-ups)\n";
  PrintTable(table);
  for (const std::string& u : unsupported) {
    std::cout << "  not reported, too few samples: " << u << "\n";
  }
  std::cout << "  statuses:";
  for (const auto& [status, n] : check.statuses) {
    std::cout << " " << status << "=" << n;
  }
  std::cout << "\n";
  if (args.trace) {
    std::cout << "per-layer (traced replay)\n";
    PrintTable(replay.metrics);
    for (const std::string& line : replay.summary) {
      std::cout << "  " << line << "\n";
    }
  }
  for (std::size_t i = 0; i < check.mismatches.size() && i < 10; ++i) {
    std::cout << "MISMATCH " << check.mismatches[i] << "\n";
  }
  if (!live_ok) std::cout << "ERROR " << live.error << "\n";

  const bool correct = live_ok && replay_ok && check.mismatches.empty() &&
                       replay.mismatches == 0;

  std::ofstream result(args.out + "/result.json");
  result << "{\"workload\": " << JsonString(inputs.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": "
         << JsonNumber(args.seconds) << ", \"trace\": " << args.trace
         << ", \"nproc\": " << nproc << ", \"simd\": " << JsonString(simd)
         << ", \"compiler\": " << JsonString(PERFBENCH_CXX_COMPILER)
         << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << check.attempted
         << ", \"failed\": " << check.failed << ", \"statuses\": {";
  bool first = true;
  for (const auto& [status, n] : check.statuses) {
    result << (first ? "" : ", ") << JsonString(status) << ": " << n;
    first = false;
  }
  result << "}, \"end_to_end\": " << MetricsJson(table)
         << ", \"per_layer\": " << MetricsJson(replay.metrics) << "}\n";
  // One line per request, for looking behind the percentiles.
  std::ofstream samples(args.out + "/samples.tsv");
  samples << "phase\tconnection\tshape\tmode\tdue_ms\tsend_ms\trecv_ms\t"
             "latency_ms\tstatus\tserver_ms\tbatch_size\n";
  static const char* const kPhase[] = {"setup", "timed", "probe", "quiescent"};
  for (const Sample& s : live.samples) {
    const double t0 = live.timed_start;
    const double start = s.due > 0 ? s.due : s.send;
    samples << kPhase[static_cast<int>(s.phase)] << "\t" << s.connection << "\t"
            << s.request->shape << "\t"
            << (IsDelta(*s.request) ? "delta" : s.request->wire.mode) << "\t"
            << (s.due > 0 ? (s.due - t0) * 1e3 : 0) << "\t"
            << (s.send - t0) * 1e3 << "\t" << (s.recv - t0) * 1e3 << "\t"
            << (s.answered ? (s.parsed - start) * 1e3 : 0) << "\t"
            << (s.answered ? clftj::RunStatusName(s.response.status)
                           : "transport")
            << "\t" << s.response.seconds * 1e3 << "\t"
            << s.response.stats.batch_size << "\n";
  }
  if (args.trace) {
    std::ofstream spans(args.out + "/spans.jsonl");
    const std::vector<double> self = SelfTimes(replay.spans);
    const double t0 = replay.spans.empty() ? 0 : replay.spans.front().start;
    for (std::size_t i = 0; i < replay.spans.size(); ++i) {
      const Span& s = replay.spans[i];
      spans << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
            << ", \"request\": " << s.request << ", \"parent\": " << s.parent
            << ", \"start_us\": " << JsonNumber((s.start - t0) * 1e6)
            << ", \"end_us\": " << JsonNumber((s.end - t0) * 1e6)
            << ", \"self_us\": " << JsonNumber(self[i] * 1e6) << "}\n";
    }
    std::cout << "spans written to " << args.out << "/spans.jsonl\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << check.attempted
            << ", \"failed\": " << check.failed
            << ", \"metrics\": "
            << MetricsJson(args.trace ? replay.metrics : table) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

// -------------------------------------------------------------- self-test

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "selftest FAILED: " << what << "\n";
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string StreamText(const Inputs& in) {
  std::ostringstream out;
  out << std::setprecision(17);
  const auto dump = [&out](const std::vector<BenchRequest>& v) {
    for (const BenchRequest& r : v) out << r.due << " " << r.line << "\n";
  };
  dump(in.warmup);
  for (const auto& s : in.streams) dump(s);
  dump(in.writes);
  dump(in.probe);
  return out.str();
}

int SelfTest(const Args& args) {
  // Percentile support: nearest rank, at least ten samples above it.
  std::vector<double> v100;
  for (int i = 1; i <= 100; ++i) v100.push_back(i);
  double p = 0;
  Expect(SupportedPercentile(v100, 50, &p) && p == 50, "p50 of 1..100 is 50");
  Expect(SupportedPercentile(v100, 90, &p) && p == 90, "p90 of 1..100 is 90");
  Expect(!SupportedPercentile(v100, 99, &p), "p99 of 100 samples unsupported");
  std::vector<double> v1000;
  for (int i = 1000; i >= 1; --i) v1000.push_back(i);
  Expect(SupportedPercentile(v1000, 99, &p) && p == 990, "p99 of 1..1000 is 990");
  std::vector<double> v19(v100.begin(), v100.begin() + 19);
  std::vector<double> v20(v100.begin(), v100.begin() + 20);
  Expect(!SupportedPercentile(v19, 50, &p), "p50 of 19 samples unsupported");
  Expect(SupportedPercentile(v20, 50, &p) && p == 10, "p50 of 20 samples is 10");
  Expect(RankPercentile({3, 1, 2}, 99) == 3, "rank p99 of 3 samples is the max");

  // Self time: overlapping children count once; children are clipped to
  // the parent; grandchildren do not reduce the grandparent directly.
  std::vector<Span> spans = {
      {"root", 0, -1, 0, 10}, {"a", 0, 0, 1, 3},  {"b", 0, 0, 2, 5},
      {"c", 0, 0, 7, 8},      {"d", 0, 0, 9, 12}, {"e", 0, 2, 2, 4}};
  const std::vector<double> self = SelfTimes(spans);
  Expect(self[0] == 10 - 4 - 1 - 1, "root self time");
  Expect(self[1] == 2 && self[3] == 1 && self[4] == 3, "leaf self times");
  Expect(self[2] == 1, "child self time excludes its own child");

  // Digest is order-independent and sensitive to the multiset.
  const clftj::Tuple t1 = {1, 2, 3}, t2 = {3, 2, 1};
  Expect(TupleDigest(t1) + TupleDigest(t2) == TupleDigest(t2) + TupleDigest(t1) &&
             TupleDigest(t1) != TupleDigest(t2),
         "tuple digest");

  // Equal seeds give byte-identical inputs; another seed does not.
  for (const std::string& w : WorkloadNames()) {
    Inputs a, b, c;
    std::string error;
    const std::string da = args.out + "/" + w + "/a";
    const std::string db = args.out + "/" + w + "/b";
    const std::string dc = args.out + "/" + w + "/c";
    Expect(MakeDirs(da) && MakeDirs(db) && MakeDirs(dc), "mkdir " + da);
    Expect(MakeInputs(w, 7, 10, da, &a, &error), w + ": " + error);
    Expect(MakeInputs(w, 7, 10, db, &b, &error), w + ": " + error);
    Expect(MakeInputs(w, 8, 10, dc, &c, &error), w + ": " + error);
    Expect(StreamText(a) == StreamText(b), w + ": same seed, same stream");
    Expect(StreamText(a) != StreamText(c), w + ": other seed, other stream");
    Expect(a.relations.size() == b.relations.size() &&
               a.relations.size() == c.relations.size(),
           w + ": relation count");
    bool files_equal = true, files_differ = false;
    for (std::size_t i = 0; i < a.relations.size() && i < b.relations.size() &&
                            i < c.relations.size();
         ++i) {
      const std::string fa = ReadFile(a.relations[i].second);
      files_equal &= !fa.empty() && fa == ReadFile(b.relations[i].second);
      files_differ |= fa != ReadFile(c.relations[i].second);
    }
    Expect(files_equal, w + ": same seed, identical relation files");
    Expect(files_differ, w + ": other seed, other relation files");
    for (const auto& rel : a.relations) std::remove(rel.second.c_str());
    for (const auto& rel : b.relations) std::remove(rel.second.c_str());
    for (const auto& rel : c.relations) std::remove(rel.second.c_str());
  }
  std::cout << (failures == 0 ? "selftest ok" : "selftest failed") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_harness run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --bin <dir> --out <dir>\n"
                 "       perfbench_harness selftest --out <dir>\n";
    return 2;
  }
  if (args.mode == "selftest") return perfbench::SelfTest(args);
  if (args.mode == "run") return perfbench::Run(args);
  std::cerr << "unknown mode: " << args.mode << "\n";
  return 2;
}
