// Shared declarations of the end-to-end serving benchmark (see README.md).
//
// The harness drives a real clftj_server subprocess over its socket
// (live.cc), checks every answer against in-process reference runs
// (check.cc), and, in the traced run, replays the same request stream
// in-process through the service's entry points to split the time by
// layer (replay.cc). Inputs are generated from the seed alone (inputs.cc).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/service.h"

namespace perfbench {

// ---------------------------------------------------------------- stats.cc

/// Seconds on the steady clock (absolute; only differences are meaningful).
double Now();

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`. Returns false
/// when fewer than ten samples lie above the chosen rank: a percentile is
/// reported only when the sample supports it.
bool SupportedPercentile(std::vector<double> values, double p, double* out);

/// Nearest-rank percentile without the support rule (per-layer figures).
/// Returns 0 for an empty sample.
double RankPercentile(std::vector<double> values, double p);

double Mean(const std::vector<double>& values);

/// One traced call: [start, end] in Now() seconds. `parent` indexes the
/// span that caused it (-1 for a request's root); spans of one request
/// share `request`.
struct Span {
  std::string name;
  int request = 0;
  int parent = -1;
  double start = 0;
  double end = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Order-independent digest of a tuple multiset: the wrapping sum of a
/// per-tuple mix. Equal multisets give equal digests in any order.
std::uint64_t TupleDigest(const clftj::Tuple& tuple);

/// A metric value with its unit, printed with full precision.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// --------------------------------------------------------------- inputs.cc

/// One request of a workload's generated stream.
struct BenchRequest {
  /// Shape label, e.g. "5-cycle", "anchored-3-path@17", "delta".
  std::string shape;
  clftj::QueryRequest wire;
  /// Open loop: due time in seconds after the timed phase starts.
  double due = 0;
  /// The request line exactly as sent (clftj::FormatRequest).
  std::string line;
};

bool IsDelta(const BenchRequest& r);

/// Everything one workload run sends, generated from (workload, seed).
struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  /// (relation name, file path) pairs, passed to the server as --relation.
  std::vector<std::pair<std::string, std::string>> relations;
  /// Sent during each set-up, spread over the connections; warms every
  /// shape the timed phase uses (empty for cold-join).
  std::vector<BenchRequest> warmup;
  /// Reader connections and their request streams. Closed loop: each
  /// connection sends its stream in order, one request at a time. Open
  /// loop: each request is sent at its due time.
  bool open_loop = false;
  std::vector<std::vector<BenchRequest>> streams;
  /// Open loop only: the writer connection's DELTA stream (due-timed).
  std::vector<BenchRequest> writes;
  /// Closed loop only: the timed phase ends once `seconds` have passed and
  /// at least min_requests have completed, or when the stream runs out.
  int min_requests = 0;
  /// Traced runs of workloads that do not write: one DELTA sent after the
  /// timed phase, so every workload measures the write path. Holds exactly
  /// one request (a vector so samples can point into it like any stream).
  std::vector<BenchRequest> probe;
  /// Human-readable sizing lines for the report.
  std::vector<std::string> notes;
};

/// The workload names this benchmark knows, in report order.
const std::vector<std::string>& WorkloadNames();

/// Generates the inputs and writes the relation files under `dir`.
/// Returns false (with *error) for an unknown workload or an I/O failure.
bool MakeInputs(const std::string& workload, std::uint64_t seed,
                double seconds, const std::string& dir, Inputs* inputs,
                std::string* error);

// ---------------------------------------------------------------- check.cc

/// In-process reference answers over the same generated data: version 0
/// is the relation files as written; version k is version 0 after the
/// first k writes of the stream. Answers come from a fresh serial CLFTJ
/// run with no reuse layer (memoized per request line and version).
class Reference {
 public:
  struct Answer {
    bool ok = false;
    std::uint64_t count = 0;
    std::uint64_t digest = 0;
  };

  /// Loads version 0 and builds every later version by applying `writes`
  /// in order; applied()[k] is the applied-tuple count of write k.
  bool Load(const Inputs& inputs, const std::vector<BenchRequest>& writes,
            std::string* error);
  int versions() const { return static_cast<int>(dbs_.size()); }
  const std::vector<std::uint64_t>& applied() const { return applied_; }

  /// Computes the missing answers among `needed` (request, version) pairs
  /// on `threads` worker threads.
  void Compute(const std::vector<std::pair<const BenchRequest*, int>>& needed,
               int threads);
  const Answer* Find(const std::string& line, int version) const;
  void Put(const std::string& line, int version, const Answer& answer);

 private:
  std::vector<std::unique_ptr<clftj::Database>> dbs_;
  std::vector<std::uint64_t> applied_;
  std::map<std::pair<std::string, int>, Answer> answers_;
};

/// Loads the relation files of `inputs` into a fresh database.
bool LoadDatabase(const Inputs& inputs, clftj::Database* db,
                  std::string* error);

// ----------------------------------------------------------------- live.cc

/// One request as it went over the wire.
struct Sample {
  const BenchRequest* request = nullptr;
  enum class Phase { kSetup, kTimed, kProbe, kQuiescent } phase = Phase::kTimed;
  int server = 0;  // which set-up's server answered (the last one is timed)
  int connection = 0;
  double due = 0;     // open loop: when it should have been sent
  double ready = 0;   // closed loop: when the generator could have sent it
  double send = 0;
  double recv = 0;    // terminal line received
  double parsed = 0;  // response decoded
  bool answered = false;
  std::string transport_error;
  clftj::QueryResponse response;  // tuples dropped after digesting
  std::uint64_t digest = 0;
};

struct LiveOptions {
  std::string bin_dir;
  std::string work_dir;
  double seconds = 10;
  int nproc = 1;
  /// Send one probe DELTA after the timed phase (traced runs of workloads
  /// that do not write), so the write path is measured on every workload.
  bool probe_delta = false;
};

struct LiveResult {
  std::vector<Sample> samples;  // every set-up, timed, probe, quiescent
  std::vector<double> setup_seconds;
  int last_server = 0;
  double timed_start = 0;
  double timed_end = 0;  // last timed response
  double peak_rss_mb = 0;
  std::string error;
};

/// Runs the workload against clftj_server: three spawns, each set up (all
/// but the last stopped right after), then the timed phase on the last one.
/// Returns false if a server fails to start or dies; *result then holds
/// every request sent so far.
bool RunLive(const Inputs& inputs, const LiveOptions& options,
             LiveResult* result);

// --------------------------------------------------------------- replay.cc

struct ReplayResult {
  Metrics metrics;
  std::vector<Span> spans;
  /// Lines of the self-time summary for the report.
  std::vector<std::string> summary;
  int mismatches = 0;
};

/// The traced run: replays the live run's request stream in send order,
/// one request at a time, through the entry points QueryService uses, and
/// derives the per-layer metrics. Replay answers are checked against
/// `reference` (which it may extend).
bool RunReplay(const Inputs& inputs, const LiveResult& live, int nproc,
               Reference* reference, ReplayResult* result,
               std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
