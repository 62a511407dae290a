#include "util/stats.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>

namespace clftj {

namespace {

// The one list of ExecStats counters. Wire keys are short on purpose: the
// stats token rides on every OK response. kMax fields are peaks,
// max-merged; every other counter sums.
enum class MergeRule { kSum, kMax };

struct Field {
  std::uint64_t ExecStats::*member;
  const char* wire_key;
  const char* display_name;
  MergeRule merge;
};

constexpr Field kFields[] = {
    {&ExecStats::memory_accesses, "ma", "mem_accesses", MergeRule::kSum},
    {&ExecStats::intermediate_tuples, "it", "intermediates", MergeRule::kSum},
    {&ExecStats::output_tuples, "ot", "outputs", MergeRule::kSum},
    {&ExecStats::cache_hits, "ch", "cache_hits", MergeRule::kSum},
    {&ExecStats::cache_misses, "cm", "cache_misses", MergeRule::kSum},
    {&ExecStats::cache_inserts, "ci", "cache_inserts", MergeRule::kSum},
    {&ExecStats::cache_rejects, "cr", "cache_rejects", MergeRule::kSum},
    {&ExecStats::cache_evictions, "ce", "cache_evictions", MergeRule::kSum},
    {&ExecStats::cache_entries_peak, "cep", "cache_peak", MergeRule::kMax},
    {&ExecStats::cache_bytes_peak, "cbp", "cache_bytes_peak", MergeRule::kMax},
    {&ExecStats::plan_cache_hits, "pch", "plan_cache_hits", MergeRule::kSum},
    {&ExecStats::plan_cache_misses, "pcm", "plan_cache_misses",
     MergeRule::kSum},
    {&ExecStats::substrate_builds, "sb", "substrate_builds", MergeRule::kSum},
    {&ExecStats::substrate_reuses, "sr", "substrate_reuses", MergeRule::kSum},
    {&ExecStats::plan_resolve_ns, "prn", "plan_resolve_ns", MergeRule::kSum},
    {&ExecStats::substrate_build_ns, "sbn", "substrate_build_ns",
     MergeRule::kSum},
    {&ExecStats::batch_size, "bsz", "batch_size", MergeRule::kSum},
    {&ExecStats::batch_shared_execs, "bse", "batch_shared_execs",
     MergeRule::kSum},
};

// Every member is a std::uint64_t, so a member added to ExecStats without a
// row here changes the size and stops the build.
static_assert(sizeof(ExecStats) ==
                  std::size(kFields) * sizeof(std::uint64_t),
              "every ExecStats member needs a row in kFields");

}  // namespace

void ExecStats::Merge(const ExecStats& other) {
  for (const Field& f : kFields) {
    std::uint64_t& mine = this->*f.member;
    const std::uint64_t theirs = other.*f.member;
    mine = f.merge == MergeRule::kMax ? std::max(mine, theirs) : mine + theirs;
  }
}

std::string ExecStats::ToString() const {
  std::ostringstream os;
  bool first = true;
  for (const Field& f : kFields) {
    if (!first) os << ' ';
    first = false;
    os << f.display_name << '=' << this->*f.member;
  }
  return os.str();
}

std::string ExecStats::ToWire() const {
  std::ostringstream os;
  bool first = true;
  for (const Field& f : kFields) {
    if (!first) os << ',';
    first = false;
    os << f.wire_key << ':' << this->*f.member;
  }
  return os.str();
}

bool ExecStats::FromWire(const std::string& text, ExecStats* out) {
  ExecStats parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::size_t colon = text.find(':', pos);
    if (colon == std::string::npos || colon >= end || colon == pos ||
        colon + 1 == end) {
      return false;
    }
    const std::string key = text.substr(pos, colon - pos);
    const std::string value = text.substr(colon + 1, end - colon - 1);
    char* tail = nullptr;
    const std::uint64_t number = std::strtoull(value.c_str(), &tail, 10);
    if (tail == nullptr || *tail != '\0') return false;
    for (const Field& f : kFields) {
      if (key == f.wire_key) {
        parsed.*f.member = number;
        break;
      }
    }
    pos = end + 1;
  }
  *out = parsed;
  return true;
}

}  // namespace clftj
