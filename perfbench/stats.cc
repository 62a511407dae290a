#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Index of the nearest-rank p-th percentile in a sorted sample of n.
std::size_t RankIndex(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

bool SupportedPercentile(std::vector<double> values, double p, double* out) {
  if (values.empty()) return false;
  std::sort(values.begin(), values.end());
  const std::size_t idx = RankIndex(values.size(), p);
  if (values.size() - 1 - idx < 10) return false;
  *out = values[idx];
  return true;
}

double RankPercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), p)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::uint64_t TupleDigest(const clftj::Tuple& tuple) {
  // splitmix64 folded over the values; the multiset digest is the wrapping
  // sum of these, so it does not depend on tuple order.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ tuple.size();
  for (const clftj::Value v : tuple) {
    std::uint64_t z = h + static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

}  // namespace perfbench
