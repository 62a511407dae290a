#include "clftj/cache.h"

#include <sstream>

namespace clftj {

std::string CacheOptions::ToString() const {
  if (!enabled) return "cache=off";
  std::ostringstream os;
  os << "cache=on admission="
     << (admission == Admission::kAll
             ? "all"
             : "support>=" + std::to_string(support_threshold))
     << " capacity=" << (capacity == 0 ? "unbounded" : std::to_string(capacity));
  if (capacity_bytes > 0) os << " capacity_bytes=" << capacity_bytes;
  os << " eviction="
     << (eviction == Eviction::kRejectNew ? "reject-new" : "lru")
     << " max_dim=" << max_dimension;
  if (stripes > 0) os << " stripes=" << stripes;
  return os.str();
}

}  // namespace clftj
