#include "sim/latency_model.h"

#include <cassert>

namespace ddbs {

LatencyModel::LatencyModel(SimTime min_us, SimTime max_us, uint64_t seed)
    : min_(min_us), max_(max_us), floor_min_(min_us), peak_max_(max_us),
      seed_(seed),
      rng_(seed) {
  assert(min_us >= 0 && max_us >= min_us);
}

SimTime LatencyModel::sample(SiteId from, SiteId to) {
  if (from == to) return 5; // loopback
  // Common case: no per-pair overrides configured, skip the tree probe.
  if (overrides_.empty()) return rng_.uniform(min_, max_);
  SimTime lo = min_, hi = max_;
  if (auto it = overrides_.find({from, to}); it != overrides_.end()) {
    lo = it->second.first;
    hi = it->second.second;
  }
  return rng_.uniform(lo, hi);
}

SimTime LatencyModel::sample_hashed(SiteId from, SiteId to,
                                    uint64_t salt) const {
  if (from == to) return 5; // loopback
  SimTime lo = min_, hi = max_;
  if (!overrides_.empty()) {
    if (auto it = overrides_.find({from, to}); it != overrides_.end()) {
      lo = it->second.first;
      hi = it->second.second;
    }
  }
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<SimTime>(mix_u64(seed_ ^ salt) % span);
}

void LatencyModel::set_pair(SiteId from, SiteId to, SimTime min_us,
                            SimTime max_us) {
  assert(min_us >= 0 && max_us >= min_us);
  overrides_[{from, to}] = {min_us, max_us};
  if (max_us > peak_max_) peak_max_ = max_us;
  floor_min_ = min_;
  for (const auto& [pair, band] : overrides_) {
    if (pair.first != pair.second && band.first < floor_min_) {
      floor_min_ = band.first;
    }
  }
}

} // namespace ddbs
