// Message-latency model for the simulated network. Uniform by default;
// per-site-pair overrides let benches model a slow WAN link.
#pragma once

#include <map>
#include <utility>

#include "common/random.h"
#include "common/types.h"

namespace ddbs {

class LatencyModel {
 public:
  LatencyModel(SimTime min_us, SimTime max_us, uint64_t seed);

  // Latency sample for a message from -> to. Local delivery (from == to)
  // costs a fixed small constant.
  SimTime sample(SiteId from, SiteId to);

  // Stateless variant: the draw is a pure function of (model seed, salt)
  // instead of consuming the shared sequential RNG. Site-ordered mode
  // salts with the delivery event's key, so the sample is identical no
  // matter which thread sends or in what real-time order -- the keystone
  // of cross-backend determinism.
  SimTime sample_hashed(SiteId from, SiteId to, uint64_t salt) const;

  // Override the [min, max] band for one ordered pair.
  void set_pair(SiteId from, SiteId to, SimTime min_us, SimTime max_us);

  // Smallest latency any cross-site message can draw under the current
  // band and overrides: the conservative-PDES lookahead bound for the
  // parallel backend's epoch windows. Cached; recomputed on set_pair.
  SimTime floor_min() const { return floor_min_; }

  // Largest latency any message has been able to draw so far. It never
  // falls, so a bound taken from it also covers messages still in flight.
  SimTime peak_max() const { return peak_max_; }

 private:
  SimTime min_;
  SimTime max_;
  SimTime floor_min_;
  SimTime peak_max_;
  uint64_t seed_;
  Rng rng_;
  std::map<std::pair<SiteId, SiteId>, std::pair<SimTime, SimTime>> overrides_;
};

} // namespace ddbs
