#include "sim/scheduler.h"

#include <cassert>

namespace ddbs {

EventId Scheduler::at(SimTime when, EventFn fn) {
  assert(when >= now_);
  if (site_keys_) {
    return queue_.push_keyed(when, mint_ambient_key(), std::move(fn));
  }
  return queue_.push(when, std::move(fn));
}

EventId Scheduler::after(SimTime delay, EventFn fn) {
  assert(delay >= 0);
  if (site_keys_) {
    return queue_.push_keyed(now_ + delay, mint_ambient_key(),
                             std::move(fn));
  }
  return queue_.push(now_ + delay, std::move(fn));
}

EventId Scheduler::timeout(SimTime delay, EventFn fn) {
  assert(delay >= 0);
  if (site_keys_) {
    return queue_.push_timer_keyed(now_ + delay, delay, mint_ambient_key(),
                                   std::move(fn));
  }
  return queue_.push_timer(now_ + delay, delay, std::move(fn));
}

EventId Scheduler::at_keyed(SimTime when, EventKey key, EventFn fn) {
  assert(when >= now_);
  assert(site_keys_);
  return queue_.push_keyed(when, key, std::move(fn));
}

void Scheduler::enable_site_keys(int n_sites) {
  assert(queue_.empty() && executed_ == 0);
  site_keys_ = true;
  lane_counters_.assign(static_cast<size_t>(n_sites) + 2, 0);
}

void Scheduler::fire(EventQueue::Fired& fired) {
  now_ = fired.time;
  current_key_ = fired.key;
  if (site_keys_) {
    // Inherit the origin lane of the fired event; site lanes carry over
    // (a site's timer schedules more work for that site), anything else
    // resets to context-free. Network::deliver retargets to the
    // destination site before the handler runs.
    const uint32_t lane = static_cast<uint32_t>(fired.key >> 32);
    context_lane_ = lane >= 2 ? lane : kLaneExternal;
  }
  fired.fn();
  ++executed_;
}

size_t Scheduler::run_until(SimTime until) {
  size_t n = 0;
  for (SimTime t = queue_.next_time(); t != kNoTime && t <= until;
       t = queue_.next_time()) {
    auto fired = queue_.pop();
    fire(fired);
    ++n;
  }
  if (now_ < until) now_ = until;
  // Back on the driving thread: leave the ambient lane context-free so a
  // direct call (crash_site, submit, ...) mints the same keys no matter
  // which event happened to fire last -- and no matter which backend ran.
  context_lane_ = kLaneExternal;
  return n;
}

size_t Scheduler::run_window(SimTime end) {
  size_t n = 0;
  for (SimTime t = queue_.next_time(); t != kNoTime && t < end;
       t = queue_.next_time()) {
    auto fired = queue_.pop();
    fire(fired);
    ++n;
  }
  context_lane_ = kLaneExternal;
  return n;
}

size_t Scheduler::run_all(size_t max_events) {
  size_t n = 0;
  while (!queue_.empty() && n < max_events) {
    auto fired = queue_.pop();
    fire(fired);
    ++n;
  }
  assert(n < max_events && "event budget exhausted -- livelock?");
  context_lane_ = kLaneExternal;
  return n;
}

} // namespace ddbs
