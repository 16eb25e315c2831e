#include "sim/event_queue.h"

namespace ddbs {

void EventQueue::sift_up(size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(size_t i) const {
  const size_t n = heap_.size();
  Entry e = heap_[i];
  while (true) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t last = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

} // namespace ddbs
