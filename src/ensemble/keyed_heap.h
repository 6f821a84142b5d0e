// An indexed binary min-heap over (time, id) keys holding at most one key per
// id: the ensemble driver's keyed tenant sets (next event, next
// demand-relevant event, pending retirement). Setting or erasing an id's key
// costs O(log n) without allocation once the heap has grown; the top is O(1).
// Keys order by time, then id, so equal times resolve to the lowest id.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "sim/config.h"

namespace wire::ensemble {

class KeyedHeap {
 public:
  using Key = std::pair<sim::SimTime, std::size_t>;

  bool empty() const { return heap_.empty(); }
  /// The smallest key. Requires !empty().
  const Key& top() const { return heap_.front(); }

  /// Inserts id's key, or moves it if id already holds one.
  void set(std::size_t id, sim::SimTime time) {
    if (id >= slot_.size()) slot_.resize(id + 1, kAbsent);
    std::size_t slot = slot_[id];
    if (slot == kAbsent) {
      slot = heap_.size();
      heap_.emplace_back(time, id);
      slot_[id] = slot;
    } else {
      heap_[slot].first = time;
    }
    sift_down(sift_up(slot));
  }

  /// Removes id's key; no-op when id holds none.
  void erase(std::size_t id) {
    if (id >= slot_.size() || slot_[id] == kAbsent) return;
    const std::size_t slot = slot_[id];
    slot_[id] = kAbsent;
    const Key last = heap_.back();
    heap_.pop_back();
    if (slot == heap_.size()) return;
    heap_[slot] = last;
    slot_[last.second] = slot;
    sift_down(sift_up(slot));
  }

 private:
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  std::size_t sift_up(std::size_t slot) {
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!(heap_[slot] < heap_[parent])) break;
      swap_slots(slot, parent);
      slot = parent;
    }
    return slot;
  }

  void sift_down(std::size_t slot) {
    for (;;) {
      std::size_t least = slot;
      const std::size_t left = 2 * slot + 1;
      const std::size_t right = left + 1;
      if (left < heap_.size() && heap_[left] < heap_[least]) least = left;
      if (right < heap_.size() && heap_[right] < heap_[least]) least = right;
      if (least == slot) return;
      swap_slots(slot, least);
      slot = least;
    }
  }

  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    slot_[heap_[a].second] = a;
    slot_[heap_[b].second] = b;
  }

  std::vector<Key> heap_;
  /// Heap slot of each id's key (kAbsent when it holds none).
  std::vector<std::size_t> slot_;
};

}  // namespace wire::ensemble
