// EventLanes: the logic simulator's pending-event queue (DESIGN.md §11,
// "Event lanes").
//
// Every event is scheduled a fixed delay after the current time, and the
// current time never decreases. Events scheduled with one delay therefore
// arrive in the order they are popped in: one FIFO lane per distinct delay
// is already sorted by (time, key), and a small binary min-heap over the
// non-empty lanes' heads pops the least (time, key) of all pending events.
// The simulator uses a few dozen distinct delays and only a handful of
// them are pending at once, so the heap is a fraction of the pending set.
//
// `E` is any event record with a `SimTime time` and a `std::uint64_t key`
// that is unique among pending events (the simulator's key holds the
// schedule sequence number in its upper bits).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "relogic/common/audit.hpp"
#include "relogic/common/error.hpp"
#include "relogic/common/time.hpp"

namespace relogic::sim {

template <typename E>
class EventLanes {
 public:
  using Lane = std::uint32_t;

  /// The lane of a delay, created on first use. A negative delay would
  /// schedule before the current time, which the lanes' order relies on
  /// never happening: it throws ContractError.
  Lane lane(SimTime delay) {
    RELOGIC_CHECK_MSG(delay >= SimTime::zero(),
                      "event scheduled before the current time");
    const auto [it, inserted] = by_delay_.try_emplace(
        delay.picoseconds(), static_cast<Lane>(lanes_.size()));
    if (inserted) lanes_.push_back(LaneBuf{delay, {}, 0, 0});
    return it->second;
  }
  SimTime delay(Lane l) const { return lanes_[l].delay; }
  std::size_t lane_count() const { return lanes_.size(); }
  /// Slots allocated for a lane's ring buffer: at most twice the most
  /// events the lane ever held at once (and at least kMinRing once used).
  std::size_t capacity(Lane l) const { return lanes_[l].ring.size(); }

  bool empty() const { return heads_.empty(); }
  /// Time of the earliest pending event; the queue must not be empty.
  SimTime top_time() const { return heads_.front().time; }

  /// Appends `e` to lane `l`. Its (time, key) must come after every event
  /// pending in the lane, which holds when e.time is the current time plus
  /// the lane's delay and keys increase.
  void push(Lane l, const E& e) {
    LaneBuf& ln = lanes_[l];
    if (ln.count == ln.ring.size()) grow(ln);
    ln.ring[(ln.head + ln.count) & (ln.ring.size() - 1)] = e;
    if (ln.count++ == 0) {
      heads_.push_back(Head{e.time, e.key, l});
      sift_up(heads_.size() - 1);
    }
  }

  /// Removes and returns the event with the least (time, key); the queue
  /// must not be empty.
  E pop() {
    Head& top = heads_.front();
    LaneBuf& ln = lanes_[top.lane];
    const E e = ln.ring[ln.head];
    ln.head = (ln.head + 1) & (ln.ring.size() - 1);
    if (--ln.count == 0) {
      top = heads_.back();
      heads_.pop_back();
    } else {
      const E& next = ln.ring[ln.head];
      top.time = next.time;
      top.key = next.key;
    }
    if (!heads_.empty()) sift_down(0);
    return e;
  }

  /// Throws AuditError unless every lane is sorted by (time, key) with no
  /// event before `now`, every non-empty lane sits in the heads heap
  /// exactly once with its current head, no empty lane does, and the heap
  /// property holds.
  void audit(SimTime now) const {
    constexpr const char* kWhere = "EventLanes";
    std::vector<int> seen(lanes_.size(), 0);
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      const Head& h = heads_[i];
      RELOGIC_AUDIT_CHECK(h.lane < lanes_.size(), kWhere,
                          "heads heap names unknown lane " +
                              std::to_string(h.lane));
      ++seen[h.lane];
      const LaneBuf& ln = lanes_[h.lane];
      RELOGIC_AUDIT_CHECK(
          ln.count > 0 && ln.ring[ln.head].time == h.time &&
              ln.ring[ln.head].key == h.key,
          kWhere,
          "heads heap entry of lane " + std::to_string(h.lane) +
              " is not the lane's current head");
      RELOGIC_AUDIT_CHECK(i == 0 || !before(h, heads_[(i - 1) / 2]), kWhere,
                          "heads heap order broken at entry " +
                              std::to_string(i));
    }
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const LaneBuf& ln = lanes_[l];
      RELOGIC_AUDIT_CHECK(seen[l] == (ln.count > 0 ? 1 : 0), kWhere,
                          "lane " + std::to_string(l) + " appears " +
                              std::to_string(seen[l]) +
                              " times in the heads heap");
      RELOGIC_AUDIT_CHECK(ln.count <= ln.ring.size(), kWhere,
                          "lane " + std::to_string(l) +
                              " holds more events than slots");
      const std::size_t mask = ln.ring.size() - 1;
      for (std::size_t k = 0; k < ln.count; ++k) {
        const E& e = ln.ring[(ln.head + k) & mask];
        RELOGIC_AUDIT_CHECK(e.time >= now, kWhere,
                            "lane " + std::to_string(l) +
                                " holds an event before now");
        if (k == 0) continue;
        const E& prev = ln.ring[(ln.head + k - 1) & mask];
        RELOGIC_AUDIT_CHECK(
            prev.time < e.time || (prev.time == e.time && prev.key < e.key),
            kWhere,
            "lane " + std::to_string(l) + " is out of (time, key) order");
      }
    }
  }

 private:
  static constexpr std::size_t kMinRing = 4;

  /// One delay's FIFO: a ring buffer whose size is zero or a power of two.
  struct LaneBuf {
    SimTime delay;
    std::vector<E> ring;
    std::size_t head;   ///< slot of the oldest pending event
    std::size_t count;  ///< pending events
  };
  /// A non-empty lane and a copy of its head's (time, key).
  struct Head {
    SimTime time;
    std::uint64_t key;
    Lane lane;
  };

  static bool before(const Head& a, const Head& b) {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  }

  /// Doubles a full ring, unrolling it so the oldest event is in slot 0.
  static void grow(LaneBuf& ln) {
    std::vector<E> ring(ln.ring.empty() ? kMinRing : ln.ring.size() * 2);
    for (std::size_t k = 0; k < ln.count; ++k)
      ring[k] = ln.ring[(ln.head + k) & (ln.ring.size() - 1)];
    ln.ring.swap(ring);
    ln.head = 0;
  }

  void sift_up(std::size_t i) {
    const Head h = heads_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(h, heads_[parent])) break;
      heads_[i] = heads_[parent];
      i = parent;
    }
    heads_[i] = h;
  }

  void sift_down(std::size_t i) {
    const Head h = heads_[i];
    const std::size_t n = heads_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heads_[child + 1], heads_[child])) ++child;
      if (!before(heads_[child], h)) break;
      heads_[i] = heads_[child];
      i = child;
    }
    heads_[i] = h;
  }

  std::vector<LaneBuf> lanes_;
  /// Binary min-heap of the non-empty lanes, least head (time, key) first.
  std::vector<Head> heads_;
  std::unordered_map<std::int64_t, Lane> by_delay_;
};

}  // namespace relogic::sim
