// Discrete-event scheduler driving all simulated activity.
//
// Every component in the simulation — network transfers, Ajax-Snippet's
// setTimeout-based polling, origin-server think time — schedules closures on
// one EventLoop. Time advances only when the loop dequeues the next event, so
// runs are fully deterministic and the "wall clock" of Figs. 6–8 is exact.
#ifndef SRC_NET_EVENT_LOOP_H_
#define SRC_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/util/sim_time.h"

namespace rcb {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at now() + delay (delay < 0 is clamped to 0). Returns an
  // id usable with Cancel().
  uint64_t Schedule(Duration delay, Callback fn);
  uint64_t ScheduleAt(SimTime when, Callback fn);

  // Cancels a pending event; no-op if already fired, cancelled or unknown.
  void Cancel(uint64_t id) { live_.erase(id); }

  // Runs until no events remain. Returns the number of events processed.
  size_t Run();

  // Runs events with time <= deadline; leaves later events queued and
  // advances now() to the deadline.
  size_t RunUntil(SimTime deadline);
  size_t RunFor(Duration duration) { return RunUntil(now_ + duration); }

  // Runs until `predicate` returns true (checked after each event) or the
  // queue empties. Returns true if the predicate was satisfied.
  bool RunUntilCondition(const std::function<bool()>& predicate);

  bool empty() const { return live_.empty(); }
  size_t pending_events() const { return live_.size(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    uint64_t id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Drops cancelled events off the head of the queue; returns the next
  // pending event, or nullptr when none is left.
  const Event* NextLive();
  bool PopAndRunNext();

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  // A heap under Later (earliest event at the front). A cancelled event
  // stays in it until it reaches the front; live_ holds the ids still due.
  std::vector<Event> queue_;
  std::unordered_set<uint64_t> live_;
};

}  // namespace rcb

#endif  // SRC_NET_EVENT_LOOP_H_
