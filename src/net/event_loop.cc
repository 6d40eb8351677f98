#include "src/net/event_loop.h"

#include <algorithm>
#include <cassert>

namespace rcb {

uint64_t EventLoop::Schedule(Duration delay, Callback fn) {
  if (delay < Duration::Zero()) {
    delay = Duration::Zero();
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

uint64_t EventLoop::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) {
    when = now_;
  }
  uint64_t id = next_id_++;
  queue_.push_back(Event{when, next_seq_++, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  live_.insert(id);
  return id;
}

const EventLoop::Event* EventLoop::NextLive() {
  while (!queue_.empty() && !live_.contains(queue_.front().id)) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
  }
  return queue_.empty() ? nullptr : &queue_.front();
}

bool EventLoop::PopAndRunNext() {
  if (NextLive() == nullptr) {
    return false;
  }
  // Moved out, not copied: the callback's captures can be large (a fetch's
  // response body).
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  live_.erase(event.id);
  assert(event.when >= now_);
  now_ = event.when;
  event.fn();
  return true;
}

size_t EventLoop::Run() {
  size_t count = 0;
  while (PopAndRunNext()) {
    ++count;
  }
  return count;
}

size_t EventLoop::RunUntil(SimTime deadline) {
  size_t count = 0;
  // Cancelled heads are dropped before the deadline check, so a cancelled
  // event due before the deadline never lets a later live one run.
  for (const Event* next = NextLive(); next != nullptr && next->when <= deadline;
       next = NextLive()) {
    PopAndRunNext();
    ++count;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return count;
}

bool EventLoop::RunUntilCondition(const std::function<bool()>& predicate) {
  if (predicate()) {
    return true;
  }
  while (PopAndRunNext()) {
    if (predicate()) {
      return true;
    }
  }
  return false;
}

}  // namespace rcb
