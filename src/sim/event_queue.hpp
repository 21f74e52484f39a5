#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace qolsr {

using SimTime = double;

/// Deterministic discrete-event core. Events at equal times fire in
/// scheduling order (a monotone sequence number breaks ties), so a seeded
/// simulation replays identically. Callbacks are moved in and moved out,
/// never copied: the queue is a binary heap over a plain vector, so the
/// event to fire can be taken by move (std::priority_queue::top is const).
class EventQueue {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  void schedule_at(SimTime time, Callback callback);
  void schedule_in(SimTime delay, Callback callback) {
    schedule_at(now_ + delay, std::move(callback));
  }

  /// Runs events until the queue empties or the horizon is reached. The
  /// clock ends at `horizon` even if the queue drained earlier.
  void run_until(SimTime horizon);

  bool empty() const { return events_.empty(); }
  std::size_t pending() const { return events_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Drops every pending event and rewinds the clock to 0 — the batch-run
  /// reset. Discarding the queued callbacks (which capture the previous
  /// run's nodes) before those nodes are reset is what makes per-run reuse
  /// of a Simulator safe.
  void reset() {
    events_.clear();
    now_ = 0.0;
    next_sequence_ = 0;
    processed_ = 0;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t sequence;
    Callback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> events_;  ///< a heap under Later: front() fires next
};

}  // namespace qolsr
