#ifndef MM2_OBS_EVENT_H_
#define MM2_OBS_EVENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mm2::obs {

// ---------------------------------------------------------------------------
// Structured event log + flight recorder.
//
// An Event is a timestamped, leveled, key-value record ("chase.heartbeat",
// round=3, delta=120, ...). The EventLog renders accepted events to an
// optional sink (JSON-lines or text, selected via MM2_LOG=json|text|off or
// the engine's `log` command) and always retains the last N of them in a
// fixed-size ring buffer — the flight recorder. When a chase or engine
// command fails, DumpRecent() reconstructs the run-up to the failure and is
// appended to the diagnostic, so a crashed evolution script leaves evidence
// even when nobody was tailing the sink.
//
// The disabled path (the default) is one relaxed atomic load; call sites
// guard field construction behind enabled() so an idle log costs nothing on
// the chase hot path.
// ---------------------------------------------------------------------------

enum class EventLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

const char* EventLevelName(EventLevel level);
// Inverse of EventLevelName: "debug"|"info"|"warn"|"error" -> level.
// Returns false (leaving `out` untouched) on anything else.
bool ParseEventLevel(std::string_view name, EventLevel* out);

// One key-value pair of an event. `number` marks values that render
// unquoted in JSON (counts, durations); everything else is escaped text.
struct EventField {
  std::string key;
  std::string value;
  bool number = false;
};

// Field constructors; the numeric overloads format eagerly, so only call
// them behind an enabled() check.
inline EventField F(std::string key, std::string value) {
  return {std::move(key), std::move(value), false};
}
inline EventField F(std::string key, const char* value) {
  return {std::move(key), value, false};
}
inline EventField F(std::string key, std::uint64_t value) {
  return {std::move(key), std::to_string(value), true};
}
inline EventField F(std::string key, std::int64_t value) {
  return {std::move(key), std::to_string(value), true};
}
inline EventField F(std::string key, int value) {
  return F(std::move(key), static_cast<std::int64_t>(value));
}
EventField F(std::string key, double value);  // %.6g, like the bench lines

struct Event {
  EventLevel level = EventLevel::kInfo;
  std::uint64_t seq = 0;  // monotonically increasing per log
  double t_us = 0;        // microseconds since the log was constructed
  std::string name;       // dotted event key, e.g. "chase.heartbeat"
  std::vector<EventField> fields;

  // {"seq":3,"t_us":42.1,"level":"info","event":"chase.heartbeat","round":2}
  std::string ToJson() const;
  // [   42.1us] info  chase.heartbeat round=2 delta=120
  std::string ToText() const;
};

enum class EventFormat : std::uint8_t { kOff = 0, kText, kJson };

class EventLog {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 128;

  explicit EventLog(std::size_t ring_capacity = kDefaultRingCapacity);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Selects the output format and sink. A null sink with a non-off format
  // runs the log in flight-recorder-only mode: events land in the ring but
  // nothing is written anywhere. kOff disables recording entirely.
  void Configure(EventFormat format, std::ostream* sink = nullptr);
  // Like Configure, but writes to `path` (owned stream, flushed per event).
  Status ConfigureFile(EventFormat format, const std::string& path);
  // Applies MM2_LOG=json|text|off (unset or empty keeps the log off) and
  // MM2_LOG_LEVEL=debug|info|warn|error (unset or unparsable keeps kDebug);
  // the sink is stderr so event lines never interleave with command output.
  void ConfigureFromEnv();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  EventFormat format() const;
  // Events below `level` are dropped at the door (default: keep all).
  void SetMinLevel(EventLevel level);
  EventLevel min_level() const;

  void Emit(EventLevel level, std::string name, std::vector<EventField> fields);

  // Ring snapshot, oldest first. Empty when disabled or nothing emitted.
  std::vector<Event> Recent() const;
  std::size_t ring_capacity() const { return ring_capacity_; }
  std::uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }
  void Clear();

  // The flight-recorder dump: a header plus one text line per retained
  // event, oldest first — the block that error diagnostics embed. Empty
  // string when the ring is empty.
  std::string DumpRecent() const;

 private:
  const std::size_t ring_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> emitted_{0};
  mutable std::mutex mu_;
  EventFormat format_ = EventFormat::kOff;
  EventLevel min_level_ = EventLevel::kDebug;
  std::ostream* sink_ = nullptr;
  std::unique_ptr<std::ostream> owned_sink_;
  std::vector<Event> ring_;  // circular once full; next_ is the write slot
  std::size_t next_ = 0;
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Cooperative cancellation. A watchdog (the chase's own budget checks, or
// an external controller like the server-to-be) calls RequestStop; the
// chase round loop, the indexed match path, and ComputeCore poll
// stop_requested() and unwind gracefully — partial results and telemetry
// intact — instead of burning a core until max_rounds hard-errors.
// ---------------------------------------------------------------------------

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // First caller wins: the recorded reason names the original stop cause.
  void RequestStop(std::string reason);
  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }
  std::string reason() const;
  void Reset();

 private:
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::string reason_;
};

// ---------------------------------------------------------------------------
// Process memory probes (/proc/self/status; 0 where unavailable). Peak is
// VmHWM — the same read bench/bench_report.h publishes as mem.peak_rss_kb —
// current is VmRSS, the live resident set the chase heartbeat reports and
// the rss budget watches.
// ---------------------------------------------------------------------------

double PeakRssKb();
double CurrentRssKb();

}  // namespace mm2::obs

#endif  // MM2_OBS_EVENT_H_
