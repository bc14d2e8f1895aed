#include "obs/event.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string_view>

#include "common/json.h"

namespace mm2::obs {

const char* EventLevelName(EventLevel level) {
  switch (level) {
    case EventLevel::kDebug:
      return "debug";
    case EventLevel::kInfo:
      return "info";
    case EventLevel::kWarn:
      return "warn";
    case EventLevel::kError:
      return "error";
  }
  return "info";
}

bool ParseEventLevel(std::string_view name, EventLevel* out) {
  if (name == "debug") {
    *out = EventLevel::kDebug;
  } else if (name == "info") {
    *out = EventLevel::kInfo;
  } else if (name == "warn") {
    *out = EventLevel::kWarn;
  } else if (name == "error") {
    *out = EventLevel::kError;
  } else {
    return false;
  }
  return true;
}

EventField F(std::string key, double value) {
  return {std::move(key), json::FormatDouble(value), true};
}

std::string Event::ToJson() const {
  char head[96];
  std::snprintf(head, sizeof(head), "{\"seq\": %llu, \"t_us\": %.1f, ",
                static_cast<unsigned long long>(seq), t_us);
  std::string out = head;
  out += "\"level\": \"";
  out += EventLevelName(level);
  out += "\", \"event\": \"";
  json::AppendEscaped(&out, name);
  out += '"';
  for (const EventField& f : fields) {
    out += ", \"";
    json::AppendEscaped(&out, f.key);
    out += "\": ";
    if (f.number) {
      out += f.value;
    } else {
      out += '"';
      json::AppendEscaped(&out, f.value);
      out += '"';
    }
  }
  out += '}';
  return out;
}

std::string Event::ToText() const {
  char head[48];
  std::snprintf(head, sizeof(head), "[%10.1fus] %-5s ", t_us,
                EventLevelName(level));
  std::string out = head;
  out += name;
  for (const EventField& f : fields) {
    out += ' ';
    out += f.key;
    out += '=';
    out += f.value;
  }
  return out;
}

EventLog::EventLog(std::size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      start_(std::chrono::steady_clock::now()) {}

void EventLog::Configure(EventFormat format, std::ostream* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  format_ = format;
  sink_ = sink;
  owned_sink_.reset();
  enabled_.store(format != EventFormat::kOff, std::memory_order_relaxed);
}

Status EventLog::ConfigureFile(EventFormat format, const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!*file) {
    return Status::InvalidArgument("cannot open log sink '" + path + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  format_ = format;
  owned_sink_ = std::move(file);
  sink_ = owned_sink_.get();
  enabled_.store(format != EventFormat::kOff, std::memory_order_relaxed);
  return Status::OK();
}

void EventLog::ConfigureFromEnv() {
  const char* env = std::getenv("MM2_LOG");
  if (env != nullptr && env[0] != '\0') {
    std::string_view value(env);
    if (value == "json") {
      Configure(EventFormat::kJson, &std::cerr);
    } else if (value == "text") {
      Configure(EventFormat::kText, &std::cerr);
    } else {
      Configure(EventFormat::kOff);
    }
  }
  const char* level_env = std::getenv("MM2_LOG_LEVEL");
  if (level_env != nullptr && level_env[0] != '\0') {
    EventLevel level = EventLevel::kDebug;
    if (ParseEventLevel(level_env, &level)) SetMinLevel(level);
  }
}

EventFormat EventLog::format() const {
  std::lock_guard<std::mutex> lock(mu_);
  return format_;
}

void EventLog::SetMinLevel(EventLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  min_level_ = level;
}

EventLevel EventLog::min_level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_level_;
}

void EventLog::Emit(EventLevel level, std::string name,
                    std::vector<EventField> fields) {
  if (!enabled()) return;
  double t_us = std::chrono::duration_cast<
                    std::chrono::duration<double, std::micro>>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
  std::lock_guard<std::mutex> lock(mu_);
  if (format_ == EventFormat::kOff || level < min_level_) return;
  Event event;
  event.level = level;
  event.seq = ++seq_;
  event.t_us = t_us;
  event.name = std::move(name);
  event.fields = std::move(fields);
  if (sink_ != nullptr) {
    // Flush per event: the log is a live debugging surface, and heartbeats
    // arrive per chase round, not per tuple, so the write rate is low.
    *sink_ << (format_ == EventFormat::kJson ? event.ToJson()
                                             : event.ToText())
           << '\n'
           << std::flush;
  }
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
  }
  next_ = (next_ + 1) % ring_capacity_;
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Event> EventLog::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < ring_capacity_) {
    out = ring_;
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_capacity_]);
    }
  }
  return out;
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
}

std::string EventLog::DumpRecent() const {
  std::vector<Event> events = Recent();
  if (events.empty()) return "";
  std::string out = "-- flight recorder (last " +
                    std::to_string(events.size()) + " events) --";
  for (const Event& e : events) {
    out += "\n  ";
    out += e.ToText();
  }
  return out;
}

void CancelToken::RequestStop(std::string reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reason_.empty()) reason_ = std::move(reason);
  }
  stop_.store(true, std::memory_order_relaxed);
}

std::string CancelToken::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

void CancelToken::Reset() {
  stop_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  reason_.clear();
}

namespace {

double ProcStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  std::size_t field_len = std::char_traits<char>::length(field);
  while (std::getline(status, line)) {
    if (line.compare(0, field_len, field) == 0) {
      return std::strtod(line.c_str() + field_len, nullptr);
    }
  }
  return 0;
}

}  // namespace

double PeakRssKb() { return ProcStatusKb("VmHWM:"); }
double CurrentRssKb() { return ProcStatusKb("VmRSS:"); }

}  // namespace mm2::obs
