#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace mm2::obs {

std::uint32_t Tracer::ThreadIndexLocked(std::thread::id id) {
  auto it = thread_index_.find(id);
  if (it != thread_index_.end()) return it->second;
  std::uint32_t index = static_cast<std::uint32_t>(thread_index_.size() + 1);
  thread_index_.emplace(id, index);
  return index;
}

std::uint64_t Tracer::BeginSpan(const std::string& name) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t id = next_id_++;
  std::thread::id thread = std::this_thread::get_id();
  std::vector<std::uint64_t>& stack = stacks_[thread];
  SpanRecord record;
  record.id = id;
  record.parent_id = stack.empty() ? 0 : stack.back();
  record.name = name;
  record.start_us = NowUs();
  record.tid = ThreadIndexLocked(thread);
  stack.push_back(id);
  active_.emplace(id, std::move(record));
  return id;
}

void Tracer::SetAttribute(std::uint64_t id, const std::string& key,
                          std::string value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.attributes.emplace_back(key, std::move(value));
}

void Tracer::EndSpan(std::uint64_t id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  SpanRecord record = std::move(it->second);
  active_.erase(it);
  record.duration_us = NowUs() - record.start_us;
  // Unwind this thread's stack down to (and including) the span; spans that
  // outlived their parent are closed implicitly by the pop.
  for (auto& [thread, stack] : stacks_) {
    auto pos = std::find(stack.begin(), stack.end(), id);
    if (pos != stack.end()) {
      stack.erase(pos, stack.end());
      break;
    }
  }
  done_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> spans = done_;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.id < b.id;
            });
  return spans;
}

std::size_t Tracer::completed_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  active_.clear();
  done_.clear();
  stacks_.clear();
}

std::string Tracer::ToText() const {
  std::vector<SpanRecord> spans = Snapshot();
  // Depth = chain length to the root via parent ids.
  std::map<std::uint64_t, std::uint64_t> parent_of;
  for (const SpanRecord& s : spans) parent_of[s.id] = s.parent_id;
  std::ostringstream os;
  for (const SpanRecord& s : spans) {
    std::size_t depth = 0;
    for (std::uint64_t p = s.parent_id; p != 0; p = parent_of[p]) ++depth;
    os << std::string(depth * 2, ' ') << s.name << " (" << s.duration_us
       << "us)";
    for (const auto& [k, v] : s.attributes) os << ' ' << k << '=' << v;
    os << '\n';
  }
  return os.str();
}

std::string Tracer::ToChromeJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << json::Escape(s.name)
       << "\", \"cat\": \"mm2\", \"ph\": \"X\", \"ts\": " << s.start_us
       << ", \"dur\": " << s.duration_us << ", \"pid\": 1, \"tid\": " << s.tid
       << ", \"args\": {";
    bool first_arg = true;
    for (const auto& [k, v] : s.attributes) {
      if (!first_arg) os << ", ";
      first_arg = false;
      os << "\"" << json::Escape(k) << "\": \"" << json::Escape(v) << "\"";
    }
    os << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open trace file '" + path + "'");
  }
  out << ToChromeJson();
  out.flush();
  if (!out) {
    return Status::Internal("failed writing trace file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace mm2::obs
