#ifndef MM2_COMMON_JSON_H_
#define MM2_COMMON_JSON_H_

// The one JSON string escaper and number formatter. Every hand-rolled JSON
// surface goes through them (`explain --json`, `stats --json`, `explain
// mapping --json`, the Chrome trace export and the structured event log), so
// all of them spell a name or a value the same way.

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace mm2::json {

// Six significant digits, as a default-formatted std::ostream prints.
inline std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// Appends `s` with quotes, backslashes and control bytes escaped.
inline void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

inline std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendEscaped(&out, s);
  return out;
}

}  // namespace mm2::json

#endif  // MM2_COMMON_JSON_H_
