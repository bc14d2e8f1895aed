#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace mm2 {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view RestAfterWords(std::string_view line, std::size_t n) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::size_t at = line.find_first_not_of(kSpace);
  for (; n > 0 && at != std::string_view::npos; --n) {
    at = line.find_first_not_of(kSpace, line.find_first_of(kSpace, at));
  }
  if (at == std::string_view::npos) return {};
  return line.substr(at, line.find_last_not_of(kSpace) + 1 - at);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string> TokenizeIdentifier(std::string_view name) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      tokens.push_back(ToLower(current));
      current.clear();
    }
  };
  for (std::size_t i = 0; i < name.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(name[i]);
    if (c == '_' || c == '-' || c == ' ' || c == '.' || c == '/') {
      flush();
      continue;
    }
    if (std::isdigit(c)) {
      if (!current.empty() &&
          !std::isdigit(static_cast<unsigned char>(current.back()))) {
        flush();
      }
      current.push_back(static_cast<char>(c));
      continue;
    }
    if (std::isupper(c)) {
      // Break before an uppercase letter, except inside an acronym run that
      // continues ("HTTPServer" -> "http", "server").
      bool prev_upper =
          i > 0 && std::isupper(static_cast<unsigned char>(name[i - 1]));
      bool next_lower = i + 1 < name.size() &&
                        std::islower(static_cast<unsigned char>(name[i + 1]));
      if (!current.empty() && (!prev_upper || next_lower)) flush();
      current.push_back(static_cast<char>(c));
      continue;
    }
    if (!current.empty() &&
        std::isdigit(static_cast<unsigned char>(current.back()))) {
      flush();
    }
    current.push_back(static_cast<char>(c));
  }
  flush();
  return tokens;
}

bool IsAbbreviation(std::string_view abbr, std::string_view full) {
  if (abbr.empty() || abbr.size() > full.size()) return false;
  if (abbr[0] != full[0]) return false;
  std::size_t j = 0;
  for (std::size_t i = 0; i < full.size() && j < abbr.size(); ++i) {
    if (full[i] == abbr[j]) ++j;
  }
  return j == abbr.size();
}

std::size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t diag = row[0];
    row[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[i];
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, subst});
    }
  }
  return row[a.size()];
}

double EditSimilarity(std::string_view a, std::string_view b) {
  std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) /
                   static_cast<double>(longest);
}

double TrigramSimilarity(std::string_view a, std::string_view b) {
  if (a.size() < 3 || b.size() < 3) return EditSimilarity(a, b);
  std::string la = ToLower(a);
  std::string lb = ToLower(b);
  std::set<std::string> ga;
  std::set<std::string> gb;
  for (std::size_t i = 0; i + 3 <= la.size(); ++i) ga.insert(la.substr(i, 3));
  for (std::size_t i = 0; i + 3 <= lb.size(); ++i) gb.insert(lb.substr(i, 3));
  std::size_t both = 0;
  for (const std::string& g : ga) both += gb.count(g);
  std::size_t all = ga.size() + gb.size() - both;
  if (all == 0) return 1.0;
  return static_cast<double>(both) / static_cast<double>(all);
}

}  // namespace mm2
