#ifndef MM2_COMMON_STRINGS_H_
#define MM2_COMMON_STRINGS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mm2 {

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Splits `s` on the character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

// The rest of `line` after its first `n` whitespace-separated words,
// trimmed, with the spacing inside it kept; empty when nothing follows.
// Script commands read a trailing literal or query from it, so runs of
// spaces inside quoted strings survive.
std::string_view RestAfterWords(std::string_view line, std::size_t n);

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Splits an identifier into lowercase word tokens. Understands snake_case,
// kebab-case, camelCase, PascalCase and digit boundaries, e.g.
// "custBillingAddr2" -> {"cust", "billing", "addr", "2"}. Used by the
// lexical schema matchers.
std::vector<std::string> TokenizeIdentifier(std::string_view name);

// True if `abbr` abbreviates `full`: same first character and `abbr` is a
// subsequence of `full` ("dept" ~ "department", "empl" ~ "employee").
bool IsAbbreviation(std::string_view abbr, std::string_view full);

// Classic Levenshtein edit distance.
std::size_t EditDistance(std::string_view a, std::string_view b);

// Edit-distance similarity in [0,1]: 1 - dist/max(len). Empty-vs-empty is 1.
double EditSimilarity(std::string_view a, std::string_view b);

// Character-trigram Jaccard similarity in [0,1] over lowercased input.
// Strings shorter than 3 characters fall back to EditSimilarity.
double TrigramSimilarity(std::string_view a, std::string_view b);

}  // namespace mm2

#endif  // MM2_COMMON_STRINGS_H_
