#ifndef MM2_TEXT_QUERY_H_
#define MM2_TEXT_QUERY_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "instance/value.h"
#include "logic/formula.h"

namespace mm2::text {

// Parses a conjunctive query in Datalog syntax:
//
//   Q(x, y) :- Listing(s, x, "CS"), Person(s, y)
//
// Terms: bare identifiers are variables; every other term, `null`
// included, is a constant in the instance value syntax (ParseValue in
// sexpr.h). A labeled-null constant cannot be written in a query: `N7` is
// an identifier, so a variable. The head relation name is arbitrary (it
// names the answer).
Result<logic::ConjunctiveQuery> ParseQuery(std::string_view text);

// A ground atom of the same syntax, `Rel(v1, ..., vn)`, every term a value
// (so `N7` is a labeled null): the fact literal of `apply` and `why`.
struct GroundFact {
  std::string relation;
  instance::Tuple tuple;
};
Result<GroundFact> ParseFact(std::string_view text);

// Renders a query back to the same syntax (modulo whitespace), constants
// through ValueToken, so ParseQuery reads it back to an equal query unless
// it holds a labeled-null constant.
std::string QueryToText(const logic::ConjunctiveQuery& query);

}  // namespace mm2::text

#endif  // MM2_TEXT_QUERY_H_
