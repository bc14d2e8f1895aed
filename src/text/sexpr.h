#ifndef MM2_TEXT_SEXPR_H_
#define MM2_TEXT_SEXPR_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"
#include "instance/instance.h"
#include "logic/mapping.h"
#include "model/schema.h"

namespace mm2::text {

// A small S-expression serialization for schemas and instances, used by the
// mm2_shell example and golden tests. It is intentionally not a SQL/XSD
// parser (out of scope per DESIGN.md); it is a faithful round-trippable
// rendering of the builder API.
//
// Schema syntax:
//   (schema NAME METAMODEL
//     (relation R (attr A TYPE [key] [nullable]) ...)
//     (fk FROM (A ...) TO (B ...))
//     (entity T [(parent P)] [abstract] (attr A TYPE) ...)
//     (entityset S ROOT))
// METAMODEL is one of: relational, er, nested, oo.
// TYPE is one of: int64, double, string, bool, date (nested struct and
// collection types are not expressible in text).
//
// Instance syntax:
//   (instance
//     (R (v1 v2 ...) (v1 v2 ...))
//     ...)
// Values: 42 -> int64; 4.5, -1e-05 -> double; "s" -> string; #t/#f ->
// bool; null -> NULL; N7 -> labeled null 7; d:123 -> date.

// Mapping syntax (first-order mappings only; schemas are embedded):
//   (mapping NAME
//     (source (schema ...))
//     (target (schema ...))
//     (tgd (body (R x y) (S y z)) (head (T x z)))
//     (egd (body (T x a) (T x b)) (eq a b)))
// Atom terms follow the query syntax of query.h: bare identifiers are
// variables, literals are constants.

// Rendering.
std::string SchemaToText(const model::Schema& schema);
std::string InstanceToText(const instance::Instance& database);
std::string MappingToText(const logic::Mapping& mapping);

// Deepest list nesting the parsers accept. The parser and every walker of
// its tree (types, function terms, the tree's destructor) recurse once per
// level, so deeper input is refused up front with InvalidArgument instead
// of exhausting the stack; the bound leaves room for sanitizer builds'
// larger frames. Real schemas, instances and mappings nest a handful deep.
inline constexpr std::size_t kMaxNestingDepth = 1000;

// One value token of the instance syntax, the single value grammar of the
// text surface: instance rows, mapping and query constants and fact
// literals (query.h) all read values here. Ints are an optional sign and
// decimal digits; doubles are finite, with a fraction or an exponent
// (1.5, -2e+23, 1e-05); strings are double-quoted, a backslash escaping
// the next character (`\"`, `\\`). The whole token must be one value, else
// InvalidArgument.
Result<instance::Value> ParseValue(std::string_view token);

// Renders a value as the token ParseValue reads back to an equal value:
// `42`, `1.0000000000000001e-05` (doubles as %.17g, with `.0` added when
// they would read as ints), `"a \"b\""`, `#t`, `null`, `N7`, `d:3`.
std::string ValueToken(const instance::Value& v);

// The length of the quoted string opening `text` (text[0] == '"'), through
// its closing quote; 0 when no unescaped quote closes it.
std::size_t QuotedLength(std::string_view text);

// Parsing. Errors carry a character offset.
Result<model::Schema> ParseSchema(std::string_view text);
Result<instance::Instance> ParseInstance(std::string_view text);
Result<logic::Mapping> ParseMapping(std::string_view text);

}  // namespace mm2::text

#endif  // MM2_TEXT_SEXPR_H_
