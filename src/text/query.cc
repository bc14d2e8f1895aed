#include "text/query.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "text/sexpr.h"

namespace mm2::text {

using instance::Value;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;

namespace {

// The characters of identifiers: relation names and variables.
bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

class QueryParser {
 public:
  QueryParser(std::string_view text, bool ground)
      : text_(text), ground_(ground) {}

  Result<ConjunctiveQuery> Parse() {
    ConjunctiveQuery query;
    MM2_ASSIGN_OR_RETURN(query.head, ParseAtom());
    SkipSpace();
    if (!Consume(":-")) {
      return Error("expected ':-' after the head atom");
    }
    while (true) {
      MM2_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      query.body.push_back(std::move(atom));
      SkipSpace();
      if (!Consume(",")) break;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing input after query");
    }
    MM2_RETURN_IF_ERROR(query.Validate());
    return query;
  }

  Result<GroundFact> ParseFact() {
    MM2_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing input after fact");
    GroundFact fact{std::move(atom.relation), {}};
    fact.tuple.reserve(atom.terms.size());
    for (const Term& term : atom.terms) fact.tuple.push_back(term.value());
    return fact;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  Result<std::string> ParseIdentifier() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() && IsWordChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected an identifier");
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<Atom> ParseAtom() {
    Atom atom;
    MM2_ASSIGN_OR_RETURN(atom.relation, ParseIdentifier());
    if (!Consume("(")) return Error("expected '(' after relation name");
    SkipSpace();
    if (Consume(")")) return atom;  // nullary atoms are legal syntax
    while (true) {
      MM2_ASSIGN_OR_RETURN(Term term, ParseTerm());
      atom.terms.push_back(std::move(term));
      if (Consume(")")) return atom;
      if (!Consume(",")) return Error("expected ',' or ')' in atom");
    }
  }

  // A bare identifier is a variable; every other term, `null` included,
  // is a value token that ParseValue reads. A ground atom reads them all.
  Result<Term> ParseTerm() {
    SkipSpace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '"') {
      pos_ += QuotedLength(text_.substr(pos_));
      if (pos_ == start) return Error("unterminated string");
    } else {
      pos_ = std::min(text_.find_first_of(", ()\t\n\v\f\r", pos_),
                      text_.size());
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!ground_ && token != "null" && !token.empty() &&
        !std::isdigit(static_cast<unsigned char>(token[0])) &&
        std::all_of(token.begin(), token.end(), IsWordChar)) {
      return Term::Var(std::string(token));
    }
    Result<Value> value = ParseValue(token);
    if (!value.ok()) {
      return Status::InvalidArgument(value.status().message() +
                                     " at offset " + std::to_string(start));
    }
    return Term::Const(std::move(*value));
  }

  std::string_view text_;
  bool ground_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<ConjunctiveQuery> ParseQuery(std::string_view text) {
  return QueryParser(text, /*ground=*/false).Parse();
}

Result<GroundFact> ParseFact(std::string_view text) {
  return QueryParser(text, /*ground=*/true).ParseFact();
}

namespace {

std::string AtomToText(const Atom& atom) {
  std::string out = atom.relation + "(";
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = atom.terms[i];
    out += t.is_constant() ? ValueToken(t.value()) : t.ToString();
  }
  return out + ")";
}

}  // namespace

std::string QueryToText(const ConjunctiveQuery& query) {
  std::string out = AtomToText(query.head) + " :- ";
  for (std::size_t i = 0; i < query.body.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomToText(query.body[i]);
  }
  return out;
}

}  // namespace mm2::text
