#include "text/sexpr.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/strings.h" 

namespace mm2::text {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using model::DataType;
using model::DataTypeRef;
using model::Metamodel;
using model::Schema;

namespace {

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string TypeName(const DataTypeRef& type) {
  if (!type->is_primitive()) return "string";  // nested types degrade
  return model::PrimitiveTypeToString(type->primitive());
}

const char* MetamodelToken(Metamodel m) {
  switch (m) {
    case Metamodel::kRelational:
      return "relational";
    case Metamodel::kEntityRelationship:
      return "er";
    case Metamodel::kNested:
      return "nested";
    case Metamodel::kObjectOriented:
      return "oo";
  }
  return "relational";
}

std::string QuoteString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string ValueToken(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kInt64:
      return std::to_string(v.int64());
    case Value::Kind::kDouble: {
      // %.17g round-trips every IEEE double exactly.
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g", v.dbl());
      std::string s = buffer;
      // Ensure the token re-parses as a double, not an int64.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find('E') == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Value::Kind::kString:
      return QuoteString(v.str());
    case Value::Kind::kBool:
      return v.boolean() ? "#t" : "#f";
    case Value::Kind::kDate:
      return "d:" + std::to_string(v.date());
    case Value::Kind::kLabeledNull:
      return "N" + std::to_string(v.label());
  }
  return "null";
}

std::string SchemaToText(const Schema& schema) {
  std::string out = "(schema " + schema.name() + " " +
                    MetamodelToken(schema.metamodel()) + "\n";
  for (const model::Relation& r : schema.relations()) {
    out += "  (relation " + r.name();
    for (std::size_t i = 0; i < r.arity(); ++i) {
      const model::Attribute& a = r.attribute(i);
      out += " (attr " + a.name + " " + TypeName(a.type);
      if (r.IsKeyAttribute(i)) out += " key";
      if (a.nullable) out += " nullable";
      out += ")";
    }
    out += ")\n";
  }
  for (const model::ForeignKey& fk : schema.foreign_keys()) {
    out += "  (fk " + fk.from_relation + " (";
    out += Join(fk.from_attributes, " ");
    out += ") " + fk.to_relation + " (";
    out += Join(fk.to_attributes, " ");
    out += "))\n";
  }
  for (const model::EntityType& t : schema.entity_types()) {
    out += "  (entity " + t.name;
    if (!t.parent.empty()) out += " (parent " + t.parent + ")";
    if (t.abstract) out += " abstract";
    for (const model::Attribute& a : t.attributes) {
      out += " (attr " + a.name + " " + TypeName(a.type) + ")";
    }
    out += ")\n";
  }
  for (const model::EntitySet& s : schema.entity_sets()) {
    out += "  (entityset " + s.name + " " + s.root_type + ")\n";
  }
  out += ")\n";
  return out;
}

std::string InstanceToText(const Instance& database) {
  std::string out = "(instance\n";
  for (const auto& [name, rel] : database.relations()) {
    out += "  (" + name;
    for (const Tuple& t : rel.tuples()) {
      out += " (";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += " ";
        out += ValueToken(t[i]);
      }
      out += ")";
    }
    out += ")\n";
  }
  out += ")\n";
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

// Reads all of `t` as a finite number. std::from_chars takes no '+' sign;
// its "inf" and "nan" spellings fail the finiteness check.
template <typename T>
bool ReadNumber(std::string_view t, T* out) {
  if (t.size() > 1 && t[0] == '+' && t[1] != '-') t.remove_prefix(1);
  auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), *out);
  return ec == std::errc() && end == t.data() + t.size() &&
         std::isfinite(static_cast<double>(*out));
}

}  // namespace

std::size_t QuotedLength(std::string_view text) {
  for (std::size_t i = 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;
    } else if (text[i] == '"') {
      return i + 1;
    }
  }
  return 0;
}

Result<Value> ParseValue(std::string_view token) {
  std::int64_t i = 0;
  double d = 0;
  if (token.starts_with('"') && QuotedLength(token) == token.size()) {
    const std::string_view body = token.substr(1, token.size() - 2);
    if (body.find('\\') == std::string_view::npos) return Value::String(body);
    std::string s;
    for (std::size_t k = 0; k < body.size(); ++k) {
      if (body[k] == '\\') ++k;  // never the last: it would escape the quote
      s += body[k];
    }
    return Value::String(s);
  }
  if (token == "null") return Value::Null();
  if (token == "#t") return Value::Bool(true);
  if (token == "#f") return Value::Bool(false);
  if (token.size() > 1 && token[0] == 'N' &&
      std::isdigit(static_cast<unsigned char>(token[1])) &&
      ReadNumber(token.substr(1), &i)) {
    return Value::LabeledNull(i);
  }
  if (token.starts_with("d:") && ReadNumber(token.substr(2), &i)) {
    return Value::Date(i);
  }
  if (ReadNumber(token, &i)) return Value::Int64(i);
  // A double has a fraction or an exponent; an int64 overflow is no double.
  if (token.find_first_of(".eE") != std::string_view::npos &&
      ReadNumber(token, &d)) {
    return Value::Double(d);
  }
  return Status::InvalidArgument(
      token.empty() ? "empty value"
                    : "unparsable value '" + std::string(token) + "'");
}

namespace {

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

// A parsed S-expression node: an atom token or a list.
struct Node {
  bool is_atom = false;
  std::string atom;
  std::vector<Node> items;
  std::size_t offset = 0;  // for error messages
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Node> ParseOne() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    if (text_[pos_] == '(') {
      if (depth_ == kMaxNestingDepth) {
        return Error("nesting deeper than " +
                     std::to_string(kMaxNestingDepth));
      }
      ++depth_;
      Node list;
      list.offset = pos_;
      ++pos_;
      while (true) {
        SkipSpace();
        if (pos_ >= text_.size()) return Error("missing ')'");
        if (text_[pos_] == ')') {
          ++pos_;
          --depth_;
          return list;
        }
        MM2_ASSIGN_OR_RETURN(Node child, ParseOne());
        list.items.push_back(std::move(child));
      }
    }
    if (text_[pos_] == ')') return Error("unexpected ')'");
    Node atom;
    atom.is_atom = true;
    atom.offset = pos_;
    if (text_[pos_] == '"') {
      // A string atom keeps its quotes and escapes; ParseValue reads it.
      const std::size_t length = QuotedLength(text_.substr(pos_));
      if (length == 0) return Error("unterminated string");
      atom.atom = text_.substr(pos_, length);
      pos_ += length;
      return atom;
    }
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           text_[pos_] != '(' && text_[pos_] != ')') {
      atom.atom += text_[pos_++];
    }
    return atom;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos_));
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ';') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // lists currently open
};

Status NodeError(const Node& node, const std::string& message) {
  return Status::InvalidArgument(message + " at offset " +
                                 std::to_string(node.offset));
}

bool IsList(const Node& n, const char* head) {
  return !n.is_atom && !n.items.empty() && n.items[0].is_atom &&
         n.items[0].atom == head;
}

Result<DataTypeRef> ParseType(const Node& node) {
  if (!node.is_atom) return NodeError(node, "expected a type name");
  const std::string& t = node.atom;
  if (t == "int64") return DataType::Int64();
  if (t == "double") return DataType::Double();
  if (t == "string") return DataType::String();
  if (t == "bool") return DataType::Bool();
  if (t == "date") return DataType::Date();
  return NodeError(node, "unknown type '" + t + "'");
}

Result<model::Attribute> ParseAttr(const Node& node, bool* is_key) {
  // (attr NAME TYPE [key] [nullable])
  if (node.items.size() < 3 || !node.items[1].is_atom) {
    return NodeError(node, "malformed (attr ...)");
  }
  model::Attribute attr;
  attr.name = node.items[1].atom;
  MM2_ASSIGN_OR_RETURN(attr.type, ParseType(node.items[2]));
  *is_key = false;
  for (std::size_t i = 3; i < node.items.size(); ++i) {
    if (!node.items[i].is_atom) return NodeError(node, "malformed attr flag");
    if (node.items[i].atom == "key") {
      *is_key = true;
    } else if (node.items[i].atom == "nullable") {
      attr.nullable = true;
    } else {
      return NodeError(node, "unknown attr flag '" + node.items[i].atom + "'");
    }
  }
  return attr;
}

Result<std::vector<std::string>> ParseNameList(const Node& node) {
  std::vector<std::string> names;
  if (node.is_atom) return NodeError(node, "expected a name list");
  for (const Node& item : node.items) {
    if (!item.is_atom) return NodeError(item, "expected a name");
    names.push_back(item.atom);
  }
  return names;
}

Result<Value> ValueFromNode(const Node& node) {
  if (!node.is_atom) return NodeError(node, "expected a value");
  Result<Value> value = ParseValue(node.atom);
  if (!value.ok()) return NodeError(node, value.status().message());
  return value;
}

}  // namespace

namespace {
Result<Schema> SchemaFromNode(const Node& root);
}  // namespace

Result<Schema> ParseSchema(std::string_view text) {
  Parser parser(text);
  MM2_ASSIGN_OR_RETURN(Node root, parser.ParseOne());
  return SchemaFromNode(root);
}

namespace {
Result<Schema> SchemaFromNode(const Node& root) {
  if (!IsList(root, "schema") || root.items.size() < 3 ||
      !root.items[1].is_atom || !root.items[2].is_atom) {
    return NodeError(root, "expected (schema NAME METAMODEL ...)");
  }
  Metamodel metamodel;
  const std::string& mm = root.items[2].atom;
  if (mm == "relational") {
    metamodel = Metamodel::kRelational;
  } else if (mm == "er") {
    metamodel = Metamodel::kEntityRelationship;
  } else if (mm == "nested") {
    metamodel = Metamodel::kNested;
  } else if (mm == "oo") {
    metamodel = Metamodel::kObjectOriented;
  } else {
    return NodeError(root.items[2], "unknown metamodel '" + mm + "'");
  }
  Schema schema(root.items[1].atom, metamodel);

  for (std::size_t i = 3; i < root.items.size(); ++i) {
    const Node& item = root.items[i];
    if (IsList(item, "relation")) {
      if (item.items.size() < 2 || !item.items[1].is_atom) {
        return NodeError(item, "malformed (relation ...)");
      }
      std::vector<model::Attribute> attrs;
      std::vector<std::size_t> pk;
      for (std::size_t j = 2; j < item.items.size(); ++j) {
        if (!IsList(item.items[j], "attr")) {
          return NodeError(item.items[j], "expected (attr ...)");
        }
        bool is_key = false;
        MM2_ASSIGN_OR_RETURN(model::Attribute attr,
                             ParseAttr(item.items[j], &is_key));
        if (is_key) pk.push_back(attrs.size());
        attrs.push_back(std::move(attr));
      }
      schema.AddRelation(
          model::Relation(item.items[1].atom, std::move(attrs), pk));
    } else if (IsList(item, "fk")) {
      if (item.items.size() != 5 || !item.items[1].is_atom ||
          !item.items[3].is_atom) {
        return NodeError(item, "expected (fk FROM (A...) TO (B...))");
      }
      MM2_ASSIGN_OR_RETURN(std::vector<std::string> from,
                           ParseNameList(item.items[2]));
      MM2_ASSIGN_OR_RETURN(std::vector<std::string> to,
                           ParseNameList(item.items[4]));
      schema.AddForeignKey(model::ForeignKey{item.items[1].atom, from,
                                             item.items[3].atom, to});
    } else if (IsList(item, "entity")) {
      if (item.items.size() < 2 || !item.items[1].is_atom) {
        return NodeError(item, "malformed (entity ...)");
      }
      model::EntityType type;
      type.name = item.items[1].atom;
      for (std::size_t j = 2; j < item.items.size(); ++j) {
        const Node& part = item.items[j];
        if (IsList(part, "parent")) {
          if (part.items.size() != 2 || !part.items[1].is_atom) {
            return NodeError(part, "malformed (parent ...)");
          }
          type.parent = part.items[1].atom;
        } else if (part.is_atom && part.atom == "abstract") {
          type.abstract = true;
        } else if (IsList(part, "attr")) {
          bool is_key = false;
          MM2_ASSIGN_OR_RETURN(model::Attribute attr,
                               ParseAttr(part, &is_key));
          type.attributes.push_back(std::move(attr));
        } else {
          return NodeError(part, "unexpected entity clause");
        }
      }
      schema.AddEntityType(std::move(type));
    } else if (IsList(item, "entityset")) {
      if (item.items.size() != 3 || !item.items[1].is_atom ||
          !item.items[2].is_atom) {
        return NodeError(item, "expected (entityset NAME ROOT)");
      }
      schema.AddEntitySet(
          model::EntitySet{item.items[1].atom, item.items[2].atom});
    } else {
      return NodeError(item, "unexpected schema clause");
    }
  }
  MM2_RETURN_IF_ERROR(schema.Validate());
  return schema;
}
}  // namespace

Result<Instance> ParseInstance(std::string_view text) {
  Parser parser(text);
  MM2_ASSIGN_OR_RETURN(Node root, parser.ParseOne());
  if (!IsList(root, "instance")) {
    return NodeError(root, "expected (instance ...)");
  }
  Instance db;
  for (std::size_t i = 1; i < root.items.size(); ++i) {
    const Node& rel = root.items[i];
    if (rel.is_atom || rel.items.empty() || !rel.items[0].is_atom) {
      return NodeError(rel, "expected (RELATION (row) ...)");
    }
    const std::string& name = rel.items[0].atom;
    for (std::size_t j = 1; j < rel.items.size(); ++j) {
      const Node& row = rel.items[j];
      if (row.is_atom) return NodeError(row, "expected a row list");
      Tuple tuple;
      for (const Node& v : row.items) {
        MM2_ASSIGN_OR_RETURN(Value value, ValueFromNode(v));
        tuple.push_back(std::move(value));
      }
      if (!db.HasRelation(name)) db.DeclareRelation(name, tuple.size());
      MM2_RETURN_IF_ERROR(db.Insert(name, std::move(tuple)));
    }
    if (!db.HasRelation(name)) db.DeclareRelation(name, 0);
  }
  return db;
}

namespace {

std::string TermToken(const logic::Term& term) {
  switch (term.kind()) {
    case logic::Term::Kind::kVariable:
      return term.name();
    case logic::Term::Kind::kConstant:
      return ValueToken(term.value());
    case logic::Term::Kind::kFunction:
      return term.ToString();  // not parseable back; FO mappings only
  }
  return "?";
}

std::string AtomToText(const logic::Atom& atom) {
  std::string out = "(" + atom.relation;
  for (const logic::Term& t : atom.terms) out += " " + TermToken(t);
  out += ")";
  return out;
}

// A term from an s-expression atom: literals become constants, identifier
// tokens become variables.
Result<logic::Term> TermFromNode(const Node& node) {
  if (!node.is_atom) return NodeError(node, "expected a term");
  const std::string& t = node.atom;
  if (t.empty()) return NodeError(node, "empty term");
  bool identifier = true;
  for (char c : t) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '$') {
      identifier = false;
      break;
    }
  }
  // Literal forms win; "null", "N7", numbers etc. parse as constants even
  // though they are identifier-shaped, so variables should avoid those
  // spellings.
  Result<Value> value = ValueFromNode(node);
  if (value.ok()) return logic::Term::Const(std::move(*value));
  if (identifier && !std::isdigit(static_cast<unsigned char>(t[0]))) {
    return logic::Term::Var(t);
  }
  return value.status();
}

Result<logic::Atom> AtomFromNode(const Node& node) {
  if (node.is_atom || node.items.empty() || !node.items[0].is_atom) {
    return NodeError(node, "expected an atom (Relation term ...)");
  }
  logic::Atom atom;
  atom.relation = node.items[0].atom;
  for (std::size_t i = 1; i < node.items.size(); ++i) {
    MM2_ASSIGN_OR_RETURN(logic::Term term, TermFromNode(node.items[i]));
    atom.terms.push_back(std::move(term));
  }
  return atom;
}

Result<std::vector<logic::Atom>> AtomListFromNode(const Node& node,
                                                  const char* head) {
  if (!IsList(node, head)) {
    return NodeError(node, std::string("expected (") + head + " ...)");
  }
  std::vector<logic::Atom> atoms;
  for (std::size_t i = 1; i < node.items.size(); ++i) {
    MM2_ASSIGN_OR_RETURN(logic::Atom atom, AtomFromNode(node.items[i]));
    atoms.push_back(std::move(atom));
  }
  return atoms;
}

}  // namespace

std::string MappingToText(const logic::Mapping& mapping) {
  std::string out = "(mapping " + mapping.name() + "\n";
  out += "  (source " + SchemaToText(mapping.source()) + "  )\n";
  out += "  (target " + SchemaToText(mapping.target()) + "  )\n";
  if (!mapping.is_second_order()) {
    for (const logic::Tgd& tgd : mapping.tgds()) {
      out += "  (tgd (body";
      for (const logic::Atom& a : tgd.body) out += " " + AtomToText(a);
      out += ") (head";
      for (const logic::Atom& a : tgd.head) out += " " + AtomToText(a);
      out += "))\n";
    }
  }
  for (const logic::Egd& egd : mapping.target_egds()) {
    out += "  (egd (body";
    for (const logic::Atom& a : egd.body) out += " " + AtomToText(a);
    out += ") (eq " + egd.left + " " + egd.right + "))\n";
  }
  out += ")\n";
  return out;
}

Result<logic::Mapping> ParseMapping(std::string_view text) {
  Parser parser(text);
  MM2_ASSIGN_OR_RETURN(Node root, parser.ParseOne());
  if (!IsList(root, "mapping") || root.items.size() < 2 ||
      !root.items[1].is_atom) {
    return NodeError(root, "expected (mapping NAME ...)");
  }
  std::optional<Schema> source;
  std::optional<Schema> target;
  std::vector<logic::Tgd> tgds;
  std::vector<logic::Egd> egds;
  for (std::size_t i = 2; i < root.items.size(); ++i) {
    const Node& item = root.items[i];
    if (IsList(item, "source") || IsList(item, "target")) {
      if (item.items.size() != 2) {
        return NodeError(item, "expected (source|target (schema ...))");
      }
      MM2_ASSIGN_OR_RETURN(Schema schema, SchemaFromNode(item.items[1]));
      if (IsList(item, "source")) {
        source = std::move(schema);
      } else {
        target = std::move(schema);
      }
    } else if (IsList(item, "tgd")) {
      if (item.items.size() != 3) {
        return NodeError(item, "expected (tgd (body ...) (head ...))");
      }
      logic::Tgd tgd;
      MM2_ASSIGN_OR_RETURN(tgd.body,
                           AtomListFromNode(item.items[1], "body"));
      MM2_ASSIGN_OR_RETURN(tgd.head,
                           AtomListFromNode(item.items[2], "head"));
      tgds.push_back(std::move(tgd));
    } else if (IsList(item, "egd")) {
      if (item.items.size() != 3 || !IsList(item.items[2], "eq") ||
          item.items[2].items.size() != 3 ||
          !item.items[2].items[1].is_atom ||
          !item.items[2].items[2].is_atom) {
        return NodeError(item, "expected (egd (body ...) (eq a b))");
      }
      logic::Egd egd;
      MM2_ASSIGN_OR_RETURN(egd.body,
                           AtomListFromNode(item.items[1], "body"));
      egd.left = item.items[2].items[1].atom;
      egd.right = item.items[2].items[2].atom;
      egds.push_back(std::move(egd));
    } else {
      return NodeError(item, "unexpected mapping clause");
    }
  }
  if (!source.has_value() || !target.has_value()) {
    return NodeError(root, "mapping needs (source ...) and (target ...)");
  }
  logic::Mapping mapping = logic::Mapping::FromTgds(
      root.items[1].atom, std::move(*source), std::move(*target),
      std::move(tgds), std::move(egds));
  MM2_RETURN_IF_ERROR(mapping.Validate());
  return mapping;
}

}  // namespace mm2::text
