#include "predicate/predicate.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/strings.h"

namespace nonserial {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool Term::operator==(const Term& other) const {
  if (is_entity != other.is_entity) return false;
  return is_entity ? entity == other.entity : constant == other.constant;
}

void Atom::CollectEntities(std::set<EntityId>* out) const {
  if (lhs.is_entity) out->insert(lhs.entity);
  if (rhs.is_entity) out->insert(rhs.entity);
}

bool Atom::operator==(const Atom& other) const {
  return lhs == other.lhs && op == other.op && rhs == other.rhs;
}

bool Clause::Eval(const ValueVector& values) const {
  for (const Atom& atom : atoms_) {
    if (atom.Eval(values)) return true;
  }
  return false;
}

std::set<EntityId> Clause::Object() const {
  std::set<EntityId> out;
  for (const Atom& atom : atoms_) atom.CollectEntities(&out);
  return out;
}

Predicate::Predicate(std::vector<Clause> clauses) {
  if (!clauses.empty()) {
    clauses_ = std::make_shared<std::vector<Clause>>(std::move(clauses));
  }
}

const std::vector<Clause>& Predicate::NoClauses() {
  static const std::vector<Clause> kNone;
  return kNone;
}

void Predicate::AddClause(Clause clause) {
  std::vector<Clause> clauses = this->clauses();
  clauses.push_back(std::move(clause));
  clauses_ = std::make_shared<const std::vector<Clause>>(std::move(clauses));
}

bool Predicate::Eval(const ValueVector& values) const {
  for (const Clause& clause : clauses()) {
    if (!clause.Eval(values)) return false;
  }
  return true;
}

std::set<EntityId> Predicate::Entities() const {
  std::set<EntityId> out;
  for (const Clause& clause : clauses()) {
    std::set<EntityId> obj = clause.Object();
    out.insert(obj.begin(), obj.end());
  }
  return out;
}

std::vector<std::set<EntityId>> Predicate::Objects() const {
  std::vector<std::set<EntityId>> out;
  for (const Clause& clause : clauses()) {
    std::set<EntityId> obj = clause.Object();
    if (obj.empty()) continue;
    if (std::find(out.begin(), out.end(), obj) == out.end()) {
      out.push_back(std::move(obj));
    }
  }
  return out;
}

Predicate Predicate::And(const Predicate& a, const Predicate& b) {
  if (b.IsTrue()) return a;
  if (a.IsTrue()) return b;
  std::vector<Clause> clauses = a.clauses();
  clauses.insert(clauses.end(), b.clauses().begin(), b.clauses().end());
  return Predicate(std::move(clauses));
}

namespace {

std::string TermToString(const Term& term,
                         const std::function<std::string(EntityId)>& name_of) {
  if (term.is_entity) return name_of(term.entity);
  return std::to_string(term.constant);
}

}  // namespace

std::string Predicate::ToString(
    const std::function<std::string(EntityId)>& name_of) const {
  if (IsTrue()) return "true";
  const std::vector<Clause>& clauses = *clauses_;
  std::ostringstream os;
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) os << " & ";
    os << "(";
    const std::vector<Atom>& atoms = clauses[i].atoms();
    for (size_t j = 0; j < atoms.size(); ++j) {
      if (j > 0) os << " | ";
      os << TermToString(atoms[j].lhs, name_of) << " "
         << CompareOpName(atoms[j].op) << " "
         << TermToString(atoms[j].rhs, name_of);
    }
    os << ")";
  }
  return os.str();
}

std::string Predicate::ToString() const {
  return ToString([](EntityId e) { return StrCat("e", e); });
}

Atom MakeAtom(Term lhs, CompareOp op, Term rhs) {
  Atom atom;
  atom.lhs = lhs;
  atom.op = op;
  atom.rhs = rhs;
  return atom;
}

Atom EntityVsConst(EntityId e, CompareOp op, Value c) {
  return MakeAtom(Term::Entity(e), op, Term::Constant(c));
}

Atom EntityVsEntity(EntityId a, CompareOp op, EntityId b) {
  return MakeAtom(Term::Entity(a), op, Term::Entity(b));
}

Predicate Range(EntityId e, Value lo, Value hi) {
  return Predicate({Clause({EntityVsConst(e, CompareOp::kGe, lo)}),
                    Clause({EntityVsConst(e, CompareOp::kLe, hi)})});
}

namespace {

/// Minimal recursive-descent parser for the predicate grammar.
class Parser {
 public:
  Parser(const std::string& text,
         const std::function<StatusOr<EntityId>(const std::string&)>& resolve)
      : text_(text), resolve_(resolve) {}

  StatusOr<Predicate> Parse() {
    std::vector<Clause> clauses;
    for (;;) {
      auto clause = ParseClause();
      if (!clause.ok()) return clause.status();
      clauses.push_back(std::move(clause).value());
      SkipSpace();
      if (!Consume('&')) break;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument(
          StrCat("trailing input at offset ", pos_, " in predicate: ", text_));
    }
    return Predicate(std::move(clauses));
  }

 private:
  StatusOr<Clause> ParseClause() {
    SkipSpace();
    bool parenthesized = Consume('(');
    Clause clause;
    for (;;) {
      auto atom = ParseAtom();
      if (!atom.ok()) return atom.status();
      clause.AddAtom(std::move(atom).value());
      SkipSpace();
      if (!Consume('|')) break;
    }
    if (parenthesized && !Consume(')')) {
      return Status::InvalidArgument(StrCat("expected ')' at offset ", pos_));
    }
    return clause;
  }

  StatusOr<Atom> ParseAtom() {
    auto lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    auto op = ParseOp();
    if (!op.ok()) return op.status();
    auto rhs = ParseTerm();
    if (!rhs.ok()) return rhs.status();
    return MakeAtom(lhs.value(), op.value(), rhs.value());
  }

  StatusOr<Term> ParseTerm() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of predicate");
    }
    char c = text_[pos_];
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_++;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      int64_t value = 0;
      if (!ParseInt64(text_.substr(start, pos_ - start), &value)) {
        return Status::InvalidArgument(
            StrCat("bad integer at offset ", start));
      }
      return Term::Constant(value);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '.')) {
        ++pos_;
      }
      auto id = resolve_(text_.substr(start, pos_ - start));
      if (!id.ok()) return id.status();
      return Term::Entity(id.value());
    }
    return Status::InvalidArgument(
        StrCat("unexpected character '", c, "' at offset ", pos_));
  }

  StatusOr<CompareOp> ParseOp() {
    SkipSpace();
    auto take2 = [&](const char* s, CompareOp op) -> std::optional<CompareOp> {
      if (pos_ + 1 < text_.size() && text_[pos_] == s[0] &&
          text_[pos_ + 1] == s[1]) {
        pos_ += 2;
        return op;
      }
      return std::nullopt;
    };
    if (auto op = take2("!=", CompareOp::kNe)) return *op;
    if (auto op = take2("<=", CompareOp::kLe)) return *op;
    if (auto op = take2(">=", CompareOp::kGe)) return *op;
    if (Consume('=')) return CompareOp::kEq;
    if (Consume('<')) return CompareOp::kLt;
    if (Consume('>')) return CompareOp::kGt;
    return Status::InvalidArgument(
        StrCat("expected comparison operator at offset ", pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  const std::function<StatusOr<EntityId>(const std::string&)>& resolve_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Predicate> ParsePredicate(
    const std::string& text,
    const std::function<StatusOr<EntityId>(const std::string&)>& resolve) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty() || stripped == "true") return Predicate::True();
  Parser parser(text, resolve);
  return parser.Parse();
}

}  // namespace nonserial
