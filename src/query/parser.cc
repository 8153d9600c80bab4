#include "src/query/parser.h"

#include <cctype>
#include <charconv>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <unordered_map>

namespace dissodb {

namespace {

class Cursor {
 public:
  explicit Cursor(std::string_view text) : s_(text) {}

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }
  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeStr(std::string_view lit) {
    SkipWs();
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }
  /// [A-Za-z_][A-Za-z0-9_]*
  std::string Ident() {
    SkipWs();
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '_'))
      ++pos_;
    return std::string(s_.substr(start, pos_ - start));
  }
  /// Signed numeric literal; sets *is_double if it contains '.' or 'e'.
  std::string Number(bool* is_double) {
    SkipWs();
    size_t start = pos_;
    *is_double = false;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      if (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E') *is_double = true;
      ++pos_;
    }
    return std::string(s_.substr(start, pos_ - start));
  }
  Result<std::string> QuotedString() {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '\'') {
      return Status::InvalidArgument("expected opening quote");
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '\'') out += s_[pos_++];
    if (pos_ >= s_.size()) {
      return Status::InvalidArgument("unterminated string literal");
    }
    ++pos_;
    return out;
  }
  size_t pos() const { return pos_; }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

bool IsVariableName(const std::string& ident) {
  return !ident.empty() && std::islower(static_cast<unsigned char>(ident[0]));
}

/// Converts a whole numeric literal from Cursor::Number. Malformed text
/// ("-", "1.2.3") and values outside int64 / double range ("1e999") are
/// InvalidArgument, never an exception.
Result<Value> NumericLiteral(const std::string& text, bool is_double) {
  std::string_view s = text;
  if (!s.empty() && s[0] == '+') s.remove_prefix(1);  // from_chars rejects '+'
  const char* const end = s.data() + s.size();
  std::from_chars_result r;
  Value v;
  if (is_double) {
    double d = 0.0;
    r = std::from_chars(s.data(), end, d);
    v = Value::Double(d);
  } else {
    int64_t i = 0;
    r = std::from_chars(s.data(), end, i);
    v = Value::Int64(i);
  }
  if (r.ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("numeric literal " + text +
                                   " is out of range");
  }
  if (r.ec != std::errc() || r.ptr != end) {
    return Status::InvalidArgument("bad numeric literal '" + text + "'");
  }
  return v;
}

using StringInterner = std::function<Result<int64_t>(const std::string&)>;

Result<ConjunctiveQuery> ParseQueryImpl(std::string_view text,
                                        const StringInterner& intern) {
  Cursor c(text);
  ConjunctiveQuery q;
  // VarMask holds one bit per variable, so a distinct name beyond
  // kMaxQueryVars is an error here rather than an overflowed mask downstream.
  auto add_var = [&q](const std::string& name) -> Result<VarId> {
    if (q.num_vars() >= kMaxQueryVars && q.FindVar(name) < 0) {
      return Status::InvalidArgument("query has more than " +
                                     std::to_string(kMaxQueryVars) +
                                     " distinct variables");
    }
    return q.AddVar(name);
  };

  std::string head_name = c.Ident();
  if (head_name.empty()) {
    return Status::InvalidArgument("expected query head name");
  }
  q.SetName(head_name);
  if (!c.Consume('(')) {
    return Status::InvalidArgument("expected '(' after head name");
  }
  if (!c.Consume(')')) {
    for (;;) {
      std::string v = c.Ident();
      if (v.empty() || !IsVariableName(v)) {
        return Status::InvalidArgument(
            "head arguments must be lowercase variables");
      }
      auto var = add_var(v);
      if (!var.ok()) return var.status();
      DISSODB_RETURN_NOT_OK(q.AddHeadVar(*var));
      if (c.Consume(',')) continue;
      if (c.Consume(')')) break;
      return Status::InvalidArgument("expected ',' or ')' in head");
    }
  }
  if (!c.ConsumeStr(":-")) {
    return Status::InvalidArgument("expected ':-' after head");
  }

  // Body atoms.
  int next_param = 0;
  for (;;) {
    std::string rel = c.Ident();
    if (rel.empty()) {
      return Status::InvalidArgument("expected relation name in body");
    }
    if (!c.Consume('(')) {
      return Status::InvalidArgument("expected '(' after relation " + rel);
    }
    Atom atom;
    atom.relation = rel;
    if (!c.Consume(')')) {
      for (;;) {
        char p = c.Peek();
        if (p == '?') {
          // Anonymous parameter: indexes assign left to right across the
          // whole query ("?, ?" == "$0, $1").
          c.Consume('?');
          atom.terms.push_back(Term::Param(next_param++));
        } else if (p == '$') {
          c.Consume('$');
          bool is_double = false;
          std::string n = c.Number(&is_double);
          if (n.empty() || is_double || n[0] == '-' || n[0] == '+') {
            return Status::InvalidArgument(
                "parameter must be $<non-negative integer>");
          }
          // Bounded parse: a query realistically has a handful of
          // parameters; a huge index would make Bindings::ParamVector
          // allocate index-many slots (and > 9 digits would overflow).
          constexpr int kMaxParamIndex = 255;
          if (n.size() > 3 || std::stoi(n) > kMaxParamIndex) {
            return Status::InvalidArgument(
                "parameter index $" + n + " exceeds the maximum of $" +
                std::to_string(kMaxParamIndex));
          }
          int idx = std::stoi(n);
          atom.terms.push_back(Term::Param(idx));
          if (idx + 1 > next_param) next_param = idx + 1;
        } else if (p == '\'') {
          auto s = c.QuotedString();
          if (!s.ok()) return s.status();
          auto code = intern(*s);
          if (!code.ok()) return code.status();
          atom.terms.push_back(Term::Const(Value::StringCode(*code)));
        } else if (std::isdigit(static_cast<unsigned char>(p)) || p == '-' ||
                   p == '+') {
          bool is_double = false;
          std::string n = c.Number(&is_double);
          auto value = NumericLiteral(n, is_double);
          if (!value.ok()) return value.status();
          atom.terms.push_back(Term::Const(*value));
        } else {
          std::string ident = c.Ident();
          if (ident.empty()) {
            return Status::InvalidArgument("expected term in atom " + rel);
          }
          if (!IsVariableName(ident)) {
            return Status::InvalidArgument(
                "term '" + ident +
                "' must be a lowercase variable or quoted constant");
          }
          auto var = add_var(ident);
          if (!var.ok()) return var.status();
          atom.terms.push_back(Term::Var(*var));
        }
        if (c.Consume(',')) continue;
        if (c.Consume(')')) break;
        return Status::InvalidArgument("expected ',' or ')' in atom " + rel);
      }
    }
    DISSODB_RETURN_NOT_OK(q.AddAtom(std::move(atom)));
    if (c.Consume(',')) continue;
    break;
  }
  c.Consume('.');
  if (!c.AtEnd()) {
    return Status::InvalidArgument("trailing characters after query");
  }

  // Every head variable must occur in some atom (safe-range requirement).
  VarMask body = q.AllVarsMask();
  for (VarId h : q.head_vars()) {
    if (!MaskContains(body, h)) {
      return Status::InvalidArgument("head variable '" + q.var_name(h) +
                                     "' does not occur in the body");
    }
  }
  return q;
}

}  // namespace

Result<ConjunctiveQuery> ParseQuery(std::string_view text, StringPool* pool) {
  return ParseQueryImpl(text, [pool](const std::string& s) -> Result<int64_t> {
    if (pool == nullptr) {
      return Status::InvalidArgument("string constant requires a StringPool");
    }
    return pool->Intern(s);
  });
}

Result<ConjunctiveQuery> ParseQueryReadOnly(std::string_view text,
                                            const StringPool& pool) {
  // Unknown strings get distinct negative codes: they equal nothing in the
  // database (real codes are >= 0) and stay distinct from each other.
  auto unknown = std::make_shared<std::unordered_map<std::string, int64_t>>();
  return ParseQueryImpl(
      text, [&pool, unknown](const std::string& s) -> Result<int64_t> {
        int64_t code = pool.Find(s);
        if (code >= 0) return code;
        auto [it, inserted] = unknown->try_emplace(
            s, -2 - static_cast<int64_t>(unknown->size()));
        return it->second;
      });
}

}  // namespace dissodb
