#include "lang/parser.hpp"

#include <algorithm>

#include <array>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace sdl::lang {
namespace {

// Transparent string hash: the scope set is probed with token spellings,
// which are views into the source.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

class Parser {
 public:
  explicit Parser(std::string_view source) : lexer_(source) { pull(); }

  Transaction parse_single_txn(std::set<std::string>& scope) {
    scope_.insert(scope.begin(), scope.end());
    Transaction txn = parse_txn();
    expect(Tok::End, "end of input after transaction");
    scope.insert(scope_.begin(), scope_.end());
    return txn;
  }

  /// `brackets` bounds the number of init tuples (each opens with '['),
  /// so the seed vector is sized once: growing it would move every tuple
  /// parsed so far, and a Tuple carries its fields inline.
  Program parse(std::size_t brackets) {
    Program program;
    program.seeds.reserve(brackets);
    while (!at(Tok::End)) {
      if (at(Tok::KwProcess)) {
        program.defs.push_back(parse_process());
      } else if (at(Tok::KwInit)) {
        parse_init(program);
      } else if (at(Tok::KwSpawn)) {
        parse_top_spawn(program);
      } else {
        fail("expected 'process', 'init' or 'spawn'");
      }
    }
    return program;
  }

 private:
  Lexer lexer_;
  // Tokens pulled so far, in a ring: the current token (always lexed),
  // at most one token of lookahead (at(kind, 1) is the deepest the grammar
  // looks), and the token take() last returned. Three slots are in use;
  // the fourth makes the slot arithmetic a mask.
  std::array<Token, 4> ring_;
  static constexpr std::size_t kRingMask = 3;
  std::size_t head_ = 0;      // slot of the current token
  std::size_t buffered_ = 0;  // lexed, untaken tokens: 1 or 2
  std::unordered_set<std::string, NameHash, std::equal_to<>> scope_;  // declared variable names
  // Atoms met so far, by spelling (views into the source): each distinct
  // spelling takes the process-wide intern table's lock once per parse.
  std::unordered_map<std::string_view, Atom> atoms_;
  std::string_view last_atom_spelling_;
  Atom last_atom_;
  std::vector<Value> args_;  // scratch for a top-level spawn's arguments

  // ---- token plumbing ----
  void pull() {
    lexer_.next(ring_[(head_ + buffered_) & kRingMask]);
    ++buffered_;
  }
  const Token& peek(std::size_t off = 0) {
    if (off >= buffered_) pull();
    return ring_[(head_ + off) & kRingMask];
  }
  bool at(Tok kind, std::size_t off = 0) { return peek(off).kind == kind; }
  // The returned token stays valid until the next take(). End is sticky.
  const Token& take() {
    const Token& t = ring_[head_];
    if (t.kind != Tok::End) {
      head_ = (head_ + 1) & kRingMask;
      if (--buffered_ == 0) pull();
    }
    return t;
  }
  const Token& expect(Tok kind, const char* what) {
    if (!at(kind)) {
      fail(std::string("expected ") + what + ", found " + tok_name(peek().kind));
    }
    return take();
  }
  bool accept(Tok kind) {
    if (at(kind)) {
      take();
      return true;
    }
    return false;
  }
  // Positioned at the current token, which is always lexed already, so
  // reporting a parse error never scans further into the source.
  [[noreturn]] void fail(const std::string& msg) const {
    const Token& t = ring_[head_];
    throw ParseError(msg, t.line, t.column);
  }

  bool declared(std::string_view name) const {
    return !scope_.empty() && scope_.find(name) != scope_.end();
  }

  // A run of one spelling (every [probe, k, v] of an init block) is
  // answered by the last lookup, without hashing the spelling again.
  Atom atom(std::string_view spelling) {
    if (spelling != last_atom_spelling_) {
      auto [it, fresh] = atoms_.try_emplace(spelling);
      if (fresh) it->second = Atom::intern(spelling);
      last_atom_spelling_ = spelling;
      last_atom_ = it->second;
    }
    return last_atom_;
  }

  // ---- top-level ----
  void parse_init(Program& program) {
    scope_.clear();  // top-level tuples are constant; no process scope
    expect(Tok::KwInit, "'init'");
    expect(Tok::LBrace, "'{'");
    while (!accept(Tok::RBrace)) {
      parse_const_tuple(program.seeds);
      accept(Tok::Semi);
    }
  }

  void parse_top_spawn(Program& program) {
    scope_.clear();  // spawn arguments are constants
    expect(Tok::KwSpawn, "'spawn'");
    const std::string_view name = expect(Tok::Ident, "process name").text;
    expect(Tok::LParen, "'('");
    args_.clear();
    if (!at(Tok::RParen)) {
      do {
        parse_const(args_);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");
    accept(Tok::Semi);
    // Collected in scratch, then copied once at their exact size.
    program.spawns.emplace_back(std::string(name),
                                std::vector<Value>(args_.begin(), args_.end()));
  }

  // Builds the tuple in place at the end of `out`: its fields move once,
  // from the parse into the vector's slot.
  void parse_const_tuple(std::vector<Tuple>& out) {
    expect(Tok::LBracket, "'['");
    Tuple::Fields fields;  // init tuples are mostly pairs and triples
    if (!at(Tok::RBracket)) {
      do {
        parse_const(fields);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RBracket, "']'");
    out.emplace_back(std::move(fields));
  }

  // One constant field of an init tuple or top-level spawn, constructed
  // in place at the end of `out`. A lone literal or atom followed by ',',
  // ']' or ')' is read straight to its Value; anything else is parsed as
  // an expression and folded by eval_const, which gives the same values
  // and the same errors.
  template <class Values>
  void parse_const(Values& out) {
    const Token& t = peek();
    const bool lone = at(Tok::Comma, 1) || at(Tok::RBracket, 1) || at(Tok::RParen, 1);
    if (lone) {
      switch (t.kind) {
        case Tok::Int: out.emplace_back(take().int_value); return;
        case Tok::Float: out.emplace_back(take().float_value); return;
        case Tok::Str: out.emplace_back(std::string(take().text)); return;
        case Tok::KwTrue: take(); out.emplace_back(true); return;
        case Tok::KwFalse: take(); out.emplace_back(false); return;
        case Tok::Ident:
          if (!declared(t.text)) {
            out.emplace_back(atom(take().text));
            return;
          }
          break;
        default: break;
      }
    }
    out.push_back(eval_const(parse_expr()));
  }

  Value eval_const(const ExprPtr& e) {
    SymbolTable st;
    e->resolve(st);
    if (st.size() != 0) {
      fail("constant expression expected (no variables allowed here)");
    }
    Env empty;
    try {
      return e->eval(empty, nullptr);
    } catch (const std::invalid_argument& ex) {
      fail(std::string("cannot evaluate constant: ") + ex.what());
    }
  }

  // ---- process definitions ----
  ProcessDef parse_process() {
    expect(Tok::KwProcess, "'process'");
    ProcessDef def;
    def.name = std::string(expect(Tok::Ident, "process name").text);
    scope_.clear();
    if (accept(Tok::LParen)) {
      if (!at(Tok::RParen)) {
        do {
          const std::string p(expect(Tok::Ident, "parameter name").text);
          def.params.push_back(p);
          scope_.insert(p);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
    }
    while (at(Tok::KwImport) || at(Tok::KwExport)) {
      const bool is_import = take().kind == Tok::KwImport;
      do {
        ViewEntry entry = parse_view_entry();
        if (is_import) {
          def.view.import(std::move(entry.pattern), std::move(entry.guard));
        } else {
          def.view.export_(std::move(entry.pattern), std::move(entry.guard));
        }
      } while (accept(Tok::Comma));
    }
    expect(Tok::KwBehavior, "'behavior'");
    def.body = parse_stmt_seq({Tok::KwEnd});
    expect(Tok::KwEnd, "'end'");
    return def;
  }

  ViewEntry parse_view_entry() {
    // [ vars ":" ] pattern [ "where" expr ]
    if (at(Tok::Ident)) {
      // Variable declaration list before ':'. Without the ':' the entry
      // is malformed, since a pattern starts with '['.
      const int line = peek().line;
      const int column = peek().column;
      std::vector<std::string_view> vars;
      while (at(Tok::Ident)) {
        vars.push_back(take().text);
        if (!accept(Tok::Comma)) break;
      }
      if (!accept(Tok::Colon)) {
        throw ParseError(std::string("expected '[', found ") + tok_name(Tok::Ident),
                         line, column);
      }
      for (const std::string_view v : vars) scope_.emplace(v);
    }
    ViewEntry entry;
    entry.pattern = parse_pattern();
    if (accept(Tok::KwWhere)) entry.guard = parse_expr();
    return entry;
  }

  // ---- statements ----
  StmtPtr parse_stmt_seq(std::initializer_list<Tok> stops) {
    auto stopped = [&] {
      for (Tok s : stops) {
        if (at(s)) return true;
      }
      return at(Tok::End);
    };
    std::vector<StmtPtr> stmts;
    while (!stopped()) {
      stmts.push_back(parse_stmt());
      if (!accept(Tok::Semi)) break;
      while (accept(Tok::Semi)) {
      }
    }
    if (!stopped()) fail("expected ';' between statements");
    return seq(std::move(stmts));
  }

  StmtPtr parse_stmt() {
    if (accept(Tok::LBrace)) return finish_branches(Statement::Kind::Selection);
    if (at(Tok::Star) && at(Tok::LBrace, 1)) {
      take();
      take();
      return finish_branches(Statement::Kind::Repetition);
    }
    if (at(Tok::PipePipe) && at(Tok::LBrace, 1)) {
      take();
      take();
      return finish_branches(Statement::Kind::Replication);
    }
    return stmt(parse_txn());
  }

  StmtPtr finish_branches(Statement::Kind kind) {
    std::vector<Branch> branches;
    do {
      Branch b;
      b.guard = parse_txn();
      std::vector<StmtPtr> rest;
      while (accept(Tok::Semi)) {
        if (at(Tok::Pipe) || at(Tok::RBrace)) break;
        rest.push_back(parse_stmt());
      }
      if (!rest.empty()) b.body = seq(std::move(rest));
      branches.push_back(std::move(b));
    } while (accept(Tok::Pipe));
    expect(Tok::RBrace, "'}'");
    auto s = std::make_shared<Statement>();
    s->kind = kind;
    s->branches = std::move(branches);
    return s;
  }

  // ---- transactions ----
  Transaction parse_txn() {
    Transaction txn;
    Query& q = txn.query;

    if (at(Tok::KwExists) || at(Tok::KwForall)) {
      q.quantifier =
          take().kind == Tok::KwExists ? Quantifier::Exists : Quantifier::ForAll;
      do {
        const std::string v(expect(Tok::Ident, "variable name").text);
        q.local_vars.push_back(v);
        scope_.insert(v);
      } while (accept(Tok::Comma));
      expect(Tok::Colon, "':'");
    }

    // Conjuncts: patterns and negations, comma-separated.
    while (at(Tok::LBracket) || (at(Tok::KwNot) && at(Tok::LParen, 1))) {
      if (at(Tok::LBracket)) {
        TuplePattern p = parse_pattern();
        if (accept(Tok::Bang)) p.set_retract(true);
        q.patterns.push_back(std::move(p));
      } else {
        take();  // not
        take();  // (
        NegatedGroup g;
        do {
          g.patterns.push_back(parse_pattern());
        } while (accept(Tok::Comma));
        if (accept(Tok::KwWhen)) g.guard = parse_expr();
        expect(Tok::RParen, "')'");
        q.negations.push_back(std::move(g));
      }
      if (!accept(Tok::Comma)) break;
      // A trailing comma may be followed by 'when' actions? No — comma
      // only continues conjuncts; 'when' follows without a comma.
      if (!(at(Tok::LBracket) || (at(Tok::KwNot) && at(Tok::LParen, 1)))) {
        fail("expected pattern or 'not(' after ','");
      }
    }

    if (accept(Tok::KwWhen)) q.guard = parse_expr();

    if (accept(Tok::Arrow)) {
      txn.type = TxnType::Immediate;
    } else if (accept(Tok::FatArrow)) {
      txn.type = TxnType::Delayed;
    } else if (accept(Tok::Caret)) {
      txn.type = TxnType::Consensus;
    } else {
      fail("expected transaction tag '->', '=>' or '^'");
    }

    // Actions, if any.
    if (action_ahead()) {
      do {
        parse_action(txn);
      } while (accept(Tok::Comma));
    }
    return txn;
  }

  bool action_ahead() {
    return at(Tok::LBracket) || at(Tok::KwLet) || at(Tok::KwSpawn) ||
           at(Tok::KwExit) || at(Tok::KwAbort) || at(Tok::KwSkip);
  }

  void parse_action(Transaction& txn) {
    if (at(Tok::LBracket)) {
      take();
      AssertTemplate a;
      if (!at(Tok::RBracket)) {
        do {
          a.fields.push_back(parse_expr());
        } while (accept(Tok::Comma));
      }
      expect(Tok::RBracket, "']'");
      txn.asserts.push_back(std::move(a));
      return;
    }
    if (accept(Tok::KwLet)) {
      LetAction let;
      let.name = std::string(expect(Tok::Ident, "let target").text);
      expect(Tok::Eq, "'='");
      let.value = parse_expr();
      scope_.insert(let.name);
      txn.lets.push_back(std::move(let));
      return;
    }
    if (accept(Tok::KwSpawn)) {
      SpawnAction s;
      s.process_type = std::string(expect(Tok::Ident, "process name").text);
      expect(Tok::LParen, "'('");
      if (!at(Tok::RParen)) {
        do {
          s.args.push_back(parse_expr());
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
      txn.spawns.push_back(std::move(s));
      return;
    }
    if (accept(Tok::KwExit)) {
      txn.control = ControlAction::Exit;
      return;
    }
    if (accept(Tok::KwAbort)) {
      txn.control = ControlAction::Abort;
      return;
    }
    if (accept(Tok::KwSkip)) return;  // explicit no-op
    fail("expected action");
  }

  // ---- patterns ----
  TuplePattern parse_pattern() {
    expect(Tok::LBracket, "'['");
    std::vector<Term> terms;
    if (!at(Tok::RBracket)) {
      do {
        terms.push_back(parse_term());
      } while (accept(Tok::Comma));
    }
    expect(Tok::RBracket, "']'");
    return TuplePattern(std::move(terms));
  }

  Term parse_term() {
    if (at(Tok::Star) && (at(Tok::Comma, 1) || at(Tok::RBracket, 1))) {
      take();
      return W();
    }
    // A bare declared identifier is a bindable variable term.
    if (at(Tok::Ident) && (at(Tok::Comma, 1) || at(Tok::RBracket, 1)) &&
        declared(peek().text)) {
      return V(std::string(take().text));
    }
    return E(parse_expr());
  }

  // ---- expressions (precedence climbing) ----
  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr e = parse_and();
    while (accept(Tok::KwOr)) e = lor(std::move(e), parse_and());
    return e;
  }
  ExprPtr parse_and() {
    ExprPtr e = parse_cmp();
    while (accept(Tok::KwAnd)) e = land(std::move(e), parse_cmp());
    return e;
  }
  ExprPtr parse_cmp() {
    ExprPtr e = parse_add();
    switch (peek().kind) {
      case Tok::Eq: take(); return eq(std::move(e), parse_add());
      case Tok::Ne: take(); return ne(std::move(e), parse_add());
      case Tok::Lt: take(); return lt(std::move(e), parse_add());
      case Tok::Le: take(); return le(std::move(e), parse_add());
      case Tok::Gt: take(); return gt(std::move(e), parse_add());
      case Tok::Ge: take(); return ge(std::move(e), parse_add());
      default: return e;
    }
  }
  ExprPtr parse_add() {
    ExprPtr e = parse_mul();
    for (;;) {
      if (accept(Tok::Plus)) {
        e = add(std::move(e), parse_mul());
      } else if (accept(Tok::Minus)) {
        e = sub(std::move(e), parse_mul());
      } else {
        return e;
      }
    }
  }
  ExprPtr parse_mul() {
    ExprPtr e = parse_unary();
    for (;;) {
      if (accept(Tok::Star)) {
        e = mul(std::move(e), parse_unary());
      } else if (accept(Tok::Slash)) {
        e = div_(std::move(e), parse_unary());
      } else if (accept(Tok::Percent)) {
        e = mod(std::move(e), parse_unary());
      } else {
        return e;
      }
    }
  }
  ExprPtr parse_unary() {
    if (accept(Tok::Minus)) return neg(parse_unary());
    if (accept(Tok::KwNot)) return lnot(parse_unary());
    return parse_pow();
  }
  ExprPtr parse_pow() {
    ExprPtr base = parse_primary();
    if (accept(Tok::StarStar)) return pow_(std::move(base), parse_unary());
    return base;
  }
  ExprPtr parse_primary() {
    switch (peek().kind) {
      case Tok::Int: return lit(Value(take().int_value));
      case Tok::Float: return lit(Value(take().float_value));
      case Tok::Str: return lit(Value(std::string(take().text)));
      case Tok::KwTrue: take(); return lit(Value(true));
      case Tok::KwFalse: take(); return lit(Value(false));
      case Tok::LParen: {
        take();
        ExprPtr e = parse_expr();
        expect(Tok::RParen, "')'");
        return e;
      }
      case Tok::Ident: {
        const std::string_view name = take().text;
        if (at(Tok::LParen)) {  // host function call
          take();
          std::vector<ExprPtr> args;
          if (!at(Tok::RParen)) {
            do {
              args.push_back(parse_expr());
            } while (accept(Tok::Comma));
          }
          expect(Tok::RParen, "')'");
          return call_fn(std::string(name), std::move(args));
        }
        if (declared(name)) return evar(std::string(name));
        return lit(Value(atom(name)));
      }
      default:
        fail(std::string("expected expression, found ") + tok_name(peek().kind));
    }
  }
};

}  // namespace

Program parse_program(const std::string& source) {
  Parser parser(source);
  return parser.parse(
      static_cast<std::size_t>(std::count(source.begin(), source.end(), '[')));
}

Transaction parse_transaction(const std::string& source,
                              std::set<std::string>& scope) {
  Parser parser(source);
  return parser.parse_single_txn(scope);
}

Program parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SDL source file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_program(buffer.str());
}

}  // namespace sdl::lang
