#include "lang/parser.h"

#include <cctype>
#include <sstream>

#include "lang/lexer.h"
#include "util/check.h"
#include "util/strings.h"

namespace decompeval::lang {

namespace {

const std::set<std::string>& builtin_types() {
  static const std::set<std::string> kBuiltins = {
      "void",    "char",    "short",   "int",      "long",    "float",
      "double",  "bool",    "_BOOL",   "_BYTE",    "_WORD",   "_DWORD",
      "_QWORD",  "_OWORD",  "__int8",  "__int16",  "__int32", "__int64",
      "size_t",  "ssize_t", "int8_t",  "int16_t",  "int32_t", "int64_t",
      "uint8_t", "uint16_t", "uint32_t", "uint64_t", "uintptr_t",
      "intptr_t", "wchar_t"};
  return kBuiltins;
}

const std::set<std::string>& type_qualifiers() {
  static const std::set<std::string> kQualifiers = {
      "const",  "volatile", "unsigned", "signed",
      "struct", "union",    "enum",     "restrict", "static", "register"};
  return kQualifiers;
}

bool is_calling_convention(const std::string& name) {
  return name == "__fastcall" || name == "__cdecl" || name == "__stdcall" ||
         name == "__thiscall" || name == "__usercall";
}

}  // namespace

bool is_type_like_name(const std::string& name,
                       const std::set<std::string>& typedefs) {
  if (builtin_types().count(name) > 0) return true;
  if (typedefs.count(name) > 0) return true;
  if (util::ends_with(name, "_t")) return true;
  if (util::starts_with(name, "__int")) return true;
  if (name.size() >= 2 && name[0] == '_' &&
      std::isupper(static_cast<unsigned char>(name[1])))
    return true;
  return false;
}

namespace {

// Nesting budget. Client source reaches this parser through the annotate
// op, and every pass over the tree it builds — lint and dataflow, the
// rewrite passes, the printer, the CFG builder, the interpreter and the
// AST destructor itself — recurses once per level, as does the parser.
// The smallest stack any of them runs on is a std::thread's default:
// glibc takes it from RLIMIT_STACK (8 MiB on stock Linux) or uses 2 MiB
// when that limit is unlimited. At kMaxNestingDepth = 256 (parser.h) the
// hungriest of them, measured with a painted thread stack over the
// deepest accepted parentheses, blocks, if/while nests, unary, cast,
// operator, assignment, ternary and postfix chains, used 0.22 MiB in an
// optimized build (the parser on parentheses; the deepest walk of a
// finished tree took 0.15 MiB) and 2.5 MiB under AddressSanitizer. So an
// optimized build fits even a 2 MiB stack nine times over and the
// sanitizer builds fit 8 MiB. On the input side, every variant of the
// four study snippets peaks at 15 levels and the functions of the
// clusterbench annotate_edits documents at 9 (measured by wrapping each
// body in more blocks until it stops parsing), so the budget leaves them
// over 240 levels to spare. Each else-if arm and each operand of a
// left-associative chain is one level, so the longest else-if ladder that
// parses has 252 arms and the longest && or + chain 254 terms
// (ParserNesting tests pin both).
class Parser {
 public:
  Parser(std::vector<Token> tokens, const ParseOptions& options)
      : tokens_(std::move(tokens)), typedefs_(options.typedef_names) {}

  Function parse() {
    Function fn;
    const SourceSpan start = peek().span;
    fn.return_type = parse_type_tokens();
    const Token& name_tok = expect_identifier("function name");
    fn.name = name_tok.text;
    fn.name_span = name_tok.span;
    expect_punct("(");
    if (!peek().is_punct(")")) {
      // `void` alone means an empty parameter list.
      if (peek().is_identifier("void") && peek(1).is_punct(")")) {
        advance();
      } else {
        for (;;) {
          fn.params.push_back(parse_parameter());
          if (peek().is_punct(",")) {
            advance();
            continue;
          }
          break;
        }
      }
    }
    expect_punct(")");
    fn.body = parse_block();
    fn.span = cover(start, prev_span());
    if (!peek().is(TokenKind::kEndOfFile))
      fail("trailing tokens after function body");
    return fn;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    fail_at(peek().span, message);
  }
  [[noreturn]] void fail_at(const SourceSpan& span,
                            const std::string& message) const {
    std::ostringstream os;
    os << "parse error at line " << span.line << ":" << span.col << " near '"
       << peek().text << "': " << message;
    throw ParseError(os.str(), span);
  }
  [[noreturn]] void fail_nesting(const SourceSpan& span) const {
    fail_at(span, "nesting deeper than " + std::to_string(kMaxNestingDepth) +
                      " levels");
  }

  // depth_ counts the statements and expressions open on the current
  // parse path; height_ is the height of the expression tree the latest
  // parse_* call returned. Each nested call claims a level, and each node
  // is checked as it is built, so depth_ + height never exceeds
  // kMaxNestingDepth: that bounds this parser's recursion and every
  // root-to-leaf path of the finished tree, including the left-leaning
  // ones that operator and postfix chains build without recursing.
  class Nested {
   public:
    explicit Nested(Parser& parser) : parser_(parser) {
      if (parser_.depth_ >= kMaxNestingDepth)
        parser_.fail_nesting(parser_.peek().span);
      ++parser_.depth_;
    }
    ~Nested() { --parser_.depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser& parser_;
  };

  // Records the height of a node built over children of height at most
  // `tallest_child`.
  void set_height(std::size_t tallest_child, const SourceSpan& span) {
    height_ = tallest_child + 1;
    if (depth_ + height_ > kMaxNestingDepth) fail_nesting(span);
  }

  const Token& peek(std::size_t lookahead = 0) const {
    const std::size_t i = pos_ + lookahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  /// Span of the most recently consumed token — the end anchor for any
  /// construct that just finished parsing.
  SourceSpan prev_span() const {
    return pos_ > 0 ? tokens_[pos_ - 1].span : tokens_[0].span;
  }
  void expect_punct(const char* spelling) {
    if (!peek().is_punct(spelling)) {
      fail(std::string("expected '") + spelling + "'");
    }
    advance();
  }
  const Token& expect_identifier(const char* what) {
    if (!peek().is(TokenKind::kIdentifier))
      fail(std::string("expected ") + what);
    return advance();
  }

  bool at_type_start() const {
    const Token& t = peek();
    if (!t.is(TokenKind::kIdentifier)) return false;
    if (type_qualifiers().count(t.text) > 0) return true;
    if (is_calling_convention(t.text)) return true;
    if (!is_type_like_name(t.text, typedefs_)) return false;
    // An identifier that is also a typedef could still be an expression
    // (`buffer->used`); require a declarator-looking continuation.
    const Token& n = peek(1);
    return n.is(TokenKind::kIdentifier) || n.is_punct("*") ||
           n.is_punct("(") ||
           (n.is(TokenKind::kIdentifier) && is_calling_convention(n.text));
  }

  // Consumes a run of type tokens (qualifiers, base type names, pointer
  // stars, calling conventions) and returns the canonical joined spelling.
  std::string parse_type_tokens() {
    std::vector<std::string> parts;
    bool saw_base = false;
    for (;;) {
      const Token& t = peek();
      if (t.is(TokenKind::kIdentifier)) {
        if (is_calling_convention(t.text)) {
          advance();  // calling conventions are dropped from the type text
          continue;
        }
        if (type_qualifiers().count(t.text) > 0) {
          parts.push_back(advance().text);
          continue;
        }
        if (!saw_base && is_type_like_name(t.text, typedefs_)) {
          parts.push_back(advance().text);
          saw_base = true;
          continue;
        }
        // Multi-keyword builtins: `unsigned long long`, `long int`...
        if (saw_base && (t.text == "int" || t.text == "long" ||
                         t.text == "char" || t.text == "short" ||
                         t.text == "double")) {
          parts.push_back(advance().text);
          continue;
        }
        break;
      }
      if (t.is_punct("*")) {
        parts.push_back(advance().text);
        continue;
      }
      break;
    }
    if (parts.empty()) fail("expected a type");
    return util::join(parts, " ");
  }

  Parameter parse_parameter() {
    Parameter p;
    const SourceSpan start = peek().span;
    p.type_text = parse_type_tokens();
    // Function-pointer declarator: type ( [conv] * name ) ( params ).
    if (peek().is_punct("(")) {
      advance();
      while (peek().is(TokenKind::kIdentifier) &&
             is_calling_convention(peek().text))
        advance();
      expect_punct("*");
      std::string stars = "*";
      while (peek().is_punct("*")) {
        advance();
        stars += "*";
      }
      if (peek().is(TokenKind::kIdentifier)) {
        const Token& name_tok = advance();
        p.name = name_tok.text;
        p.name_span = name_tok.span;
      }
      expect_punct(")");
      expect_punct("(");
      std::vector<std::string> arg_types;
      if (!peek().is_punct(")")) {
        for (;;) {
          arg_types.push_back(parse_type_tokens());
          // Parameter names inside the function-pointer type are allowed
          // and ignored: `int (*visit)(void *aux, node *n)`.
          if (peek().is(TokenKind::kIdentifier)) advance();
          if (peek().is_punct(",")) {
            advance();
            continue;
          }
          break;
        }
      }
      expect_punct(")");
      p.type_text += " (" + stars + ")(" + util::join(arg_types, ", ") + ")";
      p.span = cover(start, prev_span());
      return p;
    }
    if (peek().is(TokenKind::kIdentifier)) {
      const Token& name_tok = advance();
      p.name = name_tok.text;
      p.name_span = name_tok.span;
    }
    // Array suffix folds into the type text.
    while (peek().is_punct("[")) {
      advance();
      std::string dim;
      if (peek().is(TokenKind::kNumber)) dim = advance().text;
      expect_punct("]");
      p.type_text += "[" + dim + "]";
    }
    p.span = cover(start, prev_span());
    return p;
  }

  StmtPtr parse_block() {
    auto block = std::make_unique<Stmt>();
    block->kind = StmtKind::kBlock;
    const SourceSpan start = peek().span;
    expect_punct("{");
    while (!peek().is_punct("}")) {
      if (peek().is(TokenKind::kEndOfFile)) fail("unterminated block");
      block->body.push_back(parse_statement());
    }
    expect_punct("}");
    block->span = cover(start, prev_span());
    return block;
  }

  StmtPtr parse_statement() {
    const Nested level(*this);
    const Token& t = peek();
    if (t.is_punct("{")) return parse_block();
    if (t.is_punct(";")) {
      auto s = std::make_unique<Stmt>();
      s->kind = StmtKind::kEmpty;
      s->span = advance().span;
      return s;
    }
    if (t.is(TokenKind::kIdentifier)) {
      if (t.text == "if") return parse_if();
      if (t.text == "while") return parse_while();
      if (t.text == "do") return parse_do_while();
      if (t.text == "for") return parse_for();
      if (t.text == "return") return parse_return();
      if (t.text == "break" || t.text == "continue") {
        auto s = std::make_unique<Stmt>();
        s->kind = t.text == "break" ? StmtKind::kBreak : StmtKind::kContinue;
        const SourceSpan start = advance().span;
        expect_punct(";");
        s->span = cover(start, prev_span());
        return s;
      }
      if (at_type_start()) return parse_declaration();
    }
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kExpr;
    const SourceSpan start = t.span;
    s->exprs.push_back(parse_expression());
    expect_punct(";");
    s->span = cover(start, prev_span());
    return s;
  }

  StmtPtr parse_declaration() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kDecl;
    const SourceSpan start = peek().span;
    const std::string base_type = parse_type_tokens();
    for (;;) {
      Declarator d;
      const SourceSpan decl_start = peek().span;
      d.type_text = base_type;
      while (peek().is_punct("*")) {
        advance();
        d.type_text += " *";
      }
      const Token& name_tok = expect_identifier("declarator name");
      d.name = name_tok.text;
      d.name_span = name_tok.span;
      while (peek().is_punct("[")) {
        advance();
        std::string dim;
        if (peek().is(TokenKind::kNumber)) dim = advance().text;
        expect_punct("]");
        d.type_text += "[" + dim + "]";
      }
      if (peek().is_punct("=")) {
        advance();
        d.init = parse_assignment();
      }
      d.span = cover(decl_start, prev_span());
      s->decls.push_back(std::move(d));
      if (peek().is_punct(",")) {
        advance();
        continue;
      }
      break;
    }
    expect_punct(";");
    s->span = cover(start, prev_span());
    return s;
  }

  StmtPtr parse_if() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kIf;
    const SourceSpan start = advance().span;  // 'if'
    expect_punct("(");
    s->exprs.push_back(parse_expression());
    expect_punct(")");
    s->body.push_back(parse_statement());
    if (peek().is_identifier("else")) {
      advance();
      s->body.push_back(parse_statement());
    }
    s->span = cover(start, prev_span());
    return s;
  }

  StmtPtr parse_while() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kWhile;
    const SourceSpan start = advance().span;  // 'while'
    expect_punct("(");
    s->exprs.push_back(parse_expression());
    expect_punct(")");
    s->body.push_back(parse_statement());
    s->span = cover(start, prev_span());
    return s;
  }

  StmtPtr parse_do_while() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kDoWhile;
    const SourceSpan start = advance().span;  // 'do'
    s->body.push_back(parse_statement());
    if (!peek().is_identifier("while")) fail("expected 'while' after do-body");
    advance();
    expect_punct("(");
    s->exprs.push_back(parse_expression());
    expect_punct(")");
    expect_punct(";");
    s->span = cover(start, prev_span());
    return s;
  }

  StmtPtr parse_for() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kFor;
    const SourceSpan start = advance().span;  // 'for'
    expect_punct("(");
    // Init clause: declaration, expression, or empty.
    if (peek().is_punct(";")) {
      advance();
      s->exprs.push_back(nullptr);
    } else if (at_type_start()) {
      StmtPtr decl = parse_declaration();  // consumes the ';'
      s->decls = std::move(decl->decls);
      s->exprs.push_back(nullptr);
    } else {
      s->exprs.push_back(parse_expression());
      expect_punct(";");
    }
    // Condition.
    if (peek().is_punct(";")) {
      advance();
      s->exprs.push_back(nullptr);
    } else {
      s->exprs.push_back(parse_expression());
      expect_punct(";");
    }
    // Step.
    if (peek().is_punct(")")) {
      s->exprs.push_back(nullptr);
    } else {
      s->exprs.push_back(parse_expression());
    }
    expect_punct(")");
    s->body.push_back(parse_statement());
    s->span = cover(start, prev_span());
    return s;
  }

  StmtPtr parse_return() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kReturn;
    const SourceSpan start = advance().span;  // 'return'
    if (peek().is_punct(";")) {
      s->exprs.push_back(nullptr);
    } else {
      s->exprs.push_back(parse_expression());
    }
    expect_punct(";");
    s->span = cover(start, prev_span());
    return s;
  }

  // ---- Expressions ------------------------------------------------------
  //
  // Expression spans build bottom-up: leaves take their token's span, and
  // every interior node covers its operator token plus all children.

  ExprPtr make_expr(ExprKind kind, std::string text, SourceSpan span) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->text = std::move(text);
    e->span = span;
    return e;
  }

  ExprPtr parse_expression() { return parse_assignment(); }

  ExprPtr parse_assignment() {
    const Nested level(*this);
    ExprPtr lhs = parse_ternary();
    const std::size_t lhs_height = height_;
    const Token& t = peek();
    static const char* kAssignOps[] = {"=",  "+=", "-=", "*=",  "/=",  "%=",
                                       "&=", "|=", "^=", "<<=", ">>="};
    for (const char* op : kAssignOps) {
      if (t.is_punct(op)) {
        const SourceSpan op_span = advance().span;
        ExprPtr rhs = parse_assignment();  // right associative
        ExprPtr e = make_expr(ExprKind::kBinary, op,
                              cover(cover(lhs->span, op_span), rhs->span));
        set_height(std::max(lhs_height, height_), e->span);
        e->children.push_back(std::move(lhs));
        e->children.push_back(std::move(rhs));
        return e;
      }
    }
    return lhs;
  }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_binary(0);
    if (!peek().is_punct("?")) return cond;
    std::size_t tallest = height_;
    advance();  // '?'
    ExprPtr then_e = parse_expression();
    tallest = std::max(tallest, height_);
    expect_punct(":");
    ExprPtr else_e = parse_assignment();
    ExprPtr e = make_expr(ExprKind::kTernary, "?:",
                          cover(cond->span, else_e->span));
    set_height(std::max(tallest, height_), e->span);
    e->children.push_back(std::move(cond));
    e->children.push_back(std::move(then_e));
    e->children.push_back(std::move(else_e));
    return e;
  }

  // Precedence-climbing over binary operators.
  int binary_precedence(const Token& t) const {
    if (!t.is(TokenKind::kPunct)) return -1;
    const std::string& s = t.text;
    if (s == "||") return 0;
    if (s == "&&") return 1;
    if (s == "|") return 2;
    if (s == "^") return 3;
    if (s == "&") return 4;
    if (s == "==" || s == "!=") return 5;
    if (s == "<" || s == ">" || s == "<=" || s == ">=") return 6;
    if (s == "<<" || s == ">>") return 7;
    if (s == "+" || s == "-") return 8;
    if (s == "*" || s == "/" || s == "%") return 9;
    return -1;
  }

  ExprPtr parse_binary(int min_precedence) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      const int prec = binary_precedence(peek());
      if (prec < min_precedence) return lhs;
      const std::size_t lhs_height = height_;
      const std::string op = peek().text;
      advance();
      ExprPtr rhs;
      {
        // The pending node is an ancestor of its whole right operand.
        const Nested level(*this);
        rhs = parse_binary(prec + 1);
      }
      ExprPtr e = make_expr(ExprKind::kBinary, op,
                            cover(lhs->span, rhs->span));
      set_height(std::max(lhs_height, height_), e->span);
      e->children.push_back(std::move(lhs));
      e->children.push_back(std::move(rhs));
      lhs = std::move(e);
    }
  }

  // True if the parenthesized token run starting at `pos_` (which must be
  // at '(') spells a type, i.e. this is a cast.
  bool looks_like_cast() const {
    std::size_t i = pos_ + 1;  // past '('
    if (!tokens_[i].is(TokenKind::kIdentifier)) return false;
    const std::string& first = tokens_[i].text;
    const bool first_is_type = type_qualifiers().count(first) > 0 ||
                               is_type_like_name(first, typedefs_);
    if (!first_is_type) return false;
    int depth = 0;
    for (; i < tokens_.size(); ++i) {
      const Token& t = tokens_[i];
      if (t.is_punct("(")) {
        ++depth;  // function-pointer cast like (int (*)(void))
        continue;
      }
      if (t.is_punct(")")) {
        if (depth == 0) break;
        --depth;
        continue;
      }
      if (t.is(TokenKind::kIdentifier)) {
        const bool ok = type_qualifiers().count(t.text) > 0 ||
                        is_type_like_name(t.text, typedefs_) ||
                        t.text == "int" || t.text == "long" ||
                        t.text == "char" || t.text == "short" ||
                        t.text == "double" || is_calling_convention(t.text);
        if (!ok) return false;
        continue;
      }
      if (t.is_punct("*") || t.is_punct("[") || t.is_punct("]") ||
          t.is(TokenKind::kNumber))
        continue;
      // Argument separators inside a function-pointer cast's nested
      // parameter list, e.g. (int (*)(void *, int))fn.
      if (t.is_punct(",") && depth > 0) continue;
      return false;
    }
    if (i >= tokens_.size() || !tokens_[i].is_punct(")")) return false;
    // A cast must be followed by something that can start a unary
    // expression.
    const Token& next = tokens_[i + 1 < tokens_.size() ? i + 1 : i];
    return next.is(TokenKind::kIdentifier) || next.is(TokenKind::kNumber) ||
           next.is(TokenKind::kString) || next.is(TokenKind::kCharLiteral) ||
           next.is_punct("(") || next.is_punct("*") || next.is_punct("&") ||
           next.is_punct("-") || next.is_punct("+") || next.is_punct("!") ||
           next.is_punct("~") || next.is_punct("++") || next.is_punct("--");
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    static const char* kPrefixOps[] = {"!", "~", "-", "+", "*", "&", "++", "--"};
    for (const char* op : kPrefixOps) {
      if (t.is_punct(op)) {
        const Nested level(*this);
        const SourceSpan op_span = advance().span;
        ExprPtr operand = parse_unary();
        ExprPtr e =
            make_expr(ExprKind::kUnary, op, cover(op_span, operand->span));
        set_height(height_, e->span);
        e->children.push_back(std::move(operand));
        return e;
      }
    }
    if (t.is_identifier("sizeof")) {
      const Nested level(*this);
      const SourceSpan op_span = advance().span;
      ExprPtr e = make_expr(ExprKind::kUnary, "sizeof", op_span);
      if (peek().is_punct("(") && looks_like_cast()) {
        const SourceSpan open_span = advance().span;
        std::string type_text = parse_type_tokens();
        expect_punct(")");
        ExprPtr type_ref = make_expr(ExprKind::kIdentifier,
                                     std::move(type_text),
                                     cover(open_span, prev_span()));
        height_ = 1;
        e->children.push_back(std::move(type_ref));
      } else {
        e->children.push_back(parse_unary());
      }
      e->span = cover(op_span, e->children[0]->span);
      set_height(height_, e->span);
      return e;
    }
    if (t.is_punct("(") && looks_like_cast()) {
      const Nested level(*this);
      const SourceSpan open_span = advance().span;  // '('
      ExprPtr e = make_expr(ExprKind::kCast, "", open_span);
      e->type_text = parse_cast_type();
      expect_punct(")");
      e->children.push_back(parse_unary());
      e->span = cover(open_span, e->children[0]->span);
      set_height(height_, e->span);
      return e;
    }
    return parse_postfix();
  }

  // Parses the type inside a cast, including function-pointer shapes.
  std::string parse_cast_type() {
    std::string text = parse_type_tokens();
    if (peek().is_punct("(")) {
      advance();
      std::string inner;
      while (peek().is_punct("*") ||
             (peek().is(TokenKind::kIdentifier) &&
              is_calling_convention(peek().text))) {
        if (peek().is_punct("*")) inner += "*";
        advance();
      }
      expect_punct(")");
      expect_punct("(");
      std::vector<std::string> args;
      if (!peek().is_punct(")")) {
        for (;;) {
          args.push_back(parse_type_tokens());
          if (peek().is_punct(",")) {
            advance();
            continue;
          }
          break;
        }
      }
      expect_punct(")");
      text += " (" + inner + ")(" + util::join(args, ", ") + ")";
    }
    return text;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    for (;;) {
      const Token& t = peek();
      std::size_t tallest = height_;
      if (t.is_punct("(")) {
        advance();
        ExprPtr call = make_expr(ExprKind::kCall, "", e->span);
        call->children.push_back(std::move(e));
        if (!peek().is_punct(")")) {
          for (;;) {
            call->children.push_back(parse_assignment());
            tallest = std::max(tallest, height_);
            if (peek().is_punct(",")) {
              advance();
              continue;
            }
            break;
          }
        }
        expect_punct(")");
        call->span = cover(call->span, prev_span());
        set_height(tallest, call->span);
        e = std::move(call);
        continue;
      }
      if (t.is_punct("[")) {
        advance();
        ExprPtr idx = make_expr(ExprKind::kIndex, "", e->span);
        idx->children.push_back(std::move(e));
        idx->children.push_back(parse_expression());
        expect_punct("]");
        idx->span = cover(idx->span, prev_span());
        set_height(std::max(tallest, height_), idx->span);
        e = std::move(idx);
        continue;
      }
      if (t.is_punct(".") || t.is_punct("->")) {
        const std::string op = t.text;
        advance();
        ExprPtr mem = make_expr(ExprKind::kMember, op, e->span);
        const Token& member_tok = expect_identifier("member name");
        mem->member_name = member_tok.text;
        mem->span = cover(mem->span, member_tok.span);
        set_height(tallest, mem->span);
        mem->children.push_back(std::move(e));
        e = std::move(mem);
        continue;
      }
      if (t.is_punct("++") || t.is_punct("--")) {
        const std::string op = "post" + t.text;
        const SourceSpan op_span = advance().span;
        ExprPtr post =
            make_expr(ExprKind::kUnary, op, cover(e->span, op_span));
        set_height(tallest, post->span);
        post->children.push_back(std::move(e));
        e = std::move(post);
        continue;
      }
      return e;
    }
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    height_ = 1;  // a leaf; a parenthesized expression sets its own
    switch (t.kind) {
      case TokenKind::kIdentifier:
        return make_expr(ExprKind::kIdentifier, advance().text, t.span);
      case TokenKind::kNumber:
        return make_expr(ExprKind::kNumber, advance().text, t.span);
      case TokenKind::kString:
        return make_expr(ExprKind::kString, advance().text, t.span);
      case TokenKind::kCharLiteral:
        return make_expr(ExprKind::kCharLiteral, advance().text, t.span);
      case TokenKind::kPunct:
        if (t.is_punct("(")) {
          advance();
          ExprPtr e = parse_expression();
          expect_punct(")");
          return e;
        }
        break;
      case TokenKind::kEndOfFile:
        break;
    }
    fail("expected an expression");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::set<std::string> typedefs_;
  std::size_t depth_ = 0;
  std::size_t height_ = 0;
};

}  // namespace

Function parse_function(std::string_view source, const ParseOptions& options) {
  Parser parser(lex(source), options);
  return parser.parse();
}

ExprPtr clone(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->text = e.text;
  out->member_name = e.member_name;
  out->type_text = e.type_text;
  out->span = e.span;
  out->children.reserve(e.children.size());
  for (const auto& c : e.children)
    out->children.push_back(c ? clone(*c) : nullptr);
  return out;
}

StmtPtr clone(const Stmt& s) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  out->span = s.span;
  out->body.reserve(s.body.size());
  for (const auto& b : s.body) out->body.push_back(b ? clone(*b) : nullptr);
  out->exprs.reserve(s.exprs.size());
  for (const auto& e : s.exprs) out->exprs.push_back(e ? clone(*e) : nullptr);
  out->decls.reserve(s.decls.size());
  for (const auto& d : s.decls) {
    Declarator nd;
    nd.type_text = d.type_text;
    nd.name = d.name;
    nd.span = d.span;
    nd.name_span = d.name_span;
    nd.init = d.init ? clone(*d.init) : nullptr;
    out->decls.push_back(std::move(nd));
  }
  return out;
}

}  // namespace decompeval::lang
