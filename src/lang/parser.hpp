// Parser for SDL source programs. One pass from source text to Program:
// the parser pulls tokens from a Lexer cursor on demand (no token vector)
// and never looks more than one token past the current one, so a
// three-slot ring holds every token in flight. It builds the runtime's
// ProcessDef / Statement / Transaction structures directly. Constant
// fields of `init` tuples and top-level `spawn` arguments that are a lone
// literal or atom become Values without an expression tree; any other
// constant is parsed as an expression and folded.
//
// Errors: the first error the pass meets is reported. The lexer has
// scanned at most one token past the token being parsed, so a syntax error
// wins over a lexical error further on, unless that lexical error is in
// the one token the parser peeked at to find the syntax error.
//
// Grammar (EBNF, see examples/sdl/*.sdl for concrete programs):
//
//   program    = { procdef | initblock | topspawn } ;
//   procdef    = "process" IDENT [ "(" params ")" ]
//                { ("import"|"export") entry { "," entry } }
//                "behavior" stmtseq "end" ;
//   entry      = [ vars ":" ] pattern [ "where" expr ] ;
//   initblock  = "init" "{" { tuple [";"] } "}" ;
//   topspawn   = "spawn" IDENT "(" [ expr { "," expr } ] ")" [";"] ;
//   stmtseq    = stmt { ";" stmt } ;
//   stmt       = txn | "{" branches "}" | "*" "{" branches "}"
//              | "||" "{" branches "}" ;
//   branches   = branch { "|" branch } ;
//   branch     = txn { ";" stmt } ;
//   txn        = [ quant ] { conjunct "," } [ "when" expr ] tag [ actions ] ;
//   quant      = ("exists"|"forall") IDENT { "," IDENT } ":" ;
//   conjunct   = pattern [ "!" ]
//              | "not" "(" pattern { "," pattern } [ "when" expr ] ")" ;
//   tag        = "->" | "=>" | "^" ;
//   actions    = action { "," action } ;
//   action     = tuple | "let" IDENT "=" expr
//              | "spawn" IDENT "(" [ args ] ")" | "exit" | "abort" | "skip" ;
//   pattern    = "[" [ term { "," term } ] "]" ;
//   term       = "*" | IDENT(declared → variable) | expr ;
//   tuple      = "[" [ expr { "," expr } ] "]" ;
//
// Identifier rule: an identifier names a VARIABLE if it was declared
// (process parameter, quantifier list, view-entry variable list, or a
// previous `let`); otherwise it denotes an ATOM constant. This mirrors
// the paper's convention of Greek letters for quantified variables and
// lower-case words for constants (§2.1's note).
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lang/lexer.hpp"
#include "process/process.hpp"

namespace sdl::lang {

/// A parsed SDL program: process definitions, initial dataspace, initial
/// process society.
struct Program {
  std::vector<ProcessDef> defs;
  std::vector<Tuple> seeds;
  std::vector<std::pair<std::string, std::vector<Value>>> spawns;
};

/// Parses `source`; throws ParseError on malformed input. Definitions are
/// returned unfinalized (Runtime::define finalizes).
Program parse_program(const std::string& source);

/// Reads and parses a .sdl file. Throws std::runtime_error if unreadable.
Program parse_file(const std::string& path);

/// Parses one standalone transaction (the REPL entry point). `scope`
/// holds variable names declared by earlier inputs (process-free `let`s);
/// names this transaction declares are added to it. Throws ParseError.
Transaction parse_transaction(const std::string& source,
                              std::set<std::string>& scope);

}  // namespace sdl::lang
