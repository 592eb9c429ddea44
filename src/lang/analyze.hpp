// Static analysis of SDL programs — the "analysis" leg of the paper's
// goal ("design, analysis, understanding, and testing", §1/§4).
//
// The checks are conservative: they only fire when the program text
// *proves* the problem (literal tuple heads, literal arities), so every
// diagnostic is actionable and there are no false positives by
// construction — silence proves nothing (dynamic heads defeat the
// analysis), which is the usual contract for this kind of linter.
#pragma once

#include <string>
#include <vector>

#include "lang/parser.hpp"

namespace sdl::lang {

enum class Severity { Error, Warning, Note };

struct Diagnostic {
  Severity severity = Severity::Warning;
  std::string process;  // "" = program-level
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// Analyzes a parsed program. Checks:
///
///  * spawn of an undefined process type, or with the wrong arity  [error]
///  * assertion provably outside the process's export set (would be
///    silently dropped at runtime)                                [warning]
///  * delayed/consensus query over a (head, arity) bucket that no
///    assertion in the program and no init seed can ever populate —
///    the process may block forever                               [warning]
///  * variable read in a guard/action but never bindable in the
///    process (no parameter, pattern position, or let defines it) [warning]
///  * consensus transaction in a view-less process — its consensus
///    set spans every live process, so it fires only at global
///    readiness (often intended, occasionally a surprise)            [note]
std::vector<Diagnostic> analyze(const Program& program);

}  // namespace sdl::lang
