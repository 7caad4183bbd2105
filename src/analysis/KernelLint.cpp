//===- KernelLint.cpp - Structural linter for emitted kernels -------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"

#include "codegen/CppCodegen.h"

#include <cctype>
#include <cstdlib>

using namespace an5d;

namespace {

/// 1-based line of byte offset \p Pos in \p Text.
int lineOf(const std::string &Text, size_t Pos) {
  int Line = 1;
  for (size_t I = 0; I < Pos && I < Text.size(); ++I)
    if (Text[I] == '\n')
      ++Line;
  return Line;
}

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Finds \p Token in \p Text at a non-identifier boundary on both sides.
size_t findToken(const std::string &Text, const std::string &Token,
                 size_t From = 0) {
  for (size_t Pos = Text.find(Token, From); Pos != std::string::npos;
       Pos = Text.find(Token, Pos + 1)) {
    const bool LeftOk = Pos == 0 || !isIdentChar(Text[Pos - 1]);
    const size_t End = Pos + Token.size();
    const bool RightOk = End >= Text.size() || !isIdentChar(Text[End]);
    if (LeftOk && RightOk)
      return Pos;
  }
  return std::string::npos;
}

void addFinding(LintReport &Report, LintRule Rule, int Line,
                std::string Subject, std::string Message) {
  LintFinding F;
  F.Rule = Rule;
  F.Line = Line;
  F.Subject = std::move(Subject);
  F.Message = std::move(Message);
  Report.Findings.push_back(std::move(F));
}

/// The `an5d_*` symbols every kernel library must define
/// (runtime/NativeExecutor.h, CppKernelAbiVersion contract).
const char *const RequiredAbiSymbols[] = {
    "an5d_abi_version", "an5d_stencil_name", "an5d_num_dims",
    "an5d_radius",      "an5d_elem_size",    "an5d_max_threads",
    "an5d_set_threads", "an5d_run",
};

/// Process-control and allocation-free-stdio calls that have no place in
/// any generated TU.
const char *const BannedEverywhere[] = {"system", "fork", "popen", "rand",
                                        "srand"};

/// Additionally banned inside a dlopen'd kernel library: nothing a timed,
/// host-loaded shared object may do to the host process or its stdio.
const char *const BannedInKernelLibrary[] = {"exit",   "abort", "printf",
                                             "fprintf", "puts"};

void checkBannedCall(LintReport &Report, const std::string &Stripped,
                     const std::string &Name, LintTarget Target) {
  for (size_t Pos = findToken(Stripped, Name); Pos != std::string::npos;
       Pos = findToken(Stripped, Name, Pos + 1)) {
    // Only flag calls: the next non-space character must open the
    // argument list.
    size_t After = Pos + Name.size();
    while (After < Stripped.size() &&
           std::isspace(static_cast<unsigned char>(Stripped[After])))
      ++After;
    if (After >= Stripped.size() || Stripped[After] != '(')
      continue;
    addFinding(Report, LintRule::BannedCall, lineOf(Stripped, Pos), Name,
               "call to '" + Name + "' is banned in a " +
                   lintTargetName(Target) + " translation unit");
  }
}

/// Scans \p Stripped for floating-point literals and enforces the
/// exact-literal policy: float TUs suffix every FP literal with f/F,
/// double TUs suffix none.
void checkFloatLiterals(LintReport &Report, const std::string &Stripped,
                        ScalarType ElemType) {
  for (size_t I = 0; I < Stripped.size();) {
    const char C = Stripped[I];
    const bool StartsNumber =
        std::isdigit(static_cast<unsigned char>(C)) ||
        (C == '.' && I + 1 < Stripped.size() &&
         std::isdigit(static_cast<unsigned char>(Stripped[I + 1])));
    const bool Boundary =
        I == 0 || (!isIdentChar(Stripped[I - 1]) && Stripped[I - 1] != '.');
    if (!StartsNumber || !Boundary) {
      ++I;
      continue;
    }
    const size_t Begin = I;
    // Hexadecimal (and binary) literals are integers here; skip them.
    if (C == '0' && I + 1 < Stripped.size() &&
        (Stripped[I + 1] == 'x' || Stripped[I + 1] == 'X' ||
         Stripped[I + 1] == 'b' || Stripped[I + 1] == 'B')) {
      I += 2;
      while (I < Stripped.size() && (isIdentChar(Stripped[I])))
        ++I;
      continue;
    }
    bool SawDot = false, SawExponent = false;
    while (I < Stripped.size()) {
      const char D = Stripped[I];
      if (std::isdigit(static_cast<unsigned char>(D)) || D == '\'') {
        ++I;
      } else if (D == '.' && !SawDot && !SawExponent) {
        SawDot = true;
        ++I;
      } else if ((D == 'e' || D == 'E') && !SawExponent) {
        SawExponent = true;
        ++I;
        if (I < Stripped.size() &&
            (Stripped[I] == '+' || Stripped[I] == '-'))
          ++I;
      } else {
        break;
      }
    }
    std::string Suffix;
    while (I < Stripped.size() && std::isalpha(static_cast<unsigned char>(
                                      Stripped[I])))
      Suffix += Stripped[I++];
    if (!SawDot && !SawExponent)
      continue; // Integer literal.
    const bool HasF = Suffix.find('f') != std::string::npos ||
                      Suffix.find('F') != std::string::npos;
    const std::string Literal =
        Stripped.substr(Begin, I - Begin);
    if (ElemType == ScalarType::Float && !HasF)
      addFinding(Report, LintRule::FloatLiteralPolicy, lineOf(Stripped, Begin),
                 Literal,
                 "unsuffixed literal '" + Literal +
                     "' in a float translation unit evaluates in double "
                     "precision, breaking the bit-for-bit contract");
    else if (ElemType == ScalarType::Double && HasF)
      addFinding(Report, LintRule::FloatLiteralPolicy, lineOf(Stripped, Begin),
                 Literal,
                 "f-suffixed literal '" + Literal +
                     "' in a double translation unit rounds to float "
                     "precision");
  }
}

/// Checks that the first definition of \p Function restrict-qualifies at
/// least \p MinCount pointer parameters.
void checkRestrict(LintReport &Report, const std::string &Stripped,
                   const std::string &Function, int MinCount) {
  const size_t Pos = findToken(Stripped, Function);
  if (Pos == std::string::npos)
    return; // A missing invocation body is reported elsewhere.
  const size_t Open = Stripped.find('(', Pos);
  const size_t Close = Open == std::string::npos
                           ? std::string::npos
                           : Stripped.find(')', Open);
  if (Open == std::string::npos || Close == std::string::npos)
    return;
  const std::string Params = Stripped.substr(Open, Close - Open);
  int Count = 0;
  for (size_t P = Params.find("__restrict__"); P != std::string::npos;
       P = Params.find("__restrict__", P + 1))
    ++Count;
  if (Count < MinCount)
    addFinding(Report, LintRule::MissingRestrict, lineOf(Stripped, Pos),
               Function,
               "'" + Function + "' must __restrict__-qualify its " +
                   std::to_string(MinCount) +
                   " buffer pointers (a time step never reads and writes "
                   "the same buffer)");
}

/// True when the declaration \p Decl (one statement, without its `;`)
/// names an object nobody can write: constexpr, or const-qualified at the
/// top level (a `const` after the last `*`, or anywhere when there is no
/// pointer declarator).
bool declaresImmutableObject(const std::string &Decl) {
  if (findToken(Decl, "constexpr") != std::string::npos)
    return true;
  const size_t Star = Decl.rfind('*');
  return findToken(Decl, "const", Star == std::string::npos ? 0 : Star) !=
         std::string::npos;
}

/// The declared name of \p Decl: the last identifier before its
/// initializer or array bound.
std::string declaredName(const std::string &Decl) {
  size_t End = Decl.find_first_of("=[{");
  if (End == std::string::npos)
    End = Decl.size();
  while (End > 0 && !isIdentChar(Decl[End - 1]))
    --End;
  size_t Begin = End;
  while (Begin > 0 && isIdentChar(Decl[Begin - 1]))
    --Begin;
  return Decl.substr(Begin, End - Begin);
}

/// Flags every variable of static storage duration a kernel library could
/// write: namespace-scope objects and function-local statics that are not
/// const. Every caller of the loaded kernel shares such state, so it
/// would serialize (or race) concurrent `an5d_run` calls. The scan splits
/// the TU into statements at `;`, `{` and `}`; the braces of an
/// `extern "C"` block open no scope, and preprocessor lines are skipped.
void checkMutableStatics(LintReport &Report, std::string Text) {
  for (size_t LineBegin = 0; LineBegin < Text.size();) {
    size_t LineEnd = Text.find('\n', LineBegin);
    if (LineEnd == std::string::npos)
      LineEnd = Text.size();
    const size_t First = Text.find_first_not_of(" \t", LineBegin);
    if (First < LineEnd && Text[First] == '#')
      Text.replace(First, LineEnd - First, LineEnd - First, ' ');
    LineBegin = LineEnd + 1;
  }

  // One declaration statement (without its `;`) at \p Begin..End.
  auto CheckStatement = [&](size_t Begin, size_t End, bool FileScope) {
    const std::string Decl = Text.substr(Begin, End - Begin);
    const size_t Lead = Decl.find_first_not_of(" \t\n");
    if (Lead == std::string::npos)
      return;
    if (!FileScope && findToken(Decl, "static") != Lead)
      return; // an ordinary local or an expression statement
    for (const char *Keyword : {"using", "typedef", "template", "namespace",
                                "struct", "class", "enum", "extern"})
      if (findToken(Decl, Keyword) == Lead)
        return;
    // A function declaration: its parameter list precedes any initializer.
    const size_t Paren = Decl.find('(');
    if (Paren != std::string::npos && Paren < Decl.find('='))
      return;
    if (declaresImmutableObject(Decl))
      return;
    const std::string Name = declaredName(Decl);
    addFinding(Report, LintRule::MutableStaticState,
               lineOf(Text, Begin + Lead), Name,
               "kernel library declares mutable static '" + Name +
                   "'; every caller of the loaded kernel shares it, so "
                   "concurrent an5d_run calls would race on it");
  };

  // True when the `{` at \p Brace opens an `extern "C"` block: the token
  // before it is `extern` (the stripper blanked the "C").
  auto OpensLinkageBlock = [&](size_t Brace) {
    const size_t Last = Text.find_last_not_of(" \t\n", Brace);
    if (Last == std::string::npos || Last < 5)
      return false;
    const size_t Begin = Last - 5;
    return Text.compare(Begin, 6, "extern") == 0 &&
           (Begin == 0 || !isIdentChar(Text[Begin - 1]));
  };

  std::vector<bool> OpensScope; // one entry per open brace
  int Depth = 0;
  size_t StatementBegin = 0;
  for (size_t I = 0; I < Text.size(); ++I) {
    const char C = Text[I];
    if (C == '{') {
      const bool Scope = I == 0 || !OpensLinkageBlock(I - 1);
      OpensScope.push_back(Scope);
      if (Scope)
        ++Depth;
    } else if (C == '}') {
      if (!OpensScope.empty()) {
        if (OpensScope.back())
          --Depth;
        OpensScope.pop_back();
      }
    } else if (C == ';') {
      CheckStatement(StatementBegin, I, Depth == 0);
    } else {
      continue;
    }
    StatementBegin = I + 1;
  }
}

} // namespace

const char *an5d::lintTargetName(LintTarget Target) {
  switch (Target) {
  case LintTarget::KernelLibrary:
    return "kernel-library";
  case LintTarget::CheckProgram:
    return "check-program";
  case LintTarget::CudaKernel:
    return "cuda-kernel";
  }
  return "unknown";
}

const char *an5d::lintRuleName(LintRule Rule) {
  switch (Rule) {
  case LintRule::MissingSymbol:
    return "missing-symbol";
  case LintRule::MissingExternC:
    return "missing-extern-c";
  case LintRule::AbiVersionMismatch:
    return "abi-version-mismatch";
  case LintRule::FloatLiteralPolicy:
    return "float-literal-policy";
  case LintRule::BannedCall:
    return "banned-call";
  case LintRule::MissingRestrict:
    return "missing-restrict";
  case LintRule::MissingKernelQualifier:
    return "missing-kernel-qualifier";
  case LintRule::MutableStaticState:
    return "mutable-static-state";
  }
  return "unknown";
}

std::string LintFinding::toString() const {
  std::string S = "[";
  S += lintRuleName(Rule);
  S += "]";
  if (Line > 0)
    S += " line " + std::to_string(Line);
  S += ": ";
  S += Message;
  return S;
}

Diagnostic LintFinding::toDiagnostic() const {
  Diagnostic D;
  D.Kind = DiagnosticKind::Error;
  D.Message = toString();
  return D;
}

std::string LintReport::toString() const {
  if (Findings.empty())
    return "lint clean";
  std::string S;
  for (const LintFinding &F : Findings) {
    if (!S.empty())
      S += "\n";
    S += F.toString();
  }
  return S;
}

void LintReport::render(DiagnosticEngine &Diags) const {
  for (const LintFinding &F : Findings)
    Diags.report(F.toDiagnostic());
}

std::string an5d::stripCommentsAndStrings(const std::string &Source) {
  std::string Out = Source;
  enum State { Code, LineComment, BlockComment, String, Char } S = Code;

  auto IsIdentChar = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9') || C == '_';
  };
  // True when the quote at \p I opens a raw-string literal: an R
  // immediately before it, optionally behind a u8/u/U/L encoding prefix,
  // and no identifier character in front of the whole prefix (so FOOR"x"
  // stays an ordinary string after an identifier).
  auto IsRawStringQuote = [&](size_t I) {
    if (I == 0 || Out[I - 1] != 'R')
      return false;
    size_t P = I - 1; // the R
    if (P >= 2 && Out[P - 2] == 'u' && Out[P - 1] == '8')
      P -= 2;
    else if (P >= 1 &&
             (Out[P - 1] == 'u' || Out[P - 1] == 'U' || Out[P - 1] == 'L'))
      P -= 1;
    return P == 0 || !IsIdentChar(Out[P - 1]);
  };

  for (size_t I = 0; I < Out.size(); ++I) {
    const char C = Out[I];
    const char Next = I + 1 < Out.size() ? Out[I + 1] : '\0';
    switch (S) {
    case Code:
      if (C == '/' && Next == '/') {
        S = LineComment;
        Out[I] = ' ';
      } else if (C == '/' && Next == '*') {
        S = BlockComment;
        Out[I] = ' ';
      } else if (C == '"') {
        // Raw strings have no escapes and may span lines and contain
        // quotes; blank them whole up to their )delim" terminator (the
        // delimiter is at most 16 characters by the standard — longer
        // means this is not a raw string after all).
        size_t Paren;
        if (IsRawStringQuote(I) &&
            (Paren = Out.find('(', I + 1)) != std::string::npos &&
            Paren - I - 1 <= 16) {
          const std::string Terminator =
              ")" + Out.substr(I + 1, Paren - I - 1) + "\"";
          size_t Close = Out.find(Terminator, Paren + 1);
          size_t End = Close == std::string::npos
                           ? Out.size()
                           : Close + Terminator.size();
          for (size_t J = I; J < End; ++J)
            if (Out[J] != '\n')
              Out[J] = ' ';
          I = End - 1;
        } else {
          S = String;
          Out[I] = ' ';
        }
      } else if (C == '\'') {
        S = Char;
        Out[I] = ' ';
      }
      break;
    case LineComment:
      if (C == '\\' && (Next == '\n' ||
                        (Next == '\r' && I + 2 < Out.size() &&
                         Out[I + 2] == '\n'))) {
        // Backslash-newline splices the next physical line into the
        // comment; keep the newline itself for line accounting.
        Out[I] = ' ';
        I += Next == '\r' ? 2 : 1;
      } else if (C == '\n')
        S = Code;
      else
        Out[I] = ' ';
      break;
    case BlockComment:
      if (C == '*' && Next == '/') {
        Out[I] = ' ';
        Out[I + 1] = ' ';
        ++I;
        S = Code;
      } else if (C != '\n') {
        Out[I] = ' ';
      }
      break;
    case String:
      if (C == '\\' && Next != '\0') {
        Out[I] = ' ';
        if (Next != '\n')
          Out[I + 1] = ' ';
        ++I;
      } else if (C == '"') {
        Out[I] = ' ';
        S = Code;
      } else if (C != '\n') {
        Out[I] = ' ';
      }
      break;
    case Char:
      if (C == '\\' && Next != '\0') {
        Out[I] = ' ';
        if (Next != '\n')
          Out[I + 1] = ' ';
        ++I;
      } else if (C == '\'') {
        Out[I] = ' ';
        S = Code;
      } else if (C != '\n') {
        Out[I] = ' ';
      }
      break;
    }
  }
  return Out;
}

LintReport an5d::lintTranslationUnit(const std::string &Source,
                                     LintTarget Target, ScalarType ElemType) {
  LintReport Report;
  const std::string Stripped = stripCommentsAndStrings(Source);

  // extern "C" linkage: matched against the raw source because the "C"
  // string literal is blanked by the stripper.
  const bool HasExternC = Source.find("extern \"C\"") != std::string::npos;

  if (Target == LintTarget::KernelLibrary) {
    if (!HasExternC)
      addFinding(Report, LintRule::MissingExternC, 0, "extern \"C\"",
                 "kernel library never opens an extern \"C\" block; the "
                 "loader resolves unmangled an5d_* symbols");
    for (const char *Symbol : RequiredAbiSymbols)
      if (findToken(Stripped, Symbol) == std::string::npos)
        addFinding(Report, LintRule::MissingSymbol, 0, Symbol,
                   std::string("required ABI symbol '") + Symbol +
                       "' is not defined");

    // an5d_abi_version must return the version the loader checks.
    const size_t VersionPos = findToken(Stripped, "an5d_abi_version");
    if (VersionPos != std::string::npos) {
      const size_t ReturnPos = Stripped.find("return", VersionPos);
      bool Matches = false;
      if (ReturnPos != std::string::npos) {
        const char *P = Stripped.c_str() + ReturnPos + 6;
        char *End = nullptr;
        const long Version = std::strtol(P, &End, 10);
        Matches = End != P && Version == CppKernelAbiVersion;
      }
      if (!Matches)
        addFinding(Report, LintRule::AbiVersionMismatch,
                   lineOf(Stripped, VersionPos), "an5d_abi_version",
                   "an5d_abi_version does not return " +
                       std::to_string(CppKernelAbiVersion) +
                       " (the version runtime/NativeExecutor.h loads)");
    }
    for (const char *Name : BannedInKernelLibrary)
      checkBannedCall(Report, Stripped, Name, Target);
    checkRestrict(Report, Stripped, "runInvocation", 2);
    checkMutableStatics(Report, Stripped);
  }

  if (Target == LintTarget::CheckProgram) {
    if (findToken(Stripped, "main") == std::string::npos)
      addFinding(Report, LintRule::MissingSymbol, 0, "main",
                 "check program has no main function");
    checkRestrict(Report, Stripped, "runInvocation", 2);
  }

  if (Target == LintTarget::CudaKernel) {
    if (!HasExternC)
      addFinding(Report, LintRule::MissingExternC, 0, "extern \"C\"",
                 "CUDA kernel never opens an extern \"C\" block; the host "
                 "launcher resolves the unmangled kernel name");
    if (findToken(Stripped, "__global__") == std::string::npos)
      addFinding(Report, LintRule::MissingKernelQualifier, 0, "__global__",
                 "CUDA translation unit defines no __global__ kernel");
    const size_t RestrictPos = Stripped.find("__restrict__");
    if (RestrictPos == std::string::npos)
      addFinding(Report, LintRule::MissingRestrict, 0, "__restrict__",
                 "CUDA kernel parameters must __restrict__-qualify the "
                 "input/output buffers");
  }

  for (const char *Name : BannedEverywhere)
    checkBannedCall(Report, Stripped, Name, Target);
  checkFloatLiterals(Report, Stripped, ElemType);

  return Report;
}
