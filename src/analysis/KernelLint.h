//===- KernelLint.h - Structural linter for emitted kernels -----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structural linter over the translation units the code generators
/// emit (self-check programs, OpenMP kernel libraries, CUDA kernels),
/// enforcing the contracts the loaders and the bit-for-bit equivalence
/// suite rely on:
///
///  * every `an5d_*` ABI symbol a kernel library must export is present,
///    inside an `extern "C"` block, and `an5d_abi_version` returns the
///    version the loader checks (runtime/NativeExecutor.h);
///  * a kernel library declares no mutable variable of static storage
///    duration, so concurrent `an5d_run` calls share nothing;
///  * the exact-float-literal policy: a float TU suffixes every
///    floating-point literal with `f` (one double-rounded literal breaks
///    the bit-for-bit promise), and a double TU carries no `f` suffix;
///  * no banned calls — process control and stdio have no place in a
///    shared object a tuner dlopens and times;
///  * the buffer pointers of the blocked invocation are
///    restrict-qualified (a double-buffered time step never reads and
///    writes the same buffer; the qualifier hands that fact to the
///    optimizer);
///  * CUDA TUs declare an `extern "C" __global__` kernel.
///
/// The linter parses nothing: it strips comments and string literals
/// (preserving line structure) and matches tokens, which is exactly as
/// strong as the emitters' determinism allows and keeps it dependency-
/// free. It runs over all goldens in the test suite, over every builtin's
/// kernel library (the one source all JIT kernels of a stencil compile)
/// and over the sources an5dc --lint renders.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_KERNELLINT_H
#define AN5D_ANALYSIS_KERNELLINT_H

#include "ir/StencilProgram.h"
#include "support/Diagnostic.h"

#include <string>
#include <vector>

namespace an5d {

/// Which emitted TU flavor is being linted (the contract differs: a check
/// program has a `main` and may print; a kernel library must not).
enum class LintTarget { KernelLibrary, CheckProgram, CudaKernel };

const char *lintTargetName(LintTarget Target);

/// The individual contract rules.
enum class LintRule {
  /// A required `an5d_*` ABI symbol is not defined.
  MissingSymbol,
  /// The TU never opens an `extern "C"` linkage block.
  MissingExternC,
  /// `an5d_abi_version` does not return CppKernelAbiVersion.
  AbiVersionMismatch,
  /// A floating-point literal violates the exact-literal policy for the
  /// TU's element type.
  FloatLiteralPolicy,
  /// A call to a function banned in this TU flavor.
  BannedCall,
  /// The blocked invocation's buffer pointers lack __restrict__.
  MissingRestrict,
  /// A CUDA TU without a __global__ kernel.
  MissingKernelQualifier,
  /// A kernel library declares a non-const variable of static storage
  /// duration (file scope or function-local `static`): state shared by
  /// every caller, which breaks the reentrant an5d_run contract.
  MutableStaticState,
};

/// Stable lowercase name of \p Rule (e.g. "missing-symbol").
const char *lintRuleName(LintRule Rule);

/// One lint hit: the broken rule, the 1-based source line (0 when the
/// finding is about the whole TU), and the offending token.
struct LintFinding {
  LintRule Rule = LintRule::MissingSymbol;
  int Line = 0;
  std::string Subject; ///< Offending symbol/literal/call name.
  std::string Message;

  /// "[missing-symbol] line 12: <message>".
  std::string toString() const;

  /// The same content as a support/Diagnostic error.
  Diagnostic toDiagnostic() const;
};

/// All findings for one TU.
struct LintReport {
  std::vector<LintFinding> Findings;

  bool clean() const { return Findings.empty(); }

  /// One line per finding; "lint clean" when empty.
  std::string toString() const;

  /// Reports every finding into \p Diags as an error.
  void render(DiagnosticEngine &Diags) const;
};

/// Lints \p Source as a \p Target TU whose grid element type is
/// \p ElemType.
LintReport lintTranslationUnit(const std::string &Source, LintTarget Target,
                               ScalarType ElemType);

/// Strips // and /* */ comments plus string and character literals from
/// \p Source, replacing them with spaces so byte offsets and line numbers
/// survive. Exposed for tests.
std::string stripCommentsAndStrings(const std::string &Source);

} // namespace an5d

#endif // AN5D_ANALYSIS_KERNELLINT_H
