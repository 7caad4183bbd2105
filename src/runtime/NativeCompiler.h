//===- NativeCompiler.h - Host C++ compiler driver --------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shells out to the host C++ compiler to build a generated kernel
/// translation unit into a shared library. The compiler is resolved once
/// (AN5D_CXX environment variable, then the compiler CMake configured the
/// project with, then plain `c++`) and probed — per process, per command —
/// for its version string, for working -fopenmp support (a tiny shared
/// library is actually built, so a clang without libomp fails the probe
/// and kernels compile serially) and for -march=native (`-march=native
/// -dM -E`, whose predefined-macro set is the resolved host target). The
/// (command, version, effective flags, resolved target) tuple forms the
/// fingerprint KernelCache hashes, so a toolchain change — OpenMP support
/// appearing or vanishing, or the same cache directory reached from a
/// host with another ISA — lands on fresh cache keys instead of serving
/// stale artifacts.
///
/// The flag set is deliberately small: -O2 -shared -fPIC plus
/// -ffp-contract=off and, when the probes accept them, -march=native and
/// -fopenmp. -march=native lets the `omp simd` rows use the host's full
/// vector ISA (AVX2/AVX-512 instead of baseline SSE2); -O3 measured no
/// consistent gain over -O2. The contraction flag is load-bearing — the
/// kernels promise bit-for-bit agreement with the in-process executors,
/// and a fused mul/add would break that (see the root CMakeLists
/// rationale) — and it keeps FMA out of -march=native builds too.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_RUNTIME_NATIVECOMPILER_H
#define AN5D_RUNTIME_NATIVECOMPILER_H

#include <string>
#include <vector>

namespace an5d {

/// Result of one shared-library build.
struct CompileOutcome {
  bool Success = false;
  /// The exact command line run.
  std::string Command;
  /// Captured compiler stdout+stderr.
  std::string Log;
  double Seconds = 0;
};

class NativeCompiler {
public:
  /// \p Command overrides compiler detection when non-empty. Probes
  /// (version, OpenMP) run once per process per distinct command.
  explicit NativeCompiler(std::string Command = "");

  /// Resolution order: $AN5D_CXX, the configure-time compiler
  /// (AN5D_HOST_CXX), `c++`.
  static std::string detect();

  const std::string &command() const { return Command_; }

  /// First line of `<command> --version`; empty if the probe failed.
  const std::string &version() const { return Version; }

  /// True if the version probe succeeded (the compiler exists and runs).
  bool available() const { return !Version.empty(); }

  /// True if the probe built a -fopenmp shared library successfully;
  /// kernels then compile with OpenMP worksharing enabled.
  bool openMpSupported() const { return OpenMp; }

  /// The predefined-macro set of `<command> -march=native -dM -E`, one
  /// sorted line per macro: the host ISA kernels build for. Empty when the
  /// compiler rejects -march=native, which kernels then build without.
  const std::string &nativeTarget() const { return NativeTarget; }

  /// The sanitizer flags kernel builds inherit so dlopen'd kernels run
  /// under the *same* sanitizer as the host process: the
  /// AN5D_KERNEL_SANITIZE environment variable when set (raw flags;
  /// "none" disables), otherwise the flags CMake baked in when the
  /// project was configured with AN5D_SANITIZE. Empty in a plain build.
  static std::vector<std::string> sanitizerFlags();

  /// The flags every kernel build uses with this compiler, in order
  /// (-march=native and -fopenmp included iff their probes succeeded,
  /// sanitizerFlags() appended; under
  /// -fsanitize=thread the OpenMP flag is dropped — see flags() for the
  /// uninstrumented-libgomp rationale). \p ExtraFlags of
  /// compileSharedLibrary are appended after these, so callers can
  /// override (e.g. a test passing -O1 for faster builds).
  std::vector<std::string> flags() const;

  /// Compiler identity + effective flag set + nativeTarget(); hashed into
  /// the kernel-cache key.
  std::string fingerprint(const std::vector<std::string> &ExtraFlags) const;

  /// Builds \p SourcePath into the shared library \p OutputPath.
  CompileOutcome
  compileSharedLibrary(const std::string &SourcePath,
                       const std::string &OutputPath,
                       const std::vector<std::string> &ExtraFlags) const;

private:
  std::string Command_;
  std::string Version;
  bool OpenMp = false;
  std::string NativeTarget;
};

} // namespace an5d

#endif // AN5D_RUNTIME_NATIVECOMPILER_H
