//===- KernelCache.h - Persistent compiled-kernel cache ---------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent on-disk cache of compiled kernel shared objects, keyed by
/// an FNV-1a hash of (generated source, compiler fingerprint) — so a
/// change to the stencil, the code generator, the compiler binary or the
/// flag set each lands on a fresh key, every configuration of a stencil
/// (bT, hS and bS are run-time kernel arguments) shares one, and repeat
/// tunes are compile-free.
///
/// Layout under the cache directory:
///   an5d_<key>.cpp   the generated translation unit (kept for debugging)
///   an5d_<key>.so    the compiled kernel
///
/// The cache directory defaults to $AN5D_KERNEL_CACHE, then
/// $HOME/.cache/an5d/kernels, then <tmp>/an5d-kernel-cache. getOrBuild is
/// thread-safe (the measured sweep compiles candidates from a thread
/// pool): same-key builds within one process are serialized on a per-key
/// mutex — the first requester compiles, the rest wait and then hit its
/// artifact, so one key costs one *successful* compile per process.
/// Failures are not memoized (a failed build leaves no artifact, so every
/// requester of that key retries — serially — and reports the live log);
/// transient failures therefore self-heal at the cost of repeated
/// compiles on a persistently broken source. Across processes compilation
/// goes to a per-call temporary and is renamed into place atomically, so
/// cross-process races on one key stay benign (each produces a complete
/// artifact).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_RUNTIME_KERNELCACHE_H
#define AN5D_RUNTIME_KERNELCACHE_H

#include "runtime/NativeCompiler.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace an5d {

/// Hit/miss counters; a warm cache shows pure hits on a repeat tune.
struct KernelCacheStats {
  std::size_t Hits = 0;
  std::size_t Misses = 0;
  std::size_t Failures = 0;
  /// Artifacts removed by the LRU size cap (one per evicted key).
  std::size_t Evictions = 0;
};

/// One resolved cache entry.
struct KernelArtifact {
  bool Ok = false;
  /// True if the shared object was already in the cache (no compile ran).
  bool CacheHit = false;
  std::string Key;
  std::string SourcePath;
  std::string LibraryPath;
  /// Compiler log on failure (empty on a hit).
  std::string Log;
  double CompileSeconds = 0;
};

class KernelCache {
public:
  /// \p Directory overrides defaultDirectory() when non-empty; it is
  /// created if missing. \p MaxBytes caps the total size of cached
  /// artifacts (.so plus the kept .cpp): after each successful build the
  /// least-recently-used keys are evicted until the cache fits. 0 means
  /// unlimited; the default -1 resolves defaultMaxBytes(). Recency is
  /// artifact mtime — a hit touches its .so, so persistent caches stay
  /// LRU across processes. Eviction never removes the key just built,
  /// and a concurrently *building* sibling process can transiently lose
  /// an artifact it was about to load (it then recompiles: the same
  /// benign self-healing as a failed build).
  explicit KernelCache(std::string Directory = "", long long MaxBytes = -1);

  const std::string &directory() const { return Dir; }

  /// The configured size cap in bytes (0 = unlimited).
  long long maxBytes() const { return MaxBytes_; }

  /// $AN5D_KERNEL_CACHE_MAX_MB megabytes when set (<= 0 disables the
  /// cap), otherwise 512 MB.
  static long long defaultMaxBytes();

  /// $AN5D_KERNEL_CACHE > $HOME/.cache/an5d/kernels > <tmp>/an5d-kernel-cache.
  static std::string defaultDirectory();

  /// FNV-1a 64-bit over source and fingerprint, as 16 hex digits.
  static std::string hashKey(const std::string &Source,
                             const std::string &CompilerFingerprint);

  /// Returns the cached shared object for (Source, Compiler, ExtraFlags),
  /// compiling it on a miss. A cached library counts as a hit only when
  /// it holds every byte its ELF headers point at; one cut short is
  /// rebuilt (a miss) instead of being mapped past its end. \p
  /// ForceRecompile rebuilds even on a hit (counted as a miss).
  KernelArtifact getOrBuild(const std::string &Source,
                            const NativeCompiler &Compiler,
                            const std::vector<std::string> &ExtraFlags = {},
                            bool ForceRecompile = false);

  KernelCacheStats stats() const;

private:
  /// Removes least-recently-used artifact pairs until the cache fits
  /// MaxBytes_, never touching \p KeepKey (the key just built).
  void evictOverCap(const std::string &KeepKey);

  std::string Dir;
  long long MaxBytes_ = 0;
  mutable std::mutex Mutex;
  KernelCacheStats Stats;
  /// Per-key build locks: concurrent requesters of one key wait for the
  /// first builder instead of each shelling out a redundant compile.
  /// Guarded by Mutex; shared_ptr so a waiter's lock survives map growth.
  std::map<std::string, std::shared_ptr<std::mutex>> Builders;
};

} // namespace an5d

#endif // AN5D_RUNTIME_KERNELCACHE_H
