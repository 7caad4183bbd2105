//===- KernelCache.cpp - Persistent compiled-kernel cache --------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/KernelCache.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#if defined(__ELF__)
#include <cstring>
#include <elf.h>
#include <link.h>
#endif

namespace an5d {

namespace fs = std::filesystem;

/// Whether the library at \p Path holds every byte its ELF header points
/// at: the program header table, each loadable segment and the section
/// header table. dlopen maps a truncated library past its end, and the
/// process dies of SIGBUS when it touches a page there, so a cached
/// library that fails this check is rebuilt rather than loaded. On a
/// non-ELF host every file passes.
static bool wholeLibrary(const std::string &Path) {
#if defined(__ELF__)
  std::error_code Ec;
  const std::uint64_t Size = fs::file_size(Path, Ec);
  std::ifstream In(Path, std::ios::binary);
  ElfW(Ehdr) Header{};
  if (Ec || !In.read(reinterpret_cast<char *>(&Header), sizeof(Header)) ||
      std::memcmp(Header.e_ident, ELFMAG, SELFMAG) != 0 ||
      Header.e_ident[EI_CLASS] != (sizeof(void *) == 8 ? ELFCLASS64
                                                       : ELFCLASS32) ||
      Header.e_phentsize != sizeof(ElfW(Phdr)))
    return false;
  auto Inside = [Size](std::uint64_t Offset, std::uint64_t Bytes) {
    return Offset <= Size && Bytes <= Size - Offset;
  };
  if (!Inside(Header.e_phoff, std::uint64_t{Header.e_phnum} *
                                  Header.e_phentsize) ||
      !Inside(Header.e_shoff,
              std::uint64_t{Header.e_shnum} * Header.e_shentsize))
    return false;
  In.seekg(static_cast<std::streamoff>(Header.e_phoff));
  for (unsigned I = 0; I < Header.e_phnum; ++I) {
    ElfW(Phdr) Segment{};
    if (!In.read(reinterpret_cast<char *>(&Segment), sizeof(Segment)) ||
        (Segment.p_type == PT_LOAD &&
         !Inside(Segment.p_offset, Segment.p_filesz)))
      return false;
  }
#else
  (void)Path;
#endif
  return true;
}

std::string KernelCache::defaultDirectory() {
  if (const char *Env = std::getenv("AN5D_KERNEL_CACHE"); Env && *Env)
    return Env;
  if (const char *Home = std::getenv("HOME"); Home && *Home)
    return std::string(Home) + "/.cache/an5d/kernels";
  std::error_code Ec;
  fs::path Tmp = fs::temp_directory_path(Ec);
  if (Ec)
    Tmp = "/tmp";
  return (Tmp / "an5d-kernel-cache").string();
}

long long KernelCache::defaultMaxBytes() {
  if (const char *Env = std::getenv("AN5D_KERNEL_CACHE_MAX_MB");
      Env && *Env) {
    char *End = nullptr;
    const long long Mb = std::strtoll(Env, &End, 10);
    if (End != Env)
      return Mb > 0 ? Mb * 1024 * 1024 : 0;
  }
  return 512LL * 1024 * 1024;
}

KernelCache::KernelCache(std::string Directory, long long MaxBytes)
    : Dir(Directory.empty() ? defaultDirectory() : std::move(Directory)),
      MaxBytes_(MaxBytes < 0 ? defaultMaxBytes() : MaxBytes) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  // A failure surfaces naturally as a write/compile error in getOrBuild.
}

std::string KernelCache::hashKey(const std::string &Source,
                                 const std::string &CompilerFingerprint) {
  auto Fnv1a = [](std::uint64_t Hash, const std::string &Text) {
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 1099511628211ULL;
    }
    return Hash;
  };
  std::uint64_t Hash = 14695981039346656037ULL;
  Hash = Fnv1a(Hash, Source);
  Hash = Fnv1a(Hash, "\x1f"); // keep (a+b, c) distinct from (a, b+c)
  Hash = Fnv1a(Hash, CompilerFingerprint);

  char Buffer[17];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(Hash));
  return Buffer;
}

KernelArtifact KernelCache::getOrBuild(
    const std::string &Source, const NativeCompiler &Compiler,
    const std::vector<std::string> &ExtraFlags, bool ForceRecompile) {
  KernelArtifact Artifact;
  Artifact.Key = hashKey(Source, Compiler.fingerprint(ExtraFlags));
  fs::path Base = fs::path(Dir) / ("an5d_" + Artifact.Key);
  Artifact.SourcePath = Base.string() + ".cpp";
  Artifact.LibraryPath = Base.string() + ".so";

  obs::TraceSpan Span("cache.get_or_build");
  if (Span.active())
    Span.attr("key", Artifact.Key);

  std::error_code Ec;
  // Serialize same-key builds within this process: the exists-check runs
  // under the key's lock, so a worker that waited out a sibling's build
  // sees the finished artifact and records a hit instead of re-compiling
  // the identical source (every configuration of a stencil).
  std::shared_ptr<std::mutex> KeyMutex;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::shared_ptr<std::mutex> &Slot = Builders[Artifact.Key];
    if (!Slot)
      Slot = std::make_shared<std::mutex>();
    KeyMutex = Slot;
  }
  std::lock_guard<std::mutex> KeyLock(*KeyMutex);

  // A library cut short (by an outside writer or a damaged disk: this
  // cache only publishes whole files) is rebuilt like a missing one.
  if (!ForceRecompile && fs::exists(Artifact.LibraryPath, Ec) &&
      wholeLibrary(Artifact.LibraryPath)) {
    Artifact.Ok = true;
    Artifact.CacheHit = true;
    // Touch the artifact so the LRU eviction order tracks use, not just
    // build time (a hot kernel hit daily must outlive a one-off build).
    fs::last_write_time(Artifact.LibraryPath,
                        fs::file_time_type::clock::now(), Ec);
    Span.attr("hit", "true");
    obs::count("kernel_cache.hits");
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Hits;
    return Artifact;
  }
  Span.attr("hit", "false");

  // Everything below works on per-build temporaries renamed into place:
  // concurrent builders of the same key — sibling processes *or* sibling
  // threads of the in-process compile pool — each produce complete files
  // and the renames are atomic, so no compiler ever reads a truncated
  // .cpp and no loader ever sees a half-written .so. The pid alone is
  // not unique enough: same-process pool workers racing on one key would
  // share it, so a process-wide counter disambiguates.
  static std::atomic<unsigned> TempCounter{0};
  std::string Suffix =
      ".tmp." + std::to_string(TempCounter.fetch_add(1));
#if !defined(_WIN32)
  Suffix += "." + std::to_string(::getpid());
#endif

  // The source is compiled from its temporary and only then installed at
  // the canonical path (for inspection / recompilation): writing the
  // shared path directly would truncate it under a concurrent builder's
  // compiler, which silently succeeds on a partial TU. The temporary
  // keeps the .cpp extension — compilers classify inputs by suffix.
  std::string TempSourcePath = Artifact.SourcePath + Suffix + ".cpp";
  {
    std::ofstream Out(TempSourcePath);
    Out << Source;
    if (!Out) {
      Artifact.Log = "cannot write " + TempSourcePath;
      fs::remove(TempSourcePath, Ec);
      obs::count("kernel_cache.failures");
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.Failures;
      return Artifact;
    }
  }

  std::string TempPath = Artifact.LibraryPath + Suffix;
  CompileOutcome Outcome;
  {
    AN5D_TRACE_SPAN("cache.compile");
    Outcome =
        Compiler.compileSharedLibrary(TempSourcePath, TempPath, ExtraFlags);
  }
  fs::rename(TempSourcePath, Artifact.SourcePath, Ec);
  if (Ec)
    fs::remove(TempSourcePath, Ec); // canonical copy is best-effort only
  Artifact.Log = Outcome.Log;
  Artifact.CompileSeconds = Outcome.Seconds;
  if (!Outcome.Success) {
    Artifact.Log = "compile failed: " + Outcome.Command + "\n" + Outcome.Log;
    fs::remove(TempPath, Ec);
    obs::count("kernel_cache.failures");
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Failures;
    return Artifact;
  }
  fs::rename(TempPath, Artifact.LibraryPath, Ec);
  if (Ec) {
    Artifact.Log = "cannot move " + TempPath + " into place: " + Ec.message();
    fs::remove(TempPath, Ec);
    obs::count("kernel_cache.failures");
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Failures;
    return Artifact;
  }

  Artifact.Ok = true;
  obs::count("kernel_cache.misses");
  obs::observe("kernel_cache.compile_seconds", Outcome.Seconds,
               obs::compileSecondsBuckets());
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Misses;
  }
  // The cache only grows on a successful build, so this is the one spot
  // where the size cap can newly overflow.
  evictOverCap(Artifact.Key);
  return Artifact;
}

void KernelCache::evictOverCap(const std::string &KeepKey) {
  if (MaxBytes_ <= 0)
    return;

  struct Entry {
    std::string Library;
    std::string Source;
    fs::file_time_type Mtime;
    long long Bytes = 0;
  };
  std::vector<Entry> Entries;
  long long TotalBytes = 0;

  std::error_code Ec;
  const std::string KeepName = "an5d_" + KeepKey + ".so";
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    const fs::path &Path = It->path();
    const std::string Name = Path.filename().string();
    if (Name.rfind("an5d_", 0) != 0 || Path.extension() != ".so")
      continue;
    Entry E;
    E.Library = Path.string();
    E.Source = (Path.parent_path() / Path.stem()).string() + ".cpp";
    E.Mtime = fs::last_write_time(Path, Ec);
    if (Ec) {
      Ec.clear();
      continue; // Evicted by a sibling between listing and stat.
    }
    E.Bytes = static_cast<long long>(fs::file_size(Path, Ec));
    if (Ec) {
      Ec.clear();
      E.Bytes = 0;
    }
    const long long SourceBytes =
        static_cast<long long>(fs::file_size(E.Source, Ec));
    if (!Ec)
      E.Bytes += SourceBytes;
    Ec.clear();
    TotalBytes += E.Bytes;
    if (Name != KeepName) // The just-built artifact is never evicted.
      Entries.push_back(std::move(E));
  }

  if (TotalBytes <= MaxBytes_)
    return;
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.Mtime < B.Mtime; });

  std::size_t Evicted = 0;
  for (const Entry &E : Entries) {
    if (TotalBytes <= MaxBytes_)
      break;
    fs::remove(E.Library, Ec);
    fs::remove(E.Source, Ec);
    TotalBytes -= E.Bytes;
    ++Evicted;
  }
  if (Evicted > 0) {
    obs::count("kernel_cache.evictions", static_cast<long long>(Evicted));
    std::lock_guard<std::mutex> Lock(Mutex);
    Stats.Evictions += Evicted;
  }
}

KernelCacheStats KernelCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

} // namespace an5d
