// Host-side measurement probes of the benchmark binary: a heap-allocation
// counter (global operator new, armed only around measured calls), a
// monotonic clock, peak resident memory, FNV-64 digests, and a span
// recorder that writes Chrome trace-event JSON through obs::EventTrace.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Heap allocations (calls of the global operator new family) counted
/// while armed. Single-threaded use: arm around the measured call only.
class AllocCounter {
 public:
  static void arm();
  static std::uint64_t disarm();  ///< returns the count since arm()
};

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used (user + system).
double cpuSeconds();

/// Peak resident set of this process so far, MiB.
double peakRssMiB();

std::uint64_t fnv64(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

double median(std::vector<double> v);

/// Benchmark-side spans around calls into each layer. Kept in memory and
/// written once at exit; self time of a span is its duration minus the
/// part covered by spans opened inside it.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  /// Self seconds summed per span name, in first-open order.
  std::vector<std::pair<std::string, double>> selfSeconds() const;

  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start = 0.0;
    double end = 0.0;
    double childSeconds = 0.0;
    std::size_t parent;
  };
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  std::vector<Span> spans_;
  std::size_t open_ = kNoParent;
  double origin_ = nowSeconds();
};

}  // namespace perfbench
