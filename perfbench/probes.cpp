#include "probes.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "util/units.hpp"

namespace {
// Plain globals: the benchmark is single-threaded while armed, and the
// counter must not itself allocate.
bool g_armed = false;
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_armed) ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void AllocCounter::arm() {
  g_allocs = 0;
  g_armed = true;
}

std::uint64_t AllocCounter::disarm() {
  g_armed = false;
  return g_allocs;
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv64(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Spans::Scope::Scope(Spans& s, const char* name)
    : spans_(s), index_(s.spans_.size()) {
  s.spans_.push_back(Span{name, nowSeconds(), 0.0, 0.0, s.open_});
  s.open_ = index_;
}

Spans::Scope::~Scope() {
  Span& sp = spans_.spans_[index_];
  sp.end = nowSeconds();
  if (sp.parent != kNoParent) {
    spans_.spans_[sp.parent].childSeconds += sp.end - sp.start;
  }
  spans_.open_ = sp.parent;
}

std::vector<std::pair<std::string, double>> Spans::selfSeconds() const {
  std::vector<std::pair<std::string, double>> out;
  for (const Span& sp : spans_) {
    const double self = sp.end - sp.start - sp.childSeconds;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& e) { return e.first == sp.name; });
    if (it == out.end()) {
      out.emplace_back(sp.name, self);
    } else {
      it->second += self;
    }
  }
  return out;
}

bool Spans::writeChromeTrace(const std::string& path) const {
  // Host time in the trace's time field: Perfetto shows the benchmark's
  // wall-clock timeline, nested by interval on one track.
  tlbsim::obs::EventTrace trace(spans_.size() + 1);
  const auto ns = [this](double t) {
    return tlbsim::SimTime::fromNs(
        static_cast<std::int64_t>((t - origin_) * 1e9));
  };
  for (const Span& sp : spans_) {
    trace.complete("perfbench", sp.name, ns(sp.start),
                   ns(sp.end) - ns(sp.start));
  }
  return trace.writeJsonFile(path);
}

}  // namespace perfbench
