// Counting replacements for the global operator new/delete, for the test
// binaries that prove a code path allocation-free by comparing newCalls()
// before and after it. The replacements apply to the whole program, so
// include this from exactly one translation unit of a test binary of its
// own, where they cannot perturb other tests. They interpose above the
// sanitizers' malloc, so the counts hold in the ASan/UBSan builds too.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<unsigned long long> g_newCalls{0};

/// Global operator new calls so far in this process.
unsigned long long newCalls() {
  return g_newCalls.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
