// util::InlineFunction — the small-buffer callable behind sim::EventFn.
// These tests pin the inline/heap boundary, the move/destroy protocol of
// each storage mode (manager-less memcpy relocation for trivial closures,
// managed inline, heap), and the compile-time fitsInline()/isTrivial()
// predicates that hot call sites and the alloc-counting test rely on.
#include "util/inline_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"

namespace tlbsim::util {
namespace {

using Fn = InlineFunction<int()>;

struct alignas(8) Small {
  std::array<unsigned char, 16> pad{};
  int operator()() const { return 16; }
};
struct AtBudget {
  std::array<unsigned char, kInlineFunctionDefaultSize> pad{};
  int operator()() const { return 48; }
};
struct OverBudget {
  std::array<unsigned char, kInlineFunctionDefaultSize + 1> pad{};
  int operator()() const { return 49; }
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  int operator()() const { return -1; }
};

TEST(InlineFunction, FitsInlineBoundaryIsExactlyTheBudget) {
  static_assert(Fn::fitsInline<Small>());
  static_assert(Fn::fitsInline<AtBudget>());
  static_assert(!Fn::fitsInline<OverBudget>());
  // Non-nothrow-movable callables must go to the heap: inline relocation
  // happens inside noexcept move operations.
  static_assert(!Fn::fitsInline<ThrowingMove>());
  // The sim's event callback uses the same default budget.
  static_assert(sim::EventFn::inlineSize() == kInlineFunctionDefaultSize);
}

TEST(InlineFunction, InvokesInlineAndHeapCallables) {
  Fn small(Small{});
  Fn at(AtBudget{});
  Fn over(OverBudget{});
  Fn throwing(ThrowingMove{});
  EXPECT_EQ(small(), 16);
  EXPECT_EQ(at(), 48);
  EXPECT_EQ(over(), 49);
  EXPECT_EQ(throwing(), -1);
}

TEST(InlineFunction, EmptyAndNullptrStates) {
  Fn empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  Fn fromNull(nullptr);
  EXPECT_FALSE(static_cast<bool>(fromNull));
  Fn filled([] { return 7; });
  EXPECT_TRUE(static_cast<bool>(filled));
  filled = nullptr;
  EXPECT_FALSE(static_cast<bool>(filled));
}

TEST(InlineFunction, MoveTransfersInlineCallable) {
  int calls = 0;
  InlineFunction<void()> a([&calls] { ++calls; });
  InlineFunction<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunction, MoveAssignDestroysPreviousTarget) {
  auto counter = std::make_shared<int>(0);
  {
    InlineFunction<void()> a([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    a = InlineFunction<void()>([] {});
    // The first closure (and its shared_ptr copy) must be destroyed by
    // the assignment, not leaked until scope exit.
    EXPECT_EQ(counter.use_count(), 1);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunction, DestructorReleasesHeapCallable) {
  auto counter = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> p;
    std::array<unsigned char, 64> pad{};
    void operator()() const { ++*p; }
  };
  static_assert(!InlineFunction<void()>::fitsInline<Big>());
  {
    InlineFunction<void()> f(Big{counter});
    EXPECT_EQ(counter.use_count(), 2);
    f();
    EXPECT_EQ(*counter, 1);
  }
  EXPECT_EQ(counter.use_count(), 1);  // heap cell freed
}

TEST(InlineFunction, HeapMoveHandsOverTheCell) {
  auto counter = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> p;
    std::array<unsigned char, 64> pad{};
    void operator()() const { ++*p; }
  };
  InlineFunction<void()> a(Big{counter});
  InlineFunction<void()> b(std::move(a));
  // Handing the pointer over must not copy the closure.
  EXPECT_EQ(counter.use_count(), 2);
  b();
  EXPECT_EQ(*counter, 1);
}

TEST(InlineFunction, MoveOnlyClosuresWork) {
  auto owned = std::make_unique<int>(41);
  InlineFunction<int()> f(
      [p = std::move(owned)] { return *p + 1; });
  EXPECT_EQ(f(), 42);
  InlineFunction<int()> g(std::move(f));
  EXPECT_EQ(g(), 42);
}

TEST(InlineFunction, ArgumentsAndReturnValuesForward) {
  InlineFunction<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 40), 42);
  InlineFunction<void(int&)> bump([](int& x) { ++x; });
  int v = 0;
  bump(v);
  EXPECT_EQ(v, 1);
}

TEST(InlineFunction, SelfMoveAssignIsSafe) {
  int calls = 0;
  InlineFunction<void()> f([&calls] { ++calls; });
  auto& ref = f;
  f = std::move(ref);
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(calls, 1);
}

// --- trivial (memcpy) path vs managed path ------------------------------

TEST(InlineFunction, HotPathClosureShapesAreTrivial) {
  // The scheduler's per-packet closures capture [this] or [this, slot];
  // both must take the manager-less memcpy path.
  struct Owner {
    auto self() {
      return [this] { (void)this; };
    }
    auto selfAndSlot(std::uint32_t slot) {
      return [this, slot] { (void)this, (void)slot; };
    }
  };
  using Self = decltype(std::declval<Owner&>().self());
  using SelfAndSlot =
      decltype(std::declval<Owner&>().selfAndSlot(std::uint32_t{}));
  static_assert(sim::EventFn::isTrivial<Self>());
  static_assert(sim::EventFn::isTrivial<SelfAndSlot>());
  static_assert(Fn::isTrivial<Small>());
  static_assert(Fn::isTrivial<AtBudget>());
  // Over budget, a std::string capture, or a user destructor: managed.
  static_assert(!Fn::isTrivial<OverBudget>());
  struct WithString {
    std::string s;
    int operator()() const { return static_cast<int>(s.size()); }
  };
  static_assert(Fn::fitsInline<WithString>());
  static_assert(!Fn::isTrivial<WithString>());
}

/// A trivially copyable closure whose value depends on every captured
/// byte, so a short or misaligned relocation shows up in the result.
struct Payload {
  std::array<std::int32_t, 10> v{};
  int operator()() const {
    int sum = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      sum += v[i] * static_cast<int>(i + 1);
    }
    return sum;
  }
};
static_assert(Fn::isTrivial<Payload>());

Payload makePayload(int base) {
  Payload p;
  for (std::size_t i = 0; i < p.v.size(); ++i) {
    p.v[i] = base + static_cast<int>(i);
  }
  return p;
}

TEST(InlineFunction, TrivialClosureRelocatesByMemcpy) {
  const int want = makePayload(7)();
  Fn a(makePayload(7));
  Fn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b(), want);
  Fn c(makePayload(100));
  c = std::move(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c(), want);

  // Vector growth relocates every element through the move constructor.
  std::vector<Fn> fns;
  for (int i = 0; i < 100; ++i) fns.emplace_back(makePayload(i));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fns[static_cast<std::size_t>(i)](), makePayload(i)());
  }
}

/// Counts how many times the *owning* instance is destroyed: a move hands
/// ownership to the destination, so moved-from shells do not count.
struct Tracked {
  int* ownerDestroyed;
  int* live;
  bool owner = true;
  Tracked(int* destroyed, int* liveCount)
      : ownerDestroyed(destroyed), live(liveCount) {
    ++*live;
  }
  Tracked(Tracked&& o) noexcept
      : ownerDestroyed(o.ownerDestroyed), live(o.live), owner(o.owner) {
    o.owner = false;
    ++*live;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    --*live;
    if (owner) ++*ownerDestroyed;
  }
  int operator()() const { return owner ? 1 : -1; }
};

TEST(InlineFunction, ManagedClosureIsDestroyedExactlyOnce) {
  static_assert(Fn::fitsInline<Tracked>());
  static_assert(!Fn::isTrivial<Tracked>());
  int destroyed = 0;
  int live = 0;
  {
    Fn a(Tracked(&destroyed, &live));
    Fn b(std::move(a));
    EXPECT_EQ(b(), 1);
    Fn c([] { return 0; });
    c = std::move(b);  // move-assign over a trivial target
    EXPECT_EQ(c(), 1);
    EXPECT_EQ(destroyed, 0);
    EXPECT_EQ(live, 1);  // moved-from shells are gone, not leaked
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(live, 0);

  // Move-assigning a managed closure over another destroys the old one
  // immediately, and vector growth keeps every owner alive exactly once.
  destroyed = 0;
  {
    Fn a(Tracked(&destroyed, &live));
    a = Fn(Tracked(&destroyed, &live));
    EXPECT_EQ(destroyed, 1);
    std::vector<Fn> fns;
    for (int i = 0; i < 50; ++i) fns.emplace_back(Tracked(&destroyed, &live));
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(live, 51);
    for (const Fn& f : fns) EXPECT_EQ(f(), 1);
  }
  EXPECT_EQ(destroyed, 52);
  EXPECT_EQ(live, 0);
}

TEST(InlineFunction, StringCaptureSurvivesEveryRelocation) {
  // Long enough to live on the heap: a double free or a lost buffer is
  // what the sanitizer jobs catch here.
  const std::string text(200, 'x');
  InlineFunction<std::size_t()> a([s = text] { return s.size(); });
  InlineFunction<std::size_t()> b(std::move(a));
  InlineFunction<std::size_t()> c([s = std::string(300, 'y')] {
    return s.size();
  });
  c = std::move(b);
  EXPECT_EQ(c(), text.size());
  std::vector<InlineFunction<std::size_t()>> fns;
  for (std::size_t i = 0; i < 40; ++i) {
    fns.emplace_back([s = std::string(100 + i, 'z')] { return s.size(); });
  }
  for (std::size_t i = 0; i < fns.size(); ++i) {
    EXPECT_EQ(fns[i](), 100 + i);
  }
}

}  // namespace
}  // namespace tlbsim::util
