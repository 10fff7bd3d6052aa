// Small-buffer-optimized move-only callable — the zero-allocation
// replacement for std::function on the simulator's hot paths.
//
// Three storage modes, picked at compile time from the closure type:
//
//   trivial  the closure fits the inline buffer and is trivially copyable
//            and trivially destructible — every hot-path event closure
//            ([this], [this, slot]) is. No manager is stored: moving is a
//            fixed-size memcpy of the buffer and destruction is a no-op,
//            so relocating an event into its scheduler slot costs no
//            indirect call.
//   inline   any other closure that fits the buffer and is nothrow-move-
//            constructible (so relocation during vector growth cannot
//            throw). A per-type manager move-constructs and destroys it.
//   heap     larger or over-aligned closures get a single heap cell whose
//            pointer the manager hands over on move. That fallback keeps
//            cold setup-time lambdas (which capture half the harness by
//            reference) convenient; the alloc-counting test in tests/sim
//            pins the hot-path closures to the allocation-free modes.
//
// The buffer is zero-filled before a trivial closure is placed in it, so
// the memcpy relocation only ever reads initialised bytes.
//
// Differences from std::function, all deliberate:
//   * move-only (closures holding move-only state are fine; accidental
//     per-copy allocations are not),
//   * no target_type()/target() RTTI,
//   * invoking an empty InlineFunction is a Debug check, not bad_function_call.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace tlbsim::util {

inline constexpr std::size_t kInlineFunctionDefaultSize = 48;

template <typename Signature,
          std::size_t InlineSize = kInlineFunctionDefaultSize>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineSize>
class InlineFunction<R(Args...), InlineSize> {
  static_assert(InlineSize >= sizeof(void*),
                "inline buffer must hold at least the heap-fallback pointer");

 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Wrap any callable invocable as R(Args...). Closures up to InlineSize
  /// bytes live in the inline buffer; bigger ones get one heap cell.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (isTrivial<Fn>()) {
      std::memset(storage_, 0, InlineSize);
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &inlineInvoke<Fn>;
    } else if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &inlineInvoke<Fn>;
      manage_ = &inlineManage<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &heapInvoke<Fn>;
      manage_ = &heapManage<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { moveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Shallow-const invocation, like std::function: a const InlineFunction
  /// may still run a mutating closure.
  R operator()(Args... args) const {
    TLBSIM_DCHECK(invoke_ != nullptr, "invoking an empty InlineFunction");
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when a closure of type F is stored without a heap allocation.
  /// Exposed so tests (and static_asserts at hot call sites) can pin a
  /// capture list to the inline budget.
  template <typename F>
  static constexpr bool fitsInline() {
    return sizeof(F) <= InlineSize &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  /// True when a closure of type F is stored without a manager: it fits
  /// inline and relocates with a memcpy and needs no destructor call.
  template <typename F>
  static constexpr bool isTrivial() {
    return fitsInline<F>() && std::is_trivially_copyable_v<F> &&
           std::is_trivially_destructible_v<F>;
  }

  static constexpr std::size_t inlineSize() { return InlineSize; }

 private:
  using Invoke = R (*)(void*, Args&&...);
  /// dst == nullptr: destroy the stored callable. dst != nullptr:
  /// relocate it into dst (move-construct + destroy source, or for heap
  /// storage just hand over the pointer).
  using Manage = void (*)(void* self, void* dst);

  template <typename Fn>
  static R inlineInvoke(void* s, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(s)))(
        std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void inlineManage(void* s, void* dst) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(s));
    if (dst != nullptr) ::new (dst) Fn(std::move(*f));
    f->~Fn();
  }
  template <typename Fn>
  static R heapInvoke(void* s, Args&&... args) {
    return (**std::launder(reinterpret_cast<Fn**>(s)))(
        std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void heapManage(void* s, void* dst) {
    Fn** p = std::launder(reinterpret_cast<Fn**>(s));
    if (dst != nullptr) {
      ::new (dst) Fn*(*p);  // hand the cell over; no copy, no free
    } else {
      delete *p;
    }
  }

  void reset() {
    if (manage_ != nullptr) manage_(storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void moveFrom(InlineFunction& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(other.storage_, storage_);
    } else if (other.invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, InlineSize);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) mutable unsigned char storage_[InlineSize];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  ///< nullptr for trivial closures (and empty)
};

}  // namespace tlbsim::util
