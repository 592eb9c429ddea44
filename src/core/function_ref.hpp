// A non-owning reference to a callable: the hot-path visitor type.
//
// std::function owns a copy of its target and heap-allocates it once the
// captures outgrow the small buffer, which is what a by-reference lambda
// with a handful of captures does. Scan visitors are built and called on
// every query evaluation, so that allocation used to be per read.
// FunctionRef stores only the callable's address and a trampoline: it
// never allocates and is two pointers wide.
//
// Lifetime: the referenced callable must outlive every call. Take a
// FunctionRef as a by-value parameter and call it before returning; never
// store one past the call that received it.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace sdl {

template <class Signature>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(&trampoline<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  template <class F>
  static R trampoline(void* obj, Args... args) {
    return std::invoke(*static_cast<F*>(obj), std::forward<Args>(args)...);
  }

  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace sdl
