// Non-owning reference to a callable.
//
// An API that only calls back while it runs (a gather source, a delivery
// sink) takes a FunctionRef instead of a std::function: binding a
// capturing lambda stores two pointers and never touches the allocator.
// The referenced callable must outlive the call it is passed to, which a
// lambda written at the call site always does.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace cruz {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace cruz
