// A non-owning reference to a callable, for callbacks that never outlive
// the call they are passed to. Unlike `std::function` it never allocates,
// whatever the callable captures, so evaluation loops can pass lambdas
// freely.
#ifndef WAVE_COMMON_FUNCTION_REF_H_
#define WAVE_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace wave {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Refers to `fn`, which must outlive every call through this reference.
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, FunctionRef> &&
                std::is_invocable_r_v<R, Fn&, Args...>>>
  FunctionRef(Fn&& fn)  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<Fn>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace wave

#endif  // WAVE_COMMON_FUNCTION_REF_H_
