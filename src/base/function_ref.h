// Non-owning reference to a callable: an object pointer plus a trampoline,
// two words, no allocation. Parameters that are invoked only before the
// callee returns (ThreadPool::ParallelFor, InferenceParallelFor) take one
// instead of a std::function, so passing a capturing lambda never touches
// the heap. The referenced callable must outlive every call made through
// the reference.
#ifndef PERCIVAL_SRC_BASE_FUNCTION_REF_H_
#define PERCIVAL_SRC_BASE_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace percival {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // Implicit, so a lambda argument binds directly.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace percival

#endif  // PERCIVAL_SRC_BASE_FUNCTION_REF_H_
