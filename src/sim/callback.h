// A move-only callable with a small inline buffer. `Callback`, its
// `void()` form, is the type of an event-loop slot.
//
// std::function stores targets larger than 16 bytes (libstdc++), and any
// target that is not trivially copyable (a std::weak_ptr capture, say), on
// the heap, which would cost nearly every simulator event -- a network
// delivery closure, a `[this, gtid]` timer, a lock-grant wrapper -- one
// allocation and one free. An InlineFunction keeps targets of up to
// kInlineSize bytes in place and falls back to the heap only for larger
// ones. Being move-only, it also accepts captures such as std::unique_ptr.

#ifndef HERMES_SIM_CALLBACK_H_
#define HERMES_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hermes::sim {

template <typename Signature, size_t InlineSize>
class InlineFunction;

template <typename R, typename... Args, size_t InlineSize>
class InlineFunction<R(Args...), InlineSize> {
 public:
  static constexpr size_t kInlineSize = InlineSize;

  // True when a target of type F is stored in place (no allocation).
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor): like std::function
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Runs the target; the InlineFunction must not be empty. Const, as
  // std::function's is, so a closure's by-copy capture can be called.
  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  // Destroys the target, leaving the InlineFunction empty.
  void Reset() {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(buf_);
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args... args);
    // Move-constructs the target into `to` and destroys it in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args... args) -> R {
        return (*std::launder(static_cast<D*>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        D* src = std::launder(static_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* buf) noexcept { std::launder(static_cast<D*>(buf))->~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args... args) -> R {
        return (**std::launder(static_cast<D**>(buf)))(
            std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        ::new (to) D*(*std::launder(static_cast<D**>(from)));
      },
      [](void* buf) noexcept { delete *std::launder(static_cast<D**>(buf)); },
  };

  void MoveFrom(InlineFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    ops_ = other.ops_;
    other.ops_ = nullptr;
    ops_->relocate(other.buf_, buf_);
  }

  alignas(void*) mutable unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

using Callback = InlineFunction<void(), 48>;

}  // namespace hermes::sim

#endif  // HERMES_SIM_CALLBACK_H_
