// Move-only callable with small-buffer storage.
//
// std::function<void()> heap-allocates for any capture beyond two pointers
// and requires copyability; the kernel's scheduled callbacks (commit-queue
// deliveries carrying a whole OpMessage, timer lambdas holding shared_ptrs)
// blow past that on every event. SmallFunc inlines captures up to
// kInlineBytes -- sized to fit a commit-queue delivery -- and only falls
// back to the heap beyond that, and it accepts move-only captures so
// messages can be *moved* through the event queue instead of copied.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pacon::sim {

class SmallFunc {
 public:
  /// Inline capture capacity. 128 bytes holds a commit-queue delivery -- a
  /// 16-byte shared_ptr to the queue's channel plus a moved 112-byte
  /// OpMessage -- without touching the allocator.
  static constexpr std::size_t kInlineBytes = 128;

  SmallFunc() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFunc> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFunc(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &heap_vtable<Fn>;
    }
  }

  SmallFunc(SmallFunc&& other) noexcept : vt_(other.vt_) {
    if (vt_) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  SmallFunc& operator=(SmallFunc&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_) {
        vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  SmallFunc(const SmallFunc&) = delete;
  SmallFunc& operator=(const SmallFunc&) = delete;

  ~SmallFunc() { reset(); }

  void operator()() { vt_->invoke(buf_); }

  explicit operator bool() const { return vt_ != nullptr; }

  void reset() {
    if (vt_) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs into `to` from `from` and destroys the source.
    void (*relocate)(void* to, void* from);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr VTable inline_vtable{
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* to, void* from) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable heap_vtable{
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* to, void* from) {
        Fn** src = std::launder(reinterpret_cast<Fn**>(from));
        ::new (to) Fn*(*src);  // steal the heap object, no reallocation
      },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

}  // namespace pacon::sim
