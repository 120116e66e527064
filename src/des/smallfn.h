// Move-only `void()` callable with inline small-object storage.
//
// The engine's hot path schedules millions of short-lived callbacks whose
// captures are a few pointers (link backlog updates, transit-record hops,
// packet deliveries). std::function heap-allocates once captures exceed its
// ~16-byte small-object buffer; SmallFn widens the inline buffer so every
// callback the simulator core produces is stored inside the event slot
// itself, and falls back to the heap only for oversized captures.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace des {

class SmallFn {
 public:
  /// Large enough for every hot-path capture. The largest is
  /// smpi::Runtime's receive completion (~72 bytes), so 80 would fit, but
  /// it measured no faster: over 8 alternating pairs of a 64x2 Release
  /// mpibench sweep the median was 2.22 s at 112 bytes and 2.33 s at 80,
  /// with 80 ahead in 2 of 8 pairs and identical outputs.
  static constexpr std::size_t kInlineBytes = 112;

  /// True when a callable of type F is stored in the inline buffer rather
  /// than on the heap. Exposed so benchmarks can assert hot-path callbacks
  /// stay allocation-free.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at schedule_at call sites
    emplace(std::forward<F>(f));
  }

  /// Destroys any held callable and constructs `f` in place (no
  /// intermediate SmallFn move).
  template <typename F>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) noexcept { std::launder(static_cast<Fn*>(p))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(static_cast<Fn**>(src)));
      },
      [](void* p) noexcept { delete *std::launder(static_cast<Fn**>(p)); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace des
