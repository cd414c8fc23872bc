// Minimal stackful fibers for the worker-pool executor (sim/executor.hpp).
//
// A Fiber is a suspendable call stack: the executor switches a worker
// thread between many machine fibers with swapcontext, so a logical
// machine that blocks at the superstep barrier parks its *stack* instead
// of an OS thread.  This is the mechanism that decouples k (logical
// machines) from the hardware thread count — the same move gpgpu-sim
// makes when it multiplexes thousands of simulated contexts over a
// handful of host threads.
//
// Scope is deliberately tiny — exactly what the executor needs, nothing
// a general coroutine library carries:
//  - One switch primitive (FiberContext::switch_to), symmetric between
//    a worker's native context and its fibers.
//  - Stacks are private anonymous mmaps with a PROT_NONE guard page at
//    the low end, so an overflowing machine program faults loudly
//    instead of corrupting a neighbouring fiber's stack.  Pages are
//    committed lazily by the kernel: k = 4096 fibers of 256 KiB reserve
//    1 GiB of address space but only touch what the programs use.
//  - Sanitizer integration: under ASan every switch is bracketed with
//    __sanitizer_start/finish_switch_fiber (fake-stack hand-off), and
//    under TSan each fiber owns a __tsan_create_fiber state so the race
//    detector tracks the logical, not physical, thread of execution.
//    Without these, both sanitizers see one OS thread jumping between
//    unrelated stacks and drown the build in false positives.
//
// Threading contract: a Fiber is created, run, and destroyed by one
// worker thread (the executor never migrates a machine across workers),
// so nothing here is synchronized.
#pragma once

#include <cstddef>
#include <ucontext.h>

namespace km {

/// Stack reservation per engine machine fiber.  256 KiB holds every
/// workload in the tree with headroom.  Address space, not memory: pages
/// are committed lazily, so huge k stays cheap until a program actually
/// recurses deeply.
inline constexpr std::size_t kDefaultFiberStackBytes = 256 * 1024;

/// Guard-paged stack for one fiber.  Movable, not copyable.
class FiberStack {
 public:
  /// Rounds `bytes` up to whole pages and adds one PROT_NONE guard page
  /// below the usable range.  Throws std::bad_alloc when mmap fails.
  explicit FiberStack(std::size_t bytes);
  ~FiberStack();
  FiberStack(FiberStack&& other) noexcept;
  FiberStack& operator=(FiberStack&& other) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Lowest usable address (just above the guard page).
  void* base() const noexcept { return base_; }
  /// Usable bytes (the guard page is not included).
  std::size_t size() const noexcept { return size_; }

 private:
  void* map_ = nullptr;        ///< mmap origin (guard page)
  std::size_t map_bytes_ = 0;  ///< total mapped length
  void* base_ = nullptr;       ///< usable stack bottom
  std::size_t size_ = 0;       ///< usable stack bytes
};

/// One switchable execution context: either a worker thread's native
/// context (default-constructed, no stack) or a fiber entry point bound
/// to a FiberStack.  switch_to() is the only way control moves between
/// contexts; the sanitizer bookkeeping lives entirely inside it.
class FiberContext {
 public:
  using Entry = void (*)(void* arg);

  /// Native context of the calling thread (a switch target only; its
  /// state is captured by the swapcontext that leaves it).
  FiberContext();
  /// Fiber context: the first switch_to() into it calls entry(arg) on
  /// `stack`.  `entry` must not return — it must switch away with
  /// `terminating = true` as its last act (the executor's trampoline
  /// guarantees this).
  FiberContext(const FiberStack& stack, Entry entry, void* arg);
  ~FiberContext();
  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Suspends `from` (the running context) and resumes `to`.  Returns
  /// when something switches back into `from`.  `terminating` means
  /// `from` is exiting for good: its sanitizer state is torn down and it
  /// must never be switched into again.
  static void switch_to(FiberContext& from, FiberContext& to,
                        bool terminating = false);

 private:
  // makecontext only forwards ints, so the entry thunk receives `this`
  // split across two words and re-joins them (the split-pointer idiom).
  static void trampoline(unsigned hi, unsigned lo);
  // Sanitizer bookkeeping common to both ways control can land in a
  // context (swapcontext returning, or the trampoline starting).
  static void on_resume(FiberContext& landed);

  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  ucontext_t ctx_;
  // Target stack bounds advertised to ASan on switches *into* this
  // context.  For the native context they are learned from the first
  // switch out of it (finish_switch_fiber reports the stack just left).
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;  ///< ASan fake-stack save slot
  void* tsan_fiber_ = nullptr;       ///< TSan logical-thread state
  bool owns_tsan_fiber_ = false;
};

}  // namespace km
