// Annotated synchronization primitives — the only place in src/ allowed to
// name the raw std:: mutex types (enforced by tools/lint.sh).
//
// Every wrapper carries Clang thread-safety attributes, so under
//   clang++ -Wthread-safety -Werror=thread-safety   (the `strict` preset)
// the compiler proves the lock discipline: a field declared
// PANE_GUARDED_BY(mu_) cannot be touched without holding mu_, a method
// declared PANE_REQUIRES(mu_) cannot be called without it, and a scoped
// MutexLock cannot be forgotten on an early return. On GCC (and any other
// non-Clang compiler) the attributes expand to nothing and the wrappers are
// zero-cost forwarding shims over the std primitives, so the annotations
// never change behavior — only what the compiler is able to reject.
//
// Usage pattern (see thread_pool.h, server.h for real ones):
//
//   class Worklist {
//    public:
//     void Push(Item item) PANE_EXCLUDES(mu_) {
//       MutexLock lock(&mu_);
//       queue_.push_back(std::move(item));
//       cv_.Signal();
//     }
//    private:
//     Mutex mu_;
//     CondVar cv_;
//     std::deque<Item> queue_ PANE_GUARDED_BY(mu_);
//   };
//
// Condition waits are written as explicit loops (`while (!pred)
// cv_.Wait(&mu_);`) rather than predicate lambdas: the analysis sees the
// guarded reads inside the loop under the scoped lock, whereas a lambda
// body would be opaque to it.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang). Names follow the capability
// vocabulary of https://clang.llvm.org/docs/ThreadSafetyAnalysis.html with a
// PANE_ prefix so they cannot collide with other libraries' spellings.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PANE_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PANE_THREAD_ANNOTATION
#define PANE_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

/// Marks a class as a lockable capability (e.g. "mutex").
#define PANE_CAPABILITY(x) PANE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define PANE_SCOPED_CAPABILITY PANE_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a field may only be accessed while holding the capability.
#define PANE_GUARDED_BY(x) PANE_THREAD_ANNOTATION(guarded_by(x))

/// Declares that the data a pointer field points to is guarded.
#define PANE_PT_GUARDED_BY(x) PANE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (exclusively / shared) and holds it on
/// return.
#define PANE_ACQUIRE(...) \
  PANE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PANE_ACQUIRE_SHARED(...) \
  PANE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define PANE_RELEASE(...) \
  PANE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PANE_RELEASE_SHARED(...) \
  PANE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function may only be called while holding the capability.
#define PANE_REQUIRES(...) \
  PANE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PANE_REQUIRES_SHARED(...) \
  PANE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function may only be called while NOT holding the capability (deadlock
/// guard for public entry points that take the lock themselves).
#define PANE_EXCLUDES(...) PANE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability only when it returns `true`.
#define PANE_TRY_ACQUIRE(...) \
  PANE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Runtime no-op that tells the analysis the capability is held here.
#define PANE_ASSERT_CAPABILITY(x) \
  PANE_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define PANE_RETURN_CAPABILITY(x) PANE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch; use only with a comment explaining why the analysis is
/// wrong (e.g. locks handed across threads).
#define PANE_NO_THREAD_SAFETY_ANALYSIS \
  PANE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pane {

class CondVar;

// ---------------------------------------------------------------------------
// Mutex: exclusive lock. The codebase's default primitive.

class PANE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PANE_ACQUIRE() { mu_.lock(); }
  void Unlock() PANE_RELEASE() { mu_.unlock(); }
  bool TryLock() PANE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Static-analysis assertion that this mutex is held (no runtime check:
  /// std::mutex has no portable ownership query). Use it at the top of
  /// private helpers reached only under the lock when an annotation cannot
  /// express the path.
  void AssertHeld() const PANE_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// SharedMutex: writer/reader lock for read-mostly state (e.g. the container
// verify memo: readers check the bit, one writer verifies pages).

class PANE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() PANE_ACQUIRE() { mu_.lock(); }
  void Unlock() PANE_RELEASE() { mu_.unlock(); }
  void ReaderLock() PANE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() PANE_RELEASE_SHARED() { mu_.unlock_shared(); }

  void AssertHeld() const PANE_ASSERT_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// ---------------------------------------------------------------------------
// Scoped lockers. Constructors take a pointer (never null) so call sites
// read `MutexLock lock(&mu_);` and the analysis tracks the capability.

class PANE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PANE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PANE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

class PANE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) PANE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() PANE_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

class PANE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) PANE_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() PANE_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// ---------------------------------------------------------------------------
// CondVar: condition variable bound to Mutex. Wait() releases and reacquires
// the mutex; callers hold it across the call, so the annotation is
// REQUIRES(mu). Spurious wakeups are possible — always wait in a loop:
//
//   MutexLock lock(&mu_);
//   while (!ready_) cv_.Wait(&mu_);

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu, blocks until notified (or spuriously wakes),
  /// and reacquires *mu before returning.
  void Wait(Mutex* mu) PANE_REQUIRES(mu);

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pane
