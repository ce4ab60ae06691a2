/**
 * @file
 * The repo's only sanctioned mutex/condition-variable vocabulary.
 *
 * mc::Mutex (a futex-word lock, below), mc::MutexLock and mc::CondVar
 * (std::condition_variable_any on that Mutex) carry the Clang Thread
 * Safety Analysis capability annotations
 * (util/thread_annotations.hpp), so every guarded member can name the
 * mutex that protects it and an access without the lock is a compile
 * error under the clang presets.  Raw std::mutex /
 * std::condition_variable / std::lock_guard / std::unique_lock outside
 * this header are a molcache-lint `naked-mutex` finding: unannotated
 * primitives are invisible to the analysis, so they would silently
 * punch holes in the machine-checked discipline ROADMAP item 1's
 * concurrent service depends on.
 *
 * Deliberately small surface:
 *
 *   - Mutex: exclusive-only (no shared/timed variants until a caller
 *     needs them), non-recursive.
 *   - MutexLock: scope-shaped RAII holder, no unlock()/release() —
 *     early release hides the critical-section extent from both the
 *     reader and the analysis; end the scope instead.
 *   - CondVar: waits on the Mutex directly (condition_variable_any), so
 *     waiting code stays in the annotated vocabulary.  Only the
 *     while-loop form is supported: callers re-check their predicate
 *     around wait(), which is also what keeps
 *     bugprone-spuriously-wake-up-functions happy at call sites.
 *
 * docs/static_analysis.md ("Concurrency discipline") has the usage
 * rules and escape hatches.
 */

#ifndef MOLCACHE_UTIL_SYNC_HPP
#define MOLCACHE_UTIL_SYNC_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>

#include "util/thread_annotations.hpp"
#include "util/types.hpp"

// ThreadSanitizer models pthread mutexes itself but sees mc::Mutex only
// as atomics: enough to order memory, not enough for its lock-order
// (deadlock) reports or its held-mutex sets.  The detail::tsan* hooks
// below describe Mutex to it; they compile to nothing in other builds.
#if defined(__SANITIZE_THREAD__)
#define MOLCACHE_TSAN_MUTEX 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MOLCACHE_TSAN_MUTEX 1
#endif
#endif

#ifdef MOLCACHE_TSAN_MUTEX
#include <sanitizer/tsan_interface.h>
#endif

namespace molcache {
namespace mc {

namespace detail {

#ifdef MOLCACHE_TSAN_MUTEX
inline constexpr unsigned kTsanTryLock = __tsan_mutex_try_lock;
inline constexpr unsigned kTsanTryLockFailed =
    __tsan_mutex_try_lock | __tsan_mutex_try_lock_failed;
inline void
tsanMutexCreate(void *m)
{
    __tsan_mutex_create(m, 0);
}
inline void
tsanMutexDestroy(void *m)
{
    __tsan_mutex_destroy(m, 0);
}
inline void
tsanPreLock(void *m, unsigned flags)
{
    __tsan_mutex_pre_lock(m, flags);
}
inline void
tsanPostLock(void *m, unsigned flags)
{
    __tsan_mutex_post_lock(m, flags, 0);
}
inline void
tsanPreUnlock(void *m)
{
    __tsan_mutex_pre_unlock(m, 0);
}
inline void
tsanPostUnlock(void *m)
{
    __tsan_mutex_post_unlock(m, 0);
}
#else
inline constexpr unsigned kTsanTryLock = 0;
inline constexpr unsigned kTsanTryLockFailed = 0;
inline void tsanMutexCreate(void *) {}
inline void tsanMutexDestroy(void *) {}
inline void tsanPreLock(void *, unsigned) {}
inline void tsanPostLock(void *, unsigned) {}
inline void tsanPreUnlock(void *) {}
inline void tsanPostUnlock(void *) {}
#endif

} // namespace detail

/**
 * An annotated exclusive mutex (a TSA "capability") that barges but
 * bounds starvation.
 *
 * One 32-bit futex word holds the whole state.  An uncontended lock()
 * is one compare-and-swap and unlock() one fetch_and, and a release
 * never hands the lock to a parked waiter: whoever comes next takes it
 * (barging), so a thread that re-locks straight after unlocking keeps
 * running while a parked waiter is still waking up.  That keeps the
 * common case fast, but left alone it lets a busy re-locker starve a
 * waiter for milliseconds.  So a waiter that has waited kStarvationBound
 * raises the handoff flag: while it is up, lock(), try_lock() and every
 * other waiter stand back, the next release wakes the flagged waiter
 * and nobody else, and the flag clears when that waiter takes the lock
 * (Go's sync.Mutex starvation mode).  Waiters park at once; only the
 * flagged waiter spins, and only for a few microseconds.
 * docs/molcached.md ("Shard locks") has the measurements behind the
 * design.  Linux only (futex).
 */
class MOLCACHE_CAPABILITY("mutex") Mutex
{
  public:
    /** A waiter that has waited this long claims the next release. */
    static constexpr std::chrono::microseconds kStarvationBound{100};

    Mutex() { detail::tsanMutexCreate(this); }
    ~Mutex() { detail::tsanMutexDestroy(this); }
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() MOLCACHE_ACQUIRE()
    {
        detail::tsanPreLock(this, 0);
        u32 expected = 0;
        if (!state_.compare_exchange_weak(expected, kLocked,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed))
            lockSlow();
        detail::tsanPostLock(this, 0);
    }

    void
    unlock() MOLCACHE_RELEASE()
    {
        detail::tsanPreUnlock(this);
        // Clearing kContended with kLocked is safe: every waiter that
        // stays parked is re-covered by the one this release wakes,
        // which marks the word contended again when it takes the lock
        // or parks.
        const u32 prior = state_.fetch_and(~(kLocked | kContended),
                                           std::memory_order_release);
        if (prior != kLocked)
            wake(prior);
        detail::tsanPostUnlock(this);
    }

    bool
    try_lock() MOLCACHE_TRY_ACQUIRE(true)
    {
        detail::tsanPreLock(this, detail::kTsanTryLock);
        // Unlocked with no handoff pending is exactly state 0 (see
        // unlock()), so one strong CAS decides.
        u32 expected = 0;
        const bool acquired = state_.compare_exchange_strong(
            expected, kLocked, std::memory_order_acquire,
            std::memory_order_relaxed);
        detail::tsanPostLock(this, acquired ? detail::kTsanTryLock
                                            : detail::kTsanTryLockFailed);
        return acquired;
    }

  private:
    /** Held. */
    static constexpr u32 kLocked = 1u << 0;
    /** Waiters may be parked: the next release must wake one. */
    static constexpr u32 kContended = 1u << 1;
    /** A starved waiter owns the next release. */
    static constexpr u32 kHandoff = 1u << 2;

    void lockSlow();
    void lockHandoff();
    void wake(u32 prior);

    std::atomic<u32> state_{0};
};

/**
 * RAII holder: acquires in the constructor, releases in the destructor.
 * The TSA scoped-capability annotation makes the held extent visible to
 * the analysis, so guarded members are accessible exactly inside the
 * lexical scope of the lock object.
 */
class MOLCACHE_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) MOLCACHE_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() MOLCACHE_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

/**
 * A condition variable that waits on mc::Mutex directly.
 *
 * wait() must be called with the mutex held (TSA-enforced) and — like
 * every condition variable — inside a while loop re-checking the
 * condition, because wakeups may be spurious and the predicate usually
 * reads guarded state the analysis wants to see under the caller's own
 * lock scope:
 *
 *     mc::MutexLock lock(mutex_);
 *     while (!condition())   // reads MOLCACHE_GUARDED_BY(mutex_) state
 *         cv_.wait(mutex_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /**
     * Atomically release @p mutex, sleep, and re-acquire before
     * returning.  The enclosing while loop lives at the call site; the
     * suppression below is the one place the "wait needs a loop" check
     * cannot see the caller's loop.
     */
    void
    wait(Mutex &mutex) MOLCACHE_REQUIRES(mutex)
    {
        // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions): the
        // re-check loop is the documented caller contract (see above);
        // this wrapper is the loop body, not the loop.
        cv_.wait(mutex);
    }

    /**
     * wait() with a deadline: returns after a notification, a spurious
     * wakeup or @p millis milliseconds, whichever comes first — the
     * caller's while loop re-checks the predicate either way, so the
     * return value would only invite skipping that re-check and is
     * deliberately void.  This is what periodic control threads (the
     * molcached epoch thread) use to both pace their work and notice a
     * stop request promptly.
     */
    void
    waitFor(Mutex &mutex, u64 millis) MOLCACHE_REQUIRES(mutex)
    {
        // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions): as with
        // wait(), the re-check loop is the documented caller contract.
        cv_.wait_for(mutex, std::chrono::milliseconds(millis));
    }

    void
    notifyOne()
    {
        cv_.notify_one();
    }

    void
    notifyAll()
    {
        cv_.notify_all();
    }

  private:
    std::condition_variable_any cv_;
};

} // namespace mc
} // namespace molcache

#endif // MOLCACHE_UTIL_SYNC_HPP
