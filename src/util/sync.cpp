/**
 * @file
 * mc::Mutex's slow paths: parking on and waking through the futex word.
 */

#include "util/sync.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace molcache {
namespace mc {

namespace {

using Clock = std::chrono::steady_clock;

static_assert(sizeof(std::atomic<u32>) == sizeof(u32) &&
                  std::atomic<u32>::is_always_lock_free,
              "the futex word must be a plain lock-free 32-bit atomic");

/** How long the flagged waiter spins before it parks.  Short: the
 * holder it waits for holds for ~10 us on average, and an oversubscribed
 * host must not lose a CPU to a spinner that holds up the holder. */
constexpr std::chrono::microseconds kHandoffSpin{4};

/** Futex wake bitsets: parked waiters and the flagged waiter sleep on
 * the same word, and a release wakes exactly the kind it owes. */
constexpr u32 kParkedWaiter = 1u << 0;
constexpr u32 kFlaggedWaiter = 1u << 1;

/** Sleep while @p word reads @p expected (returns at once otherwise, on
 * a wake of @p kind, or spuriously; callers re-read the word). */
void
futexWait(std::atomic<u32> &word, u32 expected, u32 kind)
{
    syscall(SYS_futex, static_cast<void *>(&word), FUTEX_WAIT_BITSET_PRIVATE,
            expected, nullptr, nullptr, kind);
}

/** Wake one sleeper of @p kind on @p word. */
void
futexWakeOne(std::atomic<u32> &word, u32 kind)
{
    syscall(SYS_futex, static_cast<void *>(&word), FUTEX_WAKE_BITSET_PRIVATE,
            1, nullptr, nullptr, kind);
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

void
Mutex::lockSlow()
{
    const Clock::time_point start = Clock::now();
    for (;;) {
        u32 s = state_.load(std::memory_order_relaxed);
        if ((s & (kLocked | kHandoff)) == 0) {
            // Free and unclaimed: take it.  Other waiters may still be
            // parked, so the release must wake one.
            if (state_.compare_exchange_weak(s, s | kLocked | kContended,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
                return;
            continue;
        }
        if ((s & kHandoff) == 0 &&
            Clock::now() - start >= kStarvationBound) {
            if (state_.compare_exchange_weak(s, s | kHandoff,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
                lockHandoff();
                return;
            }
            continue;
        }
        if ((s & kContended) == 0) {
            if (!state_.compare_exchange_weak(s, s | kContended,
                                              std::memory_order_relaxed,
                                              std::memory_order_relaxed))
                continue;
            s |= kContended;
        }
        futexWait(state_, s, kParkedWaiter);
    }
}

void
Mutex::lockHandoff()
{
    // This thread raised kHandoff, so nobody else takes the lock until
    // it does; it only has to wait for the holder to let go.
    const Clock::time_point spinUntil = Clock::now() + kHandoffSpin;
    bool spin = true;
    for (;;) {
        u32 s = state_.load(std::memory_order_relaxed);
        if ((s & kLocked) == 0) {
            if (state_.compare_exchange_weak(
                    s, (s | kLocked | kContended) & ~kHandoff,
                    std::memory_order_acquire, std::memory_order_relaxed))
                return;
            continue;
        }
        if (spin) {
            cpuRelax();
            spin = Clock::now() < spinUntil;
            continue;
        }
        futexWait(state_, s, kFlaggedWaiter);
    }
}

void
Mutex::wake(u32 prior)
{
    if ((prior & kHandoff) != 0)
        futexWakeOne(state_, kFlaggedWaiter);
    else if ((prior & kContended) != 0)
        futexWakeOne(state_, kParkedWaiter);
}

} // namespace mc
} // namespace molcache
