// Negative fixture for `atomic-order`: the futex-word lock idioms of
// src/util/sync.* -- a compare-and-swap whose success and failure
// orders sit on continuation lines, a fetch_and with its order, and a
// futex syscall on the word's address (the kernel's compare is not an
// atomic member call, so it needs no order argument).
#include <atomic>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace molcache {

bool
goodTryLock(std::atomic<unsigned> &word)
{
    unsigned expected = 0;
    return word.compare_exchange_strong(expected, 1u,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

void
goodUnlockAndWake(std::atomic<unsigned> &word)
{
    if (word.fetch_and(~3u, std::memory_order_release) != 1u)
        syscall(SYS_futex, static_cast<void *>(&word),
                FUTEX_WAKE_BITSET_PRIVATE, 1, nullptr, nullptr, 1u);
}

} // namespace molcache
