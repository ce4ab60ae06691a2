// Positive fixture for `atomic-order`: bare std::atomic operations
// whose call sites do not spell out a std::memory_order.  Implicit
// seq_cst hides both the intended synchronization contract and its
// cost.
#include <atomic>

namespace molcache {

std::atomic<unsigned long> g_bad_count{0};

unsigned long
bumpWithoutOrders()
{
    g_bad_count.store(1);     // finding: store without an order
    g_bad_count.fetch_add(2); // finding: fetch_add without an order
    return g_bad_count.load(); // finding: load without an order
}

bool
lockWordWithoutOrders(std::atomic<unsigned> &word)
{
    unsigned expected = 0;
    if (word.compare_exchange_weak(expected, 1u)) // finding: CAS, no order
        return true;
    word.fetch_and(~1u); // finding: fetch_and without an order
    return false;
}

} // namespace molcache
