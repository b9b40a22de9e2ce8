#include "alloc_watch.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t n)
{
    if (g_armed.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

// The nothrow forms (std::stable_sort's temporary buffer, for one)
// must come from the same malloc/free pair, or a sanitizer sees
// memory from its own operator new released through std::free.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace refsched::testutil
{

AllocWatch::AllocWatch()
{
    g_news.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
}

AllocWatch::~AllocWatch()
{
    g_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t
AllocWatch::count() const
{
    return g_news.load(std::memory_order_relaxed);
}

} // namespace refsched::testutil
