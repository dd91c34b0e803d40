// Counting global allocator.  alloc_count.cpp replaces the global
// operator new of whichever binary links it; every heap allocation on any
// thread bumps one relaxed counter.  Frees are not counted: the metric is
// allocations per request, not balance.
#pragma once

#include <cstdint>

namespace e2e {

/// Heap allocations made by this process so far.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace e2e
