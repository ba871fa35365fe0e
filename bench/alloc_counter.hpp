// Process-global heap allocation counter.
//
// Linking alloc_counter.cpp into a binary replaces the global operator
// new/delete pair with counting versions; alloc_count() then reads the
// number of allocations performed so far, and alloc_live_bytes() the heap
// those still hold. Used by the microbenchmarks to
// report allocs/event and by the perf regression tests to pin the hot
// paths at zero steady-state allocations.
#pragma once

#include <cstdint>

namespace dproc::bench {

/// Allocations (operator new calls) since process start.
std::uint64_t alloc_count();

/// Heap bytes held by live operator-new blocks (each block's usable size,
/// so allocator rounding counts; chunk headers do not).
std::int64_t alloc_live_bytes();

}  // namespace dproc::bench
