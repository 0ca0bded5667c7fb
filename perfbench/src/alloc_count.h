#pragma once

#include <cstdint>

/// Process-wide count of heap allocations, kept by the replacement global
/// operator new in alloc_count.cpp. Every allocation made through any form of
/// `new` (including the standard containers' allocators) is counted;
/// malloc() calls made directly are not.
namespace perfbench {

[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace perfbench
