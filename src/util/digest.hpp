#pragma once
// FNV-1a digests for golden-output pins: tests pin behaviour by a 64-bit
// FNV-1a hash of the bytes it produces (rendered scenario JSON, CSV ledgers,
// raw doubles of trained parameters), checked in next to the test.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace lotus::util {

/// 64-bit FNV-1a of `bytes` as 16 lowercase hex digits.
[[nodiscard]] inline std::string fnv1a_hex(std::string_view bytes) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

} // namespace lotus::util
