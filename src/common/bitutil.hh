/**
 * @file
 * Small bit-manipulation helpers shared by caches, predictors and tables.
 */

#ifndef CATCHSIM_COMMON_BITUTIL_HH_
#define CATCHSIM_COMMON_BITUTIL_HH_

#include <cstddef>
#include <cstdint>

namespace catchsim
{

/**
 * Wrapping address subtraction interpreted as signed — the 64-bit
 * subtractor a stride detector would be in hardware. Computing this as
 * int64 subtraction is UB on pointer-valued garbage (UBSan-caught);
 * unsigned wraparound plus the C++20 modular narrowing is the defined
 * spelling of the same two's-complement result.
 */
constexpr int64_t
addrDelta(uint64_t a, uint64_t b)
{
    return static_cast<int64_t>(a - b);
}

/** Wrapping add of a signed offset to an address (hardware adder). */
constexpr uint64_t
addrOffset(uint64_t base, int64_t delta)
{
    return base + static_cast<uint64_t>(delta);
}

/** Wrapping base + stride*count (a runahead prefetcher's AGU). */
constexpr uint64_t
addrStride(uint64_t base, int64_t stride, uint64_t count)
{
    return base + static_cast<uint64_t>(stride) * count;
}

/** Wrapping scale*value+base address computation (shift-and-add AGU). */
constexpr uint64_t
addrScaled(int64_t scale, uint64_t value, int64_t base)
{
    return static_cast<uint64_t>(scale) * value +
           static_cast<uint64_t>(base);
}

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(v); v must be non-zero. */
constexpr uint32_t
floorLog2(uint64_t v)
{
    uint32_t r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/** Ceiling of log2(v); v must be non-zero. */
constexpr uint32_t
ceilLog2(uint64_t v)
{
    return isPowerOfTwo(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/**
 * Mixes the bits of a 64-bit value (splitmix64 finalizer). Used to hash
 * PCs and addresses into table indices without pathological aliasing.
 */
constexpr uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Hardware-style folded hash of a PC down to @p bits bits. The paper's DDG
 * stores 10-bit hashed PC addresses; this models that lossy compression.
 */
constexpr uint64_t
hashPc(uint64_t pc, uint32_t bits)
{
    uint64_t h = pc >> 2; // instructions are 4-byte aligned in our traces
    uint64_t folded = 0;
    while (h) {
        folded ^= h & ((1ULL << bits) - 1);
        h >>= bits;
    }
    return folded;
}

/** Incremental 64-bit FNV-1a over @p n bytes; chain via @p h. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = 1469598103934665603ULL)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace catchsim

#endif // CATCHSIM_COMMON_BITUTIL_HH_
