/**
 * @file
 * Saturation / rounding arithmetic shared by the reference interpreter
 * (functional_sim.cc) and the pre-decoded execution engine (decoded.cc).
 *
 * Both executors must implement identical integer semantics -- the decoded
 * engine is verified bit-identical against the interpreter by differential
 * tests -- so the helpers live in one header instead of being duplicated.
 */
#ifndef GCD2_DSP_SIM_MATH_H
#define GCD2_DSP_SIM_MATH_H

#include <algorithm>
#include <cstdint>

namespace gcd2::dsp {

inline int8_t
sat8(int32_t v)
{
    return static_cast<int8_t>(std::clamp(v, -128, 127));
}

inline uint8_t
usat8(int32_t v)
{
    return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

inline int16_t
sat16(int64_t v)
{
    return static_cast<int16_t>(std::clamp<int64_t>(v, INT16_MIN, INT16_MAX));
}

/**
 * A 32-bit word-lane result with the DSP's two's-complement wraparound.
 * Word lanes add, subtract, accumulate and multiply in 64 bits (an
 * int32 x int32 product fits) and keep the low 32 bits here: the same
 * int32 arithmetic would be signed overflow, which C++ leaves undefined.
 */
inline int32_t
wrap32(int64_t v)
{
    return static_cast<int32_t>(static_cast<uint32_t>(v));
}

/** Round-then-arithmetic-shift used by the narrowing shifts. */
inline int64_t
roundShift(int64_t v, int shift)
{
    if (shift <= 0)
        return v;
    return (v + (int64_t{1} << (shift - 1))) >> shift;
}

} // namespace gcd2::dsp

#endif // GCD2_DSP_SIM_MATH_H
