/**
 * @file
 * FNV-1a byte hashing, the one hash behind every content fingerprint:
 * dsp::DecodeKey, vliw::PackKey and service::ModelKey each run two
 * independently seeded lanes (kFnvLaneA / kFnvLaneB) over the same
 * canonical byte stream for 128 bits of key.
 */
#ifndef GCD2_COMMON_FNV_H
#define GCD2_COMMON_FNV_H

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace gcd2::common {

/** Standard FNV-1a offset basis (first fingerprint lane). */
inline constexpr uint64_t kFnvLaneA = 0xcbf29ce484222325ULL;
/** Golden-ratio seed of the second, independent fingerprint lane. */
inline constexpr uint64_t kFnvLaneB = 0x9e3779b97f4a7c15ULL;

/** FNV-1a over an arbitrary byte stream, seedable for a second lane. */
class Fnv
{
  public:
    explicit Fnv(uint64_t seed) : h_(seed) {}

    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    /** The object representation of @p v. */
    template <typename T>
    void
    value(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(v));
    }

    /** Length-prefixed element sequence. */
    template <typename T>
    void
    sequence(const std::vector<T> &values)
    {
        value(static_cast<uint64_t>(values.size()));
        for (const T &v : values)
            value(v);
    }

    uint64_t digest() const { return h_; }

  private:
    uint64_t h_;
};

} // namespace gcd2::common

#endif // GCD2_COMMON_FNV_H
