#include "select/cost_cache.h"

#include <bit>

#include "common/fnv.h"

namespace gcd2::select {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
mix(uint64_t hash, uint64_t value)
{
    hash ^= value;
    return hash * kFnvPrime;
}

} // namespace

size_t
CostKeyHash::operator()(const CostKey &key) const noexcept
{
    uint64_t hash = common::kFnvLaneA;
    hash = mix(hash, static_cast<uint64_t>(key.kind));
    hash = mix(hash, static_cast<uint64_t>(static_cast<int64_t>(key.tag)));
    hash = mix(hash, static_cast<uint64_t>(key.unrollOut));
    hash = mix(hash, static_cast<uint64_t>(key.unrollCols));
    hash = mix(hash, static_cast<uint64_t>(key.unrollK));
    hash = mix(hash, static_cast<uint64_t>(key.extent));
    hash = mix(hash, static_cast<uint64_t>(key.policy));
    hash = mix(hash, std::bit_cast<uint64_t>(key.packW));
    hash = mix(hash, std::bit_cast<uint64_t>(key.packPenaltyScale));
    return static_cast<size_t>(hash);
}

} // namespace gcd2::select
