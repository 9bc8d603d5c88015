#include "vliw/pack_cache.h"

#include <bit>

#include "common/timer.h"

namespace gcd2::vliw {

namespace {

void
hashRequest(const dsp::Program &prog, const PackOptions &opts,
            common::Fnv &fnv)
{
    dsp::hashProgramText(prog, fnv);
    // Options: the policy plus the exact bit patterns of the scoring
    // tunables (two doubles that differ in any bit pack differently).
    fnv.value(uint64_t{0x9acc});
    fnv.value(static_cast<uint8_t>(opts.policy));
    fnv.value(std::bit_cast<uint64_t>(opts.w));
    fnv.value(std::bit_cast<uint64_t>(opts.penaltyScale));
}

} // namespace

PackKey
fingerprintForPacking(const dsp::Program &prog, const PackOptions &opts)
{
    common::Fnv a(common::kFnvLaneA);
    common::Fnv b(common::kFnvLaneB);
    hashRequest(prog, opts, a);
    hashRequest(prog, opts, b);
    b.value(uint64_t{0x5eed});
    PackKey key;
    key.h0 = a.digest();
    key.h1 = b.digest();
    key.instructions = prog.code.size();
    key.policy = static_cast<uint8_t>(opts.policy);
    return key;
}

std::shared_ptr<const dsp::PackedProgram>
PackCache::lookupOrPack(const dsp::Program &prog, const PackOptions &opts)
{
    return lru_.lookupOrCompute(fingerprintForPacking(prog, opts), [&] {
        Timer timer;
        auto packed =
            std::make_shared<const dsp::PackedProgram>(pack(prog, opts));
        packNanos_.fetch_add(static_cast<uint64_t>(timer.seconds() * 1e9),
                             std::memory_order_relaxed);
        return packed;
    });
}

PackCache::Stats
PackCache::stats() const
{
    const common::CacheStats s = lru_.stats();
    return Stats{s.hits, s.misses, s.evictions,
                 static_cast<double>(
                     packNanos_.load(std::memory_order_relaxed)) *
                     1e-9};
}

void
PackCache::clear()
{
    lru_.clear();
    packNanos_.store(0, std::memory_order_relaxed);
}

PackCache &
PackCache::global()
{
    static PackCache cache;
    return cache;
}

} // namespace gcd2::vliw
