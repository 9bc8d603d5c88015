/**
 * @file
 * Process-wide cache of packed programs, keyed by content fingerprint.
 *
 * Packing is a pure function of (Program, PackOptions), and the compiler
 * packs the same few canonical kernel programs over and over: every
 * cost-model probe of a (plan, kernel) candidate, every kernel-generation
 * run, and (before PR 4) the audit pass each re-ran the full SDA ensemble
 * on identical inputs -- across plans, partitions, and whole compiles.
 * PackCache memoizes the PackedProgram exactly like dsp::DecodeCache
 * memoizes decoded programs; the two compose into a layered pipeline
 * (pack once -> decode once -> simulate many), with select::CostCache
 * above both memoizing the resulting kernel statistics.
 *
 * Keying mirrors DecodeCache: two independent FNV-1a lanes over the
 * instruction stream, labels and noalias ABI declaration, plus the
 * packing-relevant PackOptions fields (policy and the exact bit patterns
 * of the Eq. 4 tunables). Storage is the managed cache tier's bounded
 * sharded LRU (common::ShardedLru, DESIGN.md section 14): per-entry
 * least-recently-used eviction at the capacity bound, so the hot
 * canonical kernels survive indefinitely instead of being dropped by
 * the old wholesale epoch clear.
 */
#ifndef GCD2_VLIW_PACK_CACHE_H
#define GCD2_VLIW_PACK_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/lru_cache.h"
#include "vliw/packer.h"

namespace gcd2::vliw {

/** Content fingerprint of a (Program, PackOptions) packing request. */
struct PackKey
{
    uint64_t h0 = 0;
    uint64_t h1 = 0;
    uint64_t instructions = 0;
    uint8_t policy = 0;

    bool operator==(const PackKey &other) const = default;
};

/** Fingerprint covering everything pack() depends on. */
PackKey fingerprintForPacking(const dsp::Program &prog,
                              const PackOptions &opts);

/**
 * Thread-safe pack cache. A miss packs outside the shard lock, once per
 * program: threads asking for a program being packed wait for it.
 */
class PackCache
{
  public:
    explicit PackCache(size_t maxEntries = 4096) : lru_(maxEntries) {}

    /** Packed form of @p prog under @p opts, cached by content. */
    std::shared_ptr<const dsp::PackedProgram>
    lookupOrPack(const dsp::Program &prog, const PackOptions &opts = {});

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0; ///< per-entry LRU evictions
        /** Wall-clock seconds spent inside pack() on misses. */
        double packSeconds = 0.0;
    };

    Stats stats() const;
    size_t size() const { return lru_.size(); }
    /** Enforced entry bound (size() never exceeds it). */
    size_t capacity() const { return lru_.capacity(); }
    void clear();

    /** Process-wide cache used by kernels::runKernel and the pipeline. */
    static PackCache &global();

  private:
    struct KeyHash
    {
        size_t operator()(const PackKey &key) const
        {
            return static_cast<size_t>(key.h0 ^ (key.h1 * 0x9e3779b9u));
        }
    };

    common::ShardedLru<PackKey,
                       std::shared_ptr<const dsp::PackedProgram>, KeyHash>
        lru_;
    /** Nanoseconds spent packing on misses (atomic: misses on distinct
     *  programs run concurrently). */
    std::atomic<uint64_t> packNanos_{0};
};

} // namespace gcd2::vliw

#endif // GCD2_VLIW_PACK_CACHE_H
