/**
 * @file
 * CostCache contract tests: typed-key equality/hashing, hit/miss
 * accounting, compute-once semantics (also for concurrent misses of
 * one key), and safety of returned values across rehashes and
 * concurrent access.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "select/cost_cache.h"

namespace gcd2::select {
namespace {

CostKey
keyWithTag(int32_t tag)
{
    CostKey key;
    key.kind = CostKind::MatMulTile;
    key.tag = tag;
    key.unrollOut = 4;
    key.unrollCols = 2;
    key.unrollK = 1;
    key.extent = 256;
    key.policy = vliw::PackPolicy::Sda;
    key.packW = 1.0;
    key.packPenaltyScale = 1.0;
    return key;
}

TEST(CostCacheTest, KeysCompareByValue)
{
    const CostKey a = keyWithTag(1);
    CostKey b = keyWithTag(1);
    EXPECT_EQ(a, b);
    EXPECT_EQ(CostKeyHash{}(a), CostKeyHash{}(b));
    b.extent = 257;
    EXPECT_FALSE(a == b);
    CostKey c = keyWithTag(1);
    c.kind = CostKind::Elementwise;
    EXPECT_FALSE(a == c);
    CostKey d = keyWithTag(1);
    d.packW = 2.5;
    EXPECT_FALSE(a == d);
}

TEST(CostCacheTest, ComputesOncePerKey)
{
    CostCache cache;
    int calls = 0;
    const auto compute = [&] {
        ++calls;
        NodeExecStats stats;
        stats.cycles = 123;
        return stats;
    };
    const NodeExecStats first =
        cache.lookupOrCompute(keyWithTag(7), compute);
    const NodeExecStats again =
        cache.lookupOrCompute(keyWithTag(7), compute);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(first.cycles, 123u);
    EXPECT_EQ(again.cycles, 123u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CostCacheTest, ReturnedValuesSurviveRehash)
{
    // lookupOrCompute returns by value, so entries obtained early must
    // stay valid however much the cache grows afterwards (the dangling-
    // reference hazard of handing out pointers into a rehashing map).
    CostCache cache;
    const NodeExecStats early = cache.lookupOrCompute(keyWithTag(0), [] {
        NodeExecStats stats;
        stats.cycles = 11;
        stats.instructions = 22;
        return stats;
    });
    for (int32_t tag = 1; tag < 2000; ++tag)
        cache.lookupOrCompute(keyWithTag(tag), [&] {
            NodeExecStats stats;
            stats.cycles = static_cast<uint64_t>(tag);
            return stats;
        });
    EXPECT_EQ(early.cycles, 11u);
    EXPECT_EQ(early.instructions, 22u);
    EXPECT_EQ(cache.size(), 2000u);
}

TEST(CostCacheTest, ConcurrentLookupsAgree)
{
    CostCache cache;
    constexpr int kThreads = 8;
    constexpr int32_t kKeys = 64;
    std::vector<std::vector<uint64_t>> seen(
        kThreads, std::vector<uint64_t>(kKeys, 0));
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, &seen, t] {
            for (int32_t k = 0; k < kKeys; ++k) {
                const NodeExecStats stats =
                    cache.lookupOrCompute(keyWithTag(k), [k] {
                        NodeExecStats fresh;
                        fresh.cycles = static_cast<uint64_t>(1000 + k);
                        return fresh;
                    });
                seen[static_cast<size_t>(t)][static_cast<size_t>(k)] =
                    stats.cycles;
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        for (int32_t k = 0; k < kKeys; ++k)
            EXPECT_EQ(seen[static_cast<size_t>(t)][static_cast<size_t>(k)],
                      static_cast<uint64_t>(1000 + k));
    EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
    // Every lookup either hit or missed, and each key missed once.
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<uint64_t>(kThreads) * kKeys);
    EXPECT_EQ(cache.misses(), static_cast<uint64_t>(kKeys));
}

TEST(CostCacheTest, ConcurrentMissOfOneKeySimulatesOnce)
{
    CostCache cache;
    std::atomic<int> computed{0};
    std::promise<void> started;
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    const auto simulate = [&] {
        if (computed.fetch_add(1) == 0)
            started.set_value();
        released.wait();
        NodeExecStats fresh;
        fresh.cycles = 4242;
        return fresh;
    };

    uint64_t first = 0;
    uint64_t second = 0;
    std::thread a([&] {
        first = cache.lookupOrCompute(keyWithTag(7), simulate).cycles;
    });
    started.get_future().wait();
    // Ask for the key while the first simulation is still running, and
    // let that simulation finish only once the second lookup was counted.
    std::thread b([&] {
        second = cache.lookupOrCompute(keyWithTag(7), simulate).cycles;
    });
    while (cache.hits() + cache.misses() < 2)
        std::this_thread::yield();
    release.set_value();
    a.join();
    b.join();

    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(first, 4242u);
    EXPECT_EQ(second, 4242u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CostCacheTest, ClearResetsEverything)
{
    CostCache cache;
    cache.lookupOrCompute(keyWithTag(1), [] { return NodeExecStats{}; });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

} // namespace
} // namespace gcd2::select
