/**
 * @file
 * Key coverage of fingerprintRequest: changing any CompileOptions field
 * that can change the served model changes the key, and changing a
 * field that cannot (threads, the cost-cache pointer, the audit level,
 * tiered costing) leaves it alone. The service compiles with exactly the
 * options it keyed, so an unkeyed result-affecting field would let one
 * request be served another request's artifact, and a keyed
 * result-neutral one would split identical requests apart.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "models/zoo.h"
#include "select/cost_cache.h"
#include "service/fingerprint.h"

namespace gcd2::service {
namespace {

using runtime::CompileOptions;

struct Change
{
    const char *field;
    std::function<void(CompileOptions &)> apply;
};

TEST(FingerprintTest, EveryResultOptionIsKeyed)
{
    const graph::Graph g = models::buildModel(models::ModelId::WdsrB);
    const ModelKey base = fingerprintRequest(g, {});

    const Change keyed[] = {
        {"selection",
         [](CompileOptions &o) {
             o.selection = runtime::SelectionMode::Pbqp;
         }},
        {"maxPartition", [](CompileOptions &o) { o.maxPartition = 7; }},
        {"uniformScheme",
         [](CompileOptions &o) {
             o.uniformScheme = kernels::MatMulScheme::Vmpa;
         }},
        {"perOpOverheadCycles",
         [](CompileOptions &o) { o.perOpOverheadCycles = 100; }},
        {"libraryStyleBoundaries",
         [](CompileOptions &o) { o.libraryStyleBoundaries = true; }},
        {"eliminateLayoutTransforms",
         [](CompileOptions &o) { o.eliminateLayoutTransforms = false; }},
        {"deadCodeElimination",
         [](CompileOptions &o) { o.deadCodeElimination = false; }},
        {"maxSelectorEvaluations",
         [](CompileOptions &o) { o.maxSelectorEvaluations = 2000; }},
        {"cost.unroll",
         [](CompileOptions &o) {
             o.cost.unroll = kernels::UnrollStrategy::None;
         }},
        {"cost.lutOptimization",
         [](CompileOptions &o) { o.cost.lutOptimization = false; }},
        {"cost.packOptions.policy",
         [](CompileOptions &o) {
             o.cost.packOptions.policy = vliw::PackPolicy::InOrder;
         }},
        {"cost.packOptions.w",
         [](CompileOptions &o) { o.cost.packOptions.w = 0.5; }},
        {"cost.packOptions.penaltyScale",
         [](CompileOptions &o) { o.cost.packOptions.penaltyScale = 4.0; }},
    };
    for (const Change &change : keyed) {
        CompileOptions options;
        change.apply(options);
        EXPECT_NE(fingerprintRequest(g, options), base) << change.field;
    }

    const Change unkeyed[] = {
        {"numThreads", [](CompileOptions &o) { o.numThreads = 3; }},
        {"costCache",
         [](CompileOptions &o) {
             o.costCache = std::make_shared<select::CostCache>();
         }},
        {"audit",
         [](CompileOptions &o) { o.audit = runtime::AuditMode::Deep; }},
        {"cost.tieredCosting",
         [](CompileOptions &o) { o.cost.tieredCosting = false; }},
    };
    for (const Change &change : unkeyed) {
        CompileOptions options;
        change.apply(options);
        EXPECT_EQ(fingerprintRequest(g, options), base) << change.field;
    }
}

} // namespace
} // namespace gcd2::service
