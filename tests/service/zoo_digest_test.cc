/**
 * @file
 * Served-bytes pins: for every zoo model under default CompileOptions,
 * the request fingerprint (ModelKey) and a 64-bit FNV-1a digest of the
 * serialized artifact must equal the recorded values. A refactor of the
 * cost model, the kernel-generation pass, the caches or the serializer
 * that changes a selection, a cost, a served schedule or the artifact
 * layout fails here.
 *
 * Regenerate a pin only for a deliberate change to what is served, and
 * record the change and its reason in CHANGES.md.
 */
#include <gtest/gtest.h>

#include <iterator>

#include "common/fnv.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "service/artifact_store.h"
#include "service/fingerprint.h"

namespace gcd2::service {
namespace {

struct Pin
{
    const char *model;
    const char *key;     ///< toHex(fingerprintRequest(graph, {}))
    uint64_t bytes;      ///< serializeModel size
    uint64_t digest;     ///< FNV-1a (lane A) of the serialized bytes
};

constexpr Pin kPins[] = {
    {"MobileNet-V3", "b63ae8365f2725735229fc9d83e5a31c", 109353,
     0x31850a463198055dULL},
    {"EfficientNet-b0", "963bad393ccb366fa6fac0e4be6835d8", 124679,
     0x7b1d5c1a5567f2b9ULL},
    {"ResNet-50", "6ddf117282123b51b23dd8a4243c8fbe", 68199,
     0x7d1a593697d48adcULL},
    {"FST", "f5bb5eeaf8f624d831ed36535215933b", 16569,
     0xfc019441d52dd116ULL},
    {"CycleGAN", "da11c14549e808e649cfba5435a9f005", 17916,
     0x8dda108cb73770a6ULL},
    {"WDSR-b", "48e17202cbfefd56e5a6cdeba5523595", 11515,
     0xdd29582ce0aade4fULL},
    {"EfficientDet-d0", "fc8d2ba392b502030f059c670241494c", 136535,
     0xdd733df6da9904aeULL},
    {"PixOr", "a773b2bab89112933839de164194f27c", 66182,
     0x3b964e2b6a3376cdULL},
    {"TinyBERT", "b2b7129abeb271bba4f9c95849fd7c64", 30189,
     0x18a419b9244ba1d5ULL},
    {"Conformer", "01d14be6100ed93a730748cc3c4122f9", 67603,
     0xa0d1170550d84f8aULL},
};

TEST(ZooDigestTest, ServedBytesMatchThePins)
{
    ASSERT_EQ(models::allModels().size(), std::size(kPins));
    for (size_t i = 0; i < std::size(kPins); ++i) {
        const Pin &pin = kPins[i];
        const models::ModelInfo &info = models::allModels()[i];
        SCOPED_TRACE(pin.model);
        ASSERT_STREQ(info.name, pin.model);

        const graph::Graph graph = models::buildModel(info.id);
        EXPECT_EQ(toHex(fingerprintRequest(graph, {})), pin.key);

        const std::vector<uint8_t> bytes =
            serializeModel(runtime::compile(graph));
        common::Fnv fnv(common::kFnvLaneA);
        fnv.bytes(bytes.data(), bytes.size());
        EXPECT_EQ(bytes.size(), pin.bytes);
        EXPECT_EQ(fnv.digest(), pin.digest);
    }
}

} // namespace
} // namespace gcd2::service
