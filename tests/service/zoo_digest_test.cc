/**
 * @file
 * Served-bytes pins: for every zoo model under default CompileOptions,
 * the request fingerprint (ModelKey) and a 64-bit FNV-1a digest of the
 * serialized artifact must equal the recorded values -- compiled
 * directly, and served by a CompileService both cold and warm from its
 * artifact store after a restart. A refactor of the cost model, the
 * kernel-generation pass, the caches, the service or the serializer
 * that changes a selection, a cost, a served schedule or the artifact
 * layout fails here.
 *
 * Regenerate a pin only for a deliberate change to what is served, and
 * record the change and its reason in CHANGES.md.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <unistd.h>

#include "common/fnv.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "service/artifact_store.h"
#include "service/fingerprint.h"
#include "service/service.h"

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
    {"MobileNet-V3", "15d78142c283891ab5ae9f2506a429d9", 109353,
     0x31850a463198055dULL},
    {"EfficientNet-b0", "9400b417f7d08db6bb5622be46986455", 124679,
     0x7b1d5c1a5567f2b9ULL},
    {"ResNet-50", "df3cd03c9698b9c89a543f91105af6eb", 68199,
     0x7d1a593697d48adcULL},
    {"FST", "53b7902ea9357b39930d43c883746186", 16569,
     0xfc019441d52dd116ULL},
    {"CycleGAN", "b5cc7981fec67e9787a4c2f199ab1dc0", 17916,
     0x8dda108cb73770a6ULL},
    {"WDSR-b", "8ea8658748864d8788c17ff03cad3050", 11515,
     0xdd29582ce0aade4fULL},
    {"EfficientDet-d0", "4d29cfbf3b95232a2b4f09b8ae3a3e89", 136535,
     0xdd733df6da9904aeULL},
    {"PixOr", "99249d95619dd13a5a05248de6f43839", 66182,
     0x3b964e2b6a3376cdULL},
    {"TinyBERT", "771eff5401c784220892aec5c3ad5f01", 30189,
     0x18a419b9244ba1d5ULL},
    {"Conformer", "0cfcf47d30734acb8c836fcf4c014054", 67603,
     0xa0d1170550d84f8aULL},
};

void
expectPinned(const Pin &pin, const runtime::CompiledModel &model)
{
    const std::vector<uint8_t> bytes = serializeModel(model);
    common::Fnv fnv(common::kFnvLaneA);
    fnv.bytes(bytes.data(), bytes.size());
    EXPECT_EQ(bytes.size(), pin.bytes);
    EXPECT_EQ(fnv.digest(), pin.digest);
}

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

        expectPinned(pin, runtime::compile(graph));
    }
}

TEST(ZooDigestTest, ServiceColdAndWarmBytesMatchThePins)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("gcd2_zoo_digest_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    ServiceOptions options;
    options.artifactDir = dir.string();

    std::vector<graph::Graph> graphs;
    for (const models::ModelInfo &info : models::allModels())
        graphs.push_back(models::buildModel(info.id));
    ASSERT_EQ(graphs.size(), std::size(kPins));

    // The first service compiles every model and saves its artifact; the
    // second, a restart on the same directory, serves them all from disk.
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        CompileService service(options);
        std::vector<Ticket> tickets;
        for (const graph::Graph &graph : graphs)
            tickets.push_back(service.submit(graph, "digest"));
        service.drain();

        const ServiceReport report = service.report();
        EXPECT_EQ(report.totalCompiles, warm ? 0u : graphs.size());
        EXPECT_EQ(report.artifacts.loadHits, warm ? graphs.size() : 0u);
        for (size_t i = 0; i < tickets.size(); ++i) {
            SCOPED_TRACE(kPins[i].model);
            ASSERT_TRUE(tickets[i].accepted);
            expectPinned(kPins[i], *tickets[i].result.get());
        }
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace gcd2::service
