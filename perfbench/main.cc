/**
 * @file
 * End-to-end benchmark of the GCD2 compiler and its compile service.
 *
 *   perfbench --workload cold_zoo|warm_restart --seed N --seconds S
 *             --trace 0|1 --slo-ms L --work-dir DIR
 *
 * Drives only public entry points (models::buildModel, runtime::compile,
 * service::CompileService, service::ArtifactStore, serializeModel /
 * deserializeModel, vliw::pack, vliw::auditSchedule,
 * analysis::lintPackedProgram, dsp::DecodeCache) and prints, as its last
 * line of standard output, one JSON object with `correct`, `attempted`,
 * `failed` and `metrics`: the end-to-end metrics with --trace 0, the
 * per-layer metrics with --trace 1. perfbench/README.md explains every
 * workload, metric and noise control.
 */
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "common/thread_pool.h"
#include "dsp/decoded.h"
#include "models/zoo.h"
#include "runtime/compiler.h"
#include "service/artifact_store.h"
#include "service/service.h"
#include "trace.h"
#include "vliw/audit.h"
#include "vliw/pack_cache.h"
#include "vliw/packer.h"

using namespace gcd2;

namespace {

using Clock = std::chrono::steady_clock;
using ModelPtr = std::shared_ptr<const runtime::CompiledModel>;
using perfbench::Tracer;
using Span = perfbench::Tracer::Span;

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 11;
/** Restart probes per set-up on warm_restart. */
constexpr int kProbeRounds = 10;
/** Keeps each set-up's draws apart from the timed phase's. */
constexpr uint64_t kSetupSeedStride = 1000003;
/** Repetitions of the outside-in layer timings in a traced run. */
constexpr int kProbeReps = 3;
/** Cold compiles per model spread over warm_restart's timed phase. */
constexpr size_t kWarmCompilesPerModel = 60;
/** Compile workers of every service the benchmark starts (the service
 *  also starts min(8, hw) verify threads of its own). */
constexpr int kServiceWorkers = 2;
/** Tenant name of every request. */
constexpr const char *kTenant = "gcd2";

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The fastest sample: on a shared VM the host's speed swings the
 *  median of a run by tens of percent, and the fastest sample least. */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Nearest-rank percentile, p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0.0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(v.size()));
}

double
mean(double total, uint64_t count)
{
    return count == 0 ? 0.0 : total / static_cast<double>(count);
}

/** The CPUs this process may use. */
cpu_set_t
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("cannot read the CPU affinity");
    return set;
}

/** Run the calling thread, and every thread it starts from now on, on
 *  @p set. */
void
setCpus(const cpu_set_t &set)
{
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("cannot set the CPU affinity");
}

/**
 * Pin to the last CPU of @p allowed. Threads of one process spread over
 * several vCPUs of a shared VM pay hypervisor wake-up delays that swing
 * from run to run (on two vCPUs, warm_restart's p99 read 6.4-10.1 ms
 * over four runs, against 4.5-4.8 ms on one); on one CPU the same work
 * repeats within a few percent.
 */
void
pinToLastCpu(const cpu_set_t &allowed)
{
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
        if (CPU_ISSET(cpu, &allowed)) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            setCpus(set);
            return;
        }
    throw std::runtime_error("no CPU available");
}

/** Reset the process's peak resident set to its current size, so that
 *  the next peakRssMb() reads the peak of what runs in between. */
void
resetPeakRss()
{
    std::ofstream clearRefs("/proc/self/clear_refs");
    clearRefs << "5" << std::flush;
    if (!clearRefs)
        throw std::runtime_error("cannot reset the peak resident set");
}

/** Peak resident set since the last resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("cannot read the peak resident set");
}

/** Seeded draws with explicit algorithms, so a seed gives the same
 *  inputs under every standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : gen_(seed) {}

    std::vector<size_t>
    permutation(size_t n)
    {
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i)
            order[i] = i;
        for (size_t i = n; i > 1; --i)
            std::swap(order[i - 1],
                      order[static_cast<size_t>(uniform() *
                                                static_cast<double>(i))]);
        return order;
    }

  private:
    /** Uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
    }

    std::mt19937_64 gen_;
};

/**
 * The process-wide pack and decode caches. Clearing them resets their
 * counters, so misses are accumulated across clears here.
 */
class ProcessCaches
{
  public:
    void
    clear()
    {
        packMisses_ += vliw::PackCache::global().stats().misses;
        decodeMisses_ += dsp::DecodeCache::global().stats().misses;
        vliw::PackCache::global().clear();
        dsp::DecodeCache::global().clear();
    }

    uint64_t
    packMisses() const
    {
        return packMisses_ + vliw::PackCache::global().stats().misses;
    }

    uint64_t
    decodeMisses() const
    {
        return decodeMisses_ + dsp::DecodeCache::global().stats().misses;
    }

  private:
    uint64_t packMisses_ = 0;
    uint64_t decodeMisses_ = 0;
};

std::string
metricName(const char *modelName)
{
    std::string out;
    for (const char *c = modelName; *c != '\0'; ++c)
        out += std::isalnum(static_cast<unsigned char>(*c))
                   ? static_cast<char>(
                         std::tolower(static_cast<unsigned char>(*c)))
                   : '_';
    return out;
}

/**
 * Request checker behind ok_frac. A served model is correct when it has
 * no Error diagnostic and its serializeModel bytes equal those of the
 * serial, cache-cleared reference compile of the same zoo model.
 */
class Checker
{
  public:
    explicit Checker(Tracer &tracer) : tracer_(tracer) {}

    void setReference(size_t model, std::vector<uint8_t> bytes)
    {
        if (reference_.size() <= model)
            reference_.resize(model + 1);
        reference_[model] = std::move(bytes);
    }

    const std::vector<uint8_t> &reference(size_t model) const
    {
        return reference_.at(model);
    }

    bool
    matches(size_t model, const runtime::CompiledModel &served,
            int64_t request = -1) const
    {
        const Span span(tracer_, "bench.check", request);
        if (served.report.diagnosticCount(common::DiagSeverity::Error) > 0)
            return false;
        std::vector<uint8_t> bytes;
        {
            const Span serialize(tracer_, "service.serialize", request);
            bytes = service::serializeModel(served);
        }
        return bytes == reference_.at(model);
    }

  private:
    Tracer &tracer_;
    std::vector<std::vector<uint8_t>> reference_;
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    double sloMs = 0.0;
    std::filesystem::path workDir;
};

/** Sums over the pipeline reports of the compiles served while timed. */
struct CompileTotals
{
    uint64_t compiles = 0;
    std::map<std::string, double> passMs;
    std::map<std::string, uint64_t> counters;
    double packMs = 0.0;

    void
    add(const runtime::CompiledModel &model)
    {
        ++compiles;
        for (const runtime::PassReport &pass : model.report.passes) {
            passMs[pass.name] += pass.seconds * 1e3;
            packMs += static_cast<double>(pass.counter("pack-us")) * 1e-3;
            for (const auto &[name, value] : pass.counters)
                counters[pass.name + "/" + name] += value;
        }
    }
};

class Benchmark
{
  public:
    explicit Benchmark(Args args)
        : args_(std::move(args)), tracer_(args_.trace), checker_(tracer_)
    {
        options_.numThreads = 1;
        const size_t models = models::allModels().size();
        compileMs_.resize(models);
        loadMs_.resize(models);
        storeKeys_.resize(models);
    }

    void run();

  private:
    bool storeWorkload() const { return args_.workload == "warm_restart"; }

    void setUp(int rep);
    void populateStore();
    void restartRound(const std::vector<size_t> &order, bool timed);
    bool selfTest();

    void coldZoo();
    void warmRestart();

    ModelPtr coldCompile(size_t model, double *ms);
    service::ServiceOptions serviceOptions() const;
    void record(double latencyMs, bool ok);
    void probeLayers();

    void endToEndMetrics(std::map<std::string, double> &out) const;
    void perLayerMetrics(std::map<std::string, double> &out);

    Args args_;
    const cpu_set_t allowedCpus_ = allowedCpus();
    Tracer tracer_;
    Checker checker_;
    ProcessCaches caches_;
    /** Options of every compile and request: the defaults, serial. */
    runtime::CompileOptions options_;
    std::vector<graph::Graph> graphs_;
    std::string storeDir_;
    std::vector<service::ModelKey> storeKeys_;
    bool checksPassed_ = true;

    // Reference facts per model (served bytes equal these, so they are
    // the served models' facts too).
    std::vector<double> cycles_;
    std::vector<double> packets_;

    // Samples.
    std::vector<double> setupS_;
    std::vector<double> buildMs_; ///< per-model mean, one per set-up
    std::vector<std::vector<double>> compileMs_; ///< per zoo model
    std::vector<std::vector<double>> loadMs_;    ///< per zoo model
    std::vector<double> startMs_;
    std::vector<double> submitUs_;
    std::vector<double> latencyMs_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t sloMet_ = 0;
    CompileTotals compiled_;
    uint64_t packMisses_ = 0;
    uint64_t decodeMisses_ = 0;
    uint64_t restarts_ = 0;
    uint64_t modelCacheEvictions_ = 0;
    std::vector<double> peakRssMb_; ///< one per timed pass or round
};

ModelPtr
Benchmark::coldCompile(size_t model, double *ms)
{
    caches_.clear();
    runtime::CompileOptions options = options_;
    options.costCache = nullptr; // a private cost cache per compile
    const Span span(tracer_, "runtime.compile");
    const Clock::time_point start = Clock::now();
    auto compiled = std::make_shared<const runtime::CompiledModel>(
        runtime::compile(graphs_[model], options));
    *ms = msBetween(start, Clock::now());
    return compiled;
}

service::ServiceOptions
Benchmark::serviceOptions() const
{
    service::ServiceOptions options;
    options.numWorkers = kServiceWorkers;
    options.compileThreads = 1;
    options.artifactDir = storeDir_;
    return options;
}

void
Benchmark::record(double latencyMs, bool ok)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        return;
    }
    latencyMs_.push_back(latencyMs);
    if (latencyMs <= args_.sloMs)
        ++sloMet_;
}

void
Benchmark::setUp(int rep)
{
    const Span span(tracer_, "bench.setup");
    const auto &zoo = models::allModels();
    graphs_.clear();
    double buildMs = 0.0;
    for (const models::ModelInfo &info : zoo) {
        const Span build(tracer_, "graph.build");
        const Clock::time_point start = Clock::now();
        graphs_.push_back(models::buildModel(info.id));
        buildMs += msBetween(start, Clock::now());
    }
    buildMs_.push_back(buildMs / static_cast<double>(zoo.size()));

    // Reference compiles: the checker's expected bytes, and the warm-up
    // pass before any timed pass.
    for (size_t m = 0; m < zoo.size(); ++m) {
        double ms = 0.0;
        const ModelPtr model = coldCompile(m, &ms);
        std::vector<uint8_t> bytes = service::serializeModel(*model);
        if (rep == 0) {
            std::set<const void *> programs;
            uint64_t packets = 0;
            for (const auto &served : model->schedules)
                if (programs.insert(served.program.get()).second)
                    packets += served.program->packets.size();
            cycles_.push_back(static_cast<double>(model->totals.cycles));
            packets_.push_back(static_cast<double>(packets));
            if (model->report.diagnosticCount(common::DiagSeverity::Error) >
                0)
                checksPassed_ = false;
            checker_.setReference(m, std::move(bytes));
        } else if (bytes != checker_.reference(m)) {
            checksPassed_ = false;
        }
    }

    if (!storeWorkload())
        return;
    const std::string previous = storeDir_;
    storeDir_ = (args_.workDir / ("store-" + std::to_string(rep))).string();
    std::filesystem::remove_all(storeDir_);
    populateStore();

    // Restart probes: a fresh service must serve every model from the
    // store. They are the warm-up for the timed restart rounds.
    Rng rng(args_.seed + kSetupSeedStride * static_cast<uint64_t>(rep + 1));
    for (int round = 0; round < kProbeRounds; ++round)
        restartRound(rng.permutation(zoo.size()), false);
    if (!previous.empty())
        std::filesystem::remove_all(previous);
}

void
Benchmark::populateStore()
{
    const Span span(tracer_, "bench.populate");
    service::CompileService service(serviceOptions());
    // The zoo is far smaller than the admission queue, so no request is
    // rejected; the check below would catch one that was.
    std::vector<service::Ticket> tickets;
    for (size_t m = 0; m < graphs_.size(); ++m)
        tickets.push_back(service.submit(graphs_[m], kTenant, &options_));
    service.drain();
    for (size_t m = 0; m < tickets.size(); ++m) {
        if (!tickets[m].accepted ||
            !checker_.matches(m, *tickets[m].result.get()))
            throw std::runtime_error("store population failed");
        storeKeys_[m] = tickets[m].key;
    }
    const service::ArtifactStore store(storeDir_);
    for (const service::ModelKey &key : storeKeys_)
        if (!std::filesystem::exists(store.pathFor(key)))
            throw std::runtime_error("artifact missing after population");
}

void
Benchmark::restartRound(const std::vector<size_t> &order, bool timed)
{
    const Span round(tracer_, "bench.restart");
    caches_.clear();
    struct Served
    {
        size_t model;
        ModelPtr compiled;
        double ms;
    };
    std::vector<Served> served;
    if (timed)
        resetPeakRss();
    const uint64_t packMisses = caches_.packMisses();
    const uint64_t decodeMisses = caches_.decodeMisses();
    const Clock::time_point start = Clock::now();
    service::ServiceReport report;
    {
        std::unique_ptr<service::CompileService> service;
        {
            const Span construct(tracer_, "service.start");
            service =
                std::make_unique<service::CompileService>(serviceOptions());
        }
        const double startMs = msBetween(start, Clock::now());
        if (timed)
            startMs_.push_back(startMs);
        for (size_t m : order) {
            const Span request(tracer_, "bench.request",
                               static_cast<int64_t>(attempted_));
            const Clock::time_point submitted = Clock::now();
            service::Ticket ticket;
            {
                const Span submit(tracer_, "service.submit");
                ticket = service->submit(graphs_[m], kTenant, &options_);
            }
            if (timed)
                submitUs_.push_back(msBetween(submitted, Clock::now()) * 1e3);
            if (!ticket.accepted)
                throw std::runtime_error("restart request rejected");
            ModelPtr model;
            {
                const Span wait(tracer_, "service.wait");
                model = ticket.result.get();
            }
            const double ms = msBetween(submitted, Clock::now());
            if (model->report.pass("artifact-load") == nullptr)
                throw std::runtime_error("restart did not load from the store");
            served.push_back({m, std::move(model), ms});
        }
        report = service->report();
    }
    if (timed) {
        peakRssMb_.push_back(peakRssMb());
        packMisses_ += caches_.packMisses() - packMisses;
        decodeMisses_ += caches_.decodeMisses() - decodeMisses;
        ++restarts_;
        modelCacheEvictions_ += report.modelCache.evictions;
    }
    for (const Served &s : served) {
        const bool ok = checker_.matches(s.model, *s.compiled,
                                         static_cast<int64_t>(s.model));
        if (!ok)
            checksPassed_ = false;
        if (timed) {
            loadMs_[s.model].push_back(s.ms);
            record(s.ms, ok);
        }
    }
}

bool
Benchmark::selfTest()
{
    // The checker must count a one-cycle or one-byte change as a failure
    // and pass an untouched round trip of the reference.
    std::vector<common::Diag> diags;
    const std::shared_ptr<runtime::CompiledModel> copy =
        service::deserializeModel(checker_.reference(0), &diags);
    if (copy == nullptr || copy->schedules.empty() ||
        !checker_.matches(0, *copy))
        return false;
    copy->totals.cycles += 1;
    if (checker_.matches(0, *copy))
        return false;
    copy->totals.cycles -= 1;
    const auto &served = copy->schedules.front();
    auto changed = std::make_shared<dsp::PackedProgram>(*served.program);
    changed->program.code.front().imm ^= 1;
    copy->schedules.front().program = changed;
    return !checker_.matches(0, *copy);
}

void
Benchmark::coldZoo()
{
    // Closed loop, one caller: whole passes over the zoo in a seeded
    // order, every compile cold. The store is never touched.
    Rng rng(args_.seed);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
    const uint64_t packMisses = caches_.packMisses();
    const uint64_t decodeMisses = caches_.decodeMisses();
    do {
        resetPeakRss();
        for (size_t m : rng.permutation(graphs_.size())) {
            const int64_t id = static_cast<int64_t>(attempted_);
            const Span request(tracer_, "bench.request", id);
            double ms = 0.0;
            const Clock::time_point start = Clock::now();
            const ModelPtr model = coldCompile(m, &ms);
            const double requestMs = msBetween(start, Clock::now());
            compileMs_[m].push_back(ms);
            loadMs_[m].push_back(requestMs);
            compiled_.add(*model);
            record(requestMs, checker_.matches(m, *model, id));
        }
        peakRssMb_.push_back(peakRssMb());
    } while (Clock::now() < deadline);
    packMisses_ = caches_.packMisses() - packMisses;
    decodeMisses_ = caches_.decodeMisses() - decodeMisses;
}

void
Benchmark::warmRestart()
{
    // Closed loop: each round is one process restart on the populated
    // store, serving the whole zoo one request at a time.
    //
    // Cold compiles of one model at a time are spread evenly over the
    // same window, so that compile_ms_geomean samples the VM's speed over
    // the same stretch as the loads: the set-up's compiles all fall in a
    // few seconds, and read up to 40% fast in a fast spell of the VM.
    // Each compile is followed by an untimed round, so its cache and heap
    // footprint never lands in a timed round, and only timed rounds count
    // pack and decode misses.
    Rng rng(args_.seed);
    Rng compileRng(args_.seed + kSetupSeedStride * (kSetupReps + 1));
    const size_t models = graphs_.size();
    std::vector<size_t> compileOrder;
    for (size_t i = 0; i < kWarmCompilesPerModel; ++i)
        for (size_t m : compileRng.permutation(models))
            compileOrder.push_back(m);
    const Clock::time_point begin = Clock::now();
    const auto after = [begin](double seconds) {
        return begin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    };
    size_t next = 0;
    do {
        if (next < compileOrder.size() &&
            Clock::now() >= after(args_.seconds * static_cast<double>(next) /
                                  static_cast<double>(compileOrder.size()))) {
            const size_t m = compileOrder[next++];
            double ms = 0.0;
            if (!checker_.matches(m, *coldCompile(m, &ms)))
                checksPassed_ = false;
            compileMs_[m].push_back(ms);
            restartRound(compileRng.permutation(models), false);
        }
        restartRound(rng.permutation(models), true);
    } while (Clock::now() < after(args_.seconds));
}

void
Benchmark::probeLayers()
{
    // Outside-in layer timings on the programs each model serves. Each
    // call is its own span; ns/instruction and ms/model come from the
    // spans' self times and work counts.
    for (int rep = 0; rep < kProbeReps; ++rep)
        for (size_t m = 0; m < graphs_.size(); ++m) {
            std::shared_ptr<runtime::CompiledModel> model;
            {
                const Span span(tracer_, "service.deserialize");
                std::vector<common::Diag> diags;
                model = service::deserializeModel(checker_.reference(m),
                                                  &diags);
            }
            if (model == nullptr)
                throw std::runtime_error("reference does not deserialize");
            {
                const Span span(tracer_, "service.serialize");
                if (service::serializeModel(*model) != checker_.reference(m))
                    checksPassed_ = false;
            }
            std::set<const dsp::PackedProgram *> programs;
            dsp::DecodeCache decodeCache;
            for (const auto &served : model->schedules) {
                const dsp::PackedProgram &packed = *served.program;
                if (!programs.insert(&packed).second)
                    continue;
                const uint64_t insts = packed.program.code.size();
                {
                    Span span(tracer_, "vliw.pack");
                    span.setWork(insts);
                    (void)vliw::pack(packed.program);
                }
                {
                    Span span(tracer_, "vliw.audit");
                    span.setWork(insts);
                    if (!vliw::auditSchedule(packed).empty())
                        checksPassed_ = false;
                }
                {
                    Span span(tracer_, "dsp.decode");
                    span.setWork(insts);
                    (void)decodeCache.lookupOrDecode(packed);
                }
                {
                    Span span(tracer_, "analysis.lint");
                    span.setWork(insts);
                    if (analysis::lintPackedProgram(packed).counts.errors > 0)
                        checksPassed_ = false;
                }
            }
            if (!storeWorkload())
                continue;
            service::ArtifactStore store(storeDir_);
            const Span span(tracer_, "service.artifact_load");
            if (store.load(storeKeys_[m], graphs_[m]) == nullptr)
                throw std::runtime_error("stored artifact did not load");
        }
    if (!storeWorkload())
        return;

    // The timed phase runs on one CPU, so the service's verify pool
    // gains nothing there from running in parallel. This probe loads
    // with a pool of the service's shape on every CPU the process may
    // use, so a change to verify parallelism shows here.
    setCpus(allowedCpus_);
    {
        ThreadPool pool(std::min(8, ThreadPool::hardwareThreads()));
        service::ArtifactStore store(storeDir_);
        for (int rep = 0; rep < kProbeReps; ++rep)
            for (size_t m = 0; m < graphs_.size(); ++m) {
                const Span span(tracer_, "service.artifact_load_pooled");
                if (store.load(storeKeys_[m], graphs_[m], nullptr, &pool) ==
                    nullptr)
                    throw std::runtime_error("stored artifact did not load");
            }
    }
    pinToLastCpu(allowedCpus_);
}

void
Benchmark::endToEndMetrics(std::map<std::string, double> &out) const
{
    std::vector<double> compile;
    for (const auto &samples : compileMs_)
        compile.push_back(fastest(samples));
    std::vector<double> load;
    // A restart serves its models one after another, so its time is the
    // sum of its steps; each step's fastest sample is taken on its own,
    // because a whole round at full speed is rarer than each of its steps.
    double restart = fastest(startMs_);
    for (const auto &samples : loadMs_) {
        load.push_back(fastest(samples));
        restart += load.back();
    }

    out["setup_s"] = median(setupS_);
    out["compile_ms_geomean"] = geomean(compile);
    out["load_ms_geomean"] = geomean(load);
    out["restart_ms"] = restart;
    out["slo_met_frac"] = mean(static_cast<double>(sloMet_), attempted_);
    out["ok_frac"] =
        mean(static_cast<double>(attempted_ - failed_), attempted_);
    out["model_cycles_geomean"] = geomean(cycles_);
    double packets = 0.0;
    for (double p : packets_)
        packets += p;
    out["code_packets"] = packets;
    out["peak_rss_mb"] = median(peakRssMb_);
}

void
Benchmark::perLayerMetrics(std::map<std::string, double> &out)
{
    const auto totals = tracer_.totals();
    const auto spanMs = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0
                                  : mean(it->second.wallMs, it->second.count);
    };
    const auto nsPerInst = [&totals](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : mean(it->second.selfMs * 1e6, it->second.work);
    };
    const auto perCompile = [this](const std::string &counter) {
        const auto it = compiled_.counters.find(counter);
        return it == compiled_.counters.end()
                   ? 0.0
                   : mean(static_cast<double>(it->second),
                          compiled_.compiles);
    };
    const auto passMs = [this](const char *pass) {
        const auto it = compiled_.passMs.find(pass);
        return it == compiled_.passMs.end()
                   ? 0.0
                   : mean(it->second, compiled_.compiles);
    };

    out["runtime.graph_optimize_ms"] = passMs("graph-optimize");
    out["runtime.plan_table_ms"] = passMs("plan-table");
    out["runtime.selection_ms"] = passMs("selection");
    out["runtime.kernel_generation_ms"] = passMs("kernel-generation");
    out["runtime.cycle_accounting_ms"] = passMs("cycle-accounting");
    out["runtime.audit_ms"] = passMs("audit");
    const auto &zoo = models::allModels();
    for (size_t m = 0; m < zoo.size(); ++m)
        out["runtime.compile_ms." + metricName(zoo[m].name)] =
            fastest(compileMs_[m]);

    out["select.tier_certify_ms"] =
        perCompile("plan-table/tier-certify-us") * 1e-3;
    out["select.kernel_sims"] = perCompile("plan-table/kernel-sims");
    out["select.anchor_sims"] = perCompile("plan-table/anchor-sims");
    out["select.plans_derived"] = perCompile("plan-table/plans-derived");
    out["select.plans_pruned"] = perCompile("plan-table/plans-pruned");
    out["select.evaluations"] = perCompile("selection/evaluations");
    const double sims = perCompile("plan-table/kernel-sims");
    const double hits = perCompile("plan-table/cache-hits");
    out["select.cost_cache_hit_frac"] =
        sims + hits == 0.0 ? 0.0 : hits / (sims + hits);

    out["vliw.pack_ms"] = mean(compiled_.packMs, compiled_.compiles);
    out["vliw.pack_misses"] =
        mean(static_cast<double>(packMisses_), attempted_);
    out["vliw.pack_ns_per_inst"] = nsPerInst("vliw.pack");
    out["vliw.audit_ns_per_inst"] = nsPerInst("vliw.audit");
    out["dsp.decode_misses"] =
        mean(static_cast<double>(decodeMisses_), attempted_);
    out["dsp.decode_ns_per_inst"] = nsPerInst("dsp.decode");
    out["analysis.lint_ns_per_inst"] = nsPerInst("analysis.lint");

    out["service.artifact_load_ms"] = spanMs("service.artifact_load");
    out["service.artifact_load_pooled_ms"] =
        spanMs("service.artifact_load_pooled");
    out["service.serialize_ms"] = spanMs("service.serialize");
    out["service.deserialize_ms"] = spanMs("service.deserialize");
    double bytes = 0.0;
    for (size_t m = 0; m < zoo.size(); ++m)
        bytes += static_cast<double>(checker_.reference(m).size());
    out["service.artifact_bytes"] = bytes / static_cast<double>(zoo.size());
    out["service.start_ms"] = median(startMs_);
    out["service.model_cache_evictions"] =
        mean(static_cast<double>(modelCacheEvictions_), restarts_);
    out["service.submit_us_p50"] = median(submitUs_);
    out["graph.build_ms"] = median(buildMs_);
}

void
Benchmark::run()
{
    std::filesystem::create_directories(args_.workDir);
    pinToLastCpu(allowedCpus_);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point start = Clock::now();
        setUp(rep);
        setupS_.push_back(msBetween(start, Clock::now()) * 1e-3);
    }
    const bool selfTestPassed = selfTest();

    // Hand the set-up's freed heap back to the system, so that the timed
    // phase's peaks are its own.
    malloc_trim(0);
    if (args_.workload == "cold_zoo")
        coldZoo();
    else
        warmRestart();

    std::map<std::string, double> endToEnd;
    endToEndMetrics(endToEnd);
    std::map<std::string, double> metrics;
    if (args_.trace) {
        probeLayers();
        perLayerMetrics(metrics);
        for (const char *name :
             {"compile_ms_geomean", "load_ms_geomean", "restart_ms"})
            metrics[std::string("traced.") + name] = endToEnd[name];
        const std::filesystem::path tracePath =
            args_.workDir.parent_path() /
            ("trace-" + args_.workload + "-" + std::to_string(args_.seed) +
             ".json");
        std::ofstream trace(tracePath);
        tracer_.write(trace);
    } else {
        metrics = endToEnd;
    }

    static const std::map<std::string, std::string> kUnits = {
        {"setup_s", "s"},
        {"ok_frac", "frac"},
        {"slo_met_frac", "frac"},
        {"model_cycles_geomean", "cycles"},
        {"code_packets", "packets"},
        {"peak_rss_mb", "MB"},
        {"service.artifact_bytes", "bytes"},
        {"service.submit_us_p50", "us"},
    };
    const auto unitOf = [](const std::string &name) -> std::string {
        if (const auto it = kUnits.find(name); it != kUnits.end())
            return it->second;
        if (name.find("_frac") != std::string::npos)
            return "frac";
        if (name.find("_ns_per_inst") != std::string::npos)
            return "ns/inst";
        if (name.find("_ms") != std::string::npos)
            return "ms";
        return "count";
    };

    // Human-readable summary on standard error: the latency percentiles
    // and each model's fastest and median compile and load.
    std::cerr << "perfbench " << args_.workload << " seed " << args_.seed
              << ": " << attempted_ << " requests, " << failed_
              << " failed, latency ms p10/p50/p90/p99 "
              << percentile(latencyMs_, 0.1) << " / "
              << percentile(latencyMs_, 0.5) << " / "
              << percentile(latencyMs_, 0.9) << " / "
              << percentile(latencyMs_, 0.99) << "\n";
    const auto &zoo = models::allModels();
    for (size_t m = 0; m < zoo.size(); ++m)
        std::cerr << "  " << zoo[m].name << ": compile "
                  << fastest(compileMs_[m]) << " / " << median(compileMs_[m])
                  << " ms, load " << fastest(loadMs_[m]) << " / "
                  << median(loadMs_[m]) << " ms (fastest / median)\n";

    const bool correct =
        failed_ == 0 && selfTestPassed && checksPassed_;
    std::ostringstream json;
    json << std::setprecision(std::numeric_limits<double>::max_digits10)
         << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << value << ", \"unit\": \""
             << unitOf(name) << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    std::map<std::string, std::string> values;
    for (int i = 1; i + 1 < argc; i += 2)
        values[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || values.size() != 6)
        return false;
    try {
        args.workload = values.at("--workload");
        args.seed = std::stoull(values.at("--seed"));
        args.seconds = std::stod(values.at("--seconds"));
        args.trace = values.at("--trace") == "1";
        args.sloMs = std::stod(values.at("--slo-ms"));
        args.workDir = values.at("--work-dir");
    } catch (const std::exception &) {
        return false;
    }
    return (args.workload == "cold_zoo" || args.workload == "warm_restart") &&
           args.seconds > 0.0 && args.sloMs > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload cold_zoo|warm_restart "
                     "--seed N --seconds S --trace 0|1 --slo-ms L "
                     "--work-dir DIR\n";
        return 2;
    }
    const std::filesystem::path workDir = args.workDir;
    int status = 1;
    try {
        Benchmark bench(std::move(args));
        bench.run();
        status = 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
    }
    std::error_code ec;
    std::filesystem::remove_all(workDir, ec);
    return status;
}
