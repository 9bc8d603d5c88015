/**
 * @file
 * Compile-service CLI: exercises the whole managed cache tier from the
 * command line (DESIGN.md section 14) and prints the service report.
 *
 * Each requested model is submitted `--repeat` times (default 3), in
 * rounds. The first round submits every model once and drains: each
 * submission compiles its model (or warm-starts from the artifact store
 * when `--dir` points at a populated directory). The later rounds are
 * submitted after that drain, so every repeat is served from the
 * in-memory model LRU. Run the tool twice with the same `--dir` to see
 * every compile turn into an artifact warm start.
 *
 * Usage:
 *   gcd2_serve [--dir DIR] [--workers N] [--repeat N]
 *              [--max-artifact-bytes N] [--verbose] [--gc]
 *              [model-name ...]          (default: the whole zoo)
 *
 *   --dir DIR       artifact directory (enables the on-disk store)
 *   --workers N     service worker threads (default: hardware)
 *   --repeat N      submissions per model (default 3)
 *   --max-artifact-bytes N
 *                   artifact-store size bound; LRU-evicts after saves
 *                   (default 0 = unbounded)
 *   --verbose       print the full pipeline report (pass timings, tier
 *                   and cache counters) of every scheduled compile
 *   --gc            do not serve anything: enforce the size bound on
 *                   --dir now (delete least-recently-used artifacts
 *                   until under --max-artifact-bytes) and exit
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "service/service.h"

namespace {

using namespace gcd2;

void
printUsage(std::FILE *out, const char *prog)
{
    std::fprintf(
        out,
        "usage: %s [--dir DIR] [--workers N] [--repeat N]\n"
        "       %*s [--max-artifact-bytes N] [--verbose] [--gc]\n"
        "       %*s [model-name ...]\n"
        "\n"
        "  --dir DIR       artifact directory (enables the on-disk "
        "store)\n"
        "  --workers N     service worker threads (default: hardware)\n"
        "  --repeat N      submissions per model (default 3)\n"
        "  --max-artifact-bytes N\n"
        "                  artifact-store size bound; least-recently-"
        "used\n"
        "                  artifacts are evicted after saves (0 = "
        "unbounded)\n"
        "  --verbose       print each scheduled compile's full pipeline "
        "report\n"
        "  --gc            only garbage-collect --dir to the size bound, "
        "then exit\n"
        "  model-name ...  zoo models to serve (default: the whole "
        "zoo)\n",
        prog, static_cast<int>(std::string(prog).size()), "",
        static_cast<int>(std::string(prog).size()), "");
}

const char *
pathName(service::Ticket::Path path)
{
    switch (path) {
      case service::Ticket::Path::Rejected:
        return "rejected";
      case service::Ticket::Path::ModelCacheHit:
        return "model-cache";
      case service::Ticket::Path::Coalesced:
        return "coalesced";
      case service::Ticket::Path::Scheduled:
        return "scheduled";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    service::ServiceOptions options;
    int repeat = 3;
    bool verbose = false;
    bool gcOnly = false;
    std::vector<std::string> wanted;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // A value-taking flag in final position must not read past argv:
        // report the missing value, print usage, and exit 2 so scripted
        // callers (and the CLI regression test) see a hard failure.
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n\n", arg.c_str());
                printUsage(stderr, argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout, argv[0]);
            return 0;
        }
        if (arg == "--dir")
            options.artifactDir = value();
        else if (arg == "--workers")
            options.numWorkers = std::atoi(value());
        else if (arg == "--repeat")
            repeat = std::atoi(value());
        else if (arg == "--max-artifact-bytes")
            options.artifactMaxBytes = static_cast<uint64_t>(
                std::strtoull(value(), nullptr, 10));
        else if (arg == "--verbose")
            verbose = true;
        else if (arg == "--gc")
            gcOnly = true;
        else if (!arg.empty() && arg[0] == '-') {
            // Unknown flags must not be silently swallowed as model
            // names (the "unknown model" error they used to produce
            // pointed users at the zoo list, not at their typo).
            std::fprintf(stderr, "unknown flag '%s'\n\n", arg.c_str());
            printUsage(stderr, argv[0]);
            return 2;
        } else
            wanted.push_back(arg);
    }

    if (gcOnly) {
        if (options.artifactDir.empty()) {
            std::fprintf(stderr, "--gc needs --dir\n\n");
            printUsage(stderr, argv[0]);
            return 2;
        }
        service::ArtifactStore store(options.artifactDir,
                                     options.artifactMaxBytes);
        std::vector<common::Diag> diags;
        const size_t evicted = store.gc(&diags);
        for (const common::Diag &diag : diags)
            std::fprintf(stderr, "%s\n", diag.message.c_str());
        const auto stats = store.stats();
        std::printf("gc %s: evicted %zu artifacts (%llu bytes), bound "
                    "%llu bytes\n",
                    options.artifactDir.c_str(), evicted,
                    static_cast<unsigned long long>(stats.evictedBytes),
                    static_cast<unsigned long long>(store.maxBytes()));
        return diags.empty() ? 0 : 1;
    }

    for (const std::string &name : wanted) {
        bool known = false;
        for (const models::ModelInfo &info : models::allModels())
            known = known || name == info.name;
        if (!known) {
            std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
            return 2;
        }
    }

    service::CompileService service{std::move(options)};

    std::vector<const models::ModelInfo *> served;
    std::vector<graph::Graph> graphs;
    for (const models::ModelInfo &info : models::allModels()) {
        if (!wanted.empty() &&
            std::find(wanted.begin(), wanted.end(), info.name) ==
                wanted.end())
            continue;
        served.push_back(&info);
        graphs.push_back(models::buildModel(info.id));
    }

    // Drain after the first round so the repeats find their models in
    // the model LRU instead of coalescing onto the compiles in flight.
    std::vector<service::Ticket> tickets;
    std::vector<const char *> names;
    for (int r = 0; r < repeat; ++r) {
        for (size_t m = 0; m < served.size(); ++m) {
            tickets.push_back(service.submit(graphs[m], "cli"));
            names.push_back(served[m]->name);
        }
        if (r == 0)
            service.drain();
    }
    service.drain();

    for (size_t t = 0; t < tickets.size(); ++t) {
        const service::Ticket &ticket = tickets[t];
        if (!ticket.accepted) {
            std::printf("serve model=%s path=%s (%s)\n", names[t],
                        pathName(ticket.path),
                        ticket.rejection.message.c_str());
            continue;
        }
        const auto model = ticket.result.get();
        std::printf("serve model=%s path=%s cycles=%llu programs=%zu\n",
                    names[t], pathName(ticket.path),
                    static_cast<unsigned long long>(model->totals.cycles),
                    model->schedules.size());
        // One full report per scheduled ticket: repeats of the same model
        // share the compile, so this prints each pipeline exactly once.
        if (verbose &&
            ticket.path == service::Ticket::Path::Scheduled)
            std::fputs(model->report.toString().c_str(), stdout);
    }

    std::fputs(service.report().toString().c_str(), stdout);
    return 0;
}
