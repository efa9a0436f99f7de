/**
 * @file
 * catchbench: one benchmark run.
 *
 *   catchbench --workload NAME --seed N --seconds S --trace 0|1
 *              --worker-bin PATH --out-dir DIR
 *
 * Prints every metric by name with its unit, then, as the last line of
 * standard output, one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics with --trace 0, the per-layer ones
 * with --trace 1. Exits 1 when any correctness check fails, 2 on a
 * usage error. perfbench/run.py builds this binary and calls it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "campaigns.hh"

using namespace catchbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "catchbench: %s\nusage: catchbench --workload "
                 "figure-detailed|sweep-sampled|resweep-isolated --seed N "
                 "--seconds S --trace 0|1 --worker-bin PATH --out-dir DIR\n",
                 why);
    return 2;
}

bool
parseU64(const char *s, uint64_t *out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    uint64_t seconds = 10, trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed" && parseU64(v, &opt.seed))
            continue;
        else if (k == "--seconds" && parseU64(v, &seconds))
            continue;
        else if (k == "--trace" && parseU64(v, &trace) && trace <= 1)
            continue;
        else if (k == "--worker-bin")
            opt.workerBin = v;
        else if (k == "--out-dir")
            opt.outDir = v;
        else
            return usage(("bad argument " + k).c_str());
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    if (seconds < 1)
        return usage("--seconds must be at least 1");
    opt.seconds = static_cast<double>(seconds);
    opt.trace = trace == 1;
    if (opt.outDir.empty() || opt.workerBin.empty())
        return usage("--out-dir and --worker-bin are required");
    std::filesystem::create_directories(opt.outDir);

    Report rep;
    try {
        if (opt.workload == "figure-detailed")
            rep = runFigureDetailed(opt);
        else if (opt.workload == "sweep-sampled")
            rep = runSweepSampled(opt);
        else if (opt.workload == "resweep-isolated")
            rep = runResweepIsolated(opt);
        else
            return usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "catchbench: %s\n", e.what());
        return 1;
    }

    const bool correct = rep.failures.empty();
    std::printf("workload %s seed %llu trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace);
    for (const auto &n : rep.notes)
        std::printf("  %s\n", n.c_str());
    for (const auto &f : rep.failures)
        std::printf("  CHECK FAILED: %s\n", f.c_str());
    std::printf("  failed_frac %.6g (%llu of %llu)\n",
                rep.attempted ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    for (const auto &m : rep.metrics)
        std::printf("  %-36s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", rep.metrics[i].value);
        json += (i ? ", \"" : "\"") + rep.metrics[i].name +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                rep.metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
