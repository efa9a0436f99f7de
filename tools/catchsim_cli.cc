/**
 * @file
 * catchsim command-line driver: run any suite workload on any named or
 * hand-tuned configuration and print a full report. This is the tool a
 * downstream user reaches for before writing code against the library.
 *
 * Usage:
 *   catchsim [options] <workload> [workload...]
 *
 * Options:
 *   --config=skx|client         base configuration (default skx)
 *   --no-l2=<llc_kb>            remove the L2, set the LLC size in KB
 *                               (>= 1)
 *   --catch                     enable criticality detection + all TACT
 *   --criticality               enable only the detector
 *   --detector=heuristic        heuristic detection instead of the DDG
 *   --tact=cross,deep,feeder,code   enable specific TACT components
 *   --instr=<n>                 measured instructions   (default 300000)
 *   --warmup=<n>                warmup instructions     (default 100000)
 *   --sample                    sampled simulation: functional warming
 *                               with periodic detailed windows
 *                               (Env: CATCH_SAMPLE=1)
 *   --sample-interval=<n>       instrs per sampling period (default
 *                               20000; env CATCH_SAMPLE_INTERVAL)
 *   --sample-window=<n>         measured instrs per window (default
 *                               2000; env CATCH_SAMPLE_WINDOW)
 *   --sample-warmup=<n>         detailed-warmup instrs before each
 *                               window (default 2000; env
 *                               CATCH_SAMPLE_WARMUP)
 *   --llc-add=<cycles>          LLC latency adder
 *   --no-prefetchers            disable the baseline prefetchers
 *   --jobs=<n>                  parallel simulations, 1..1024 (default
 *                               CATCH_JOBS or hardware concurrency;
 *                               1 = serial)
 *   --profile                   collect host phase timings (trace-gen,
 *                               warmup, measured) and peak RSS per run;
 *                               printed per report and exported as the
 *                               hostPerf object in --json documents.
 *                               Profiling never changes simulated
 *                               results. (Env: CATCH_PROFILE=1)
 *   --json=<file>               also write results as a JSON document
 *   --isolate                   run simulations in worker processes
 *                               (one per job, reused across runs; each
 *                               builds its next run's trace while the
 *                               current run simulates) under the
 *                               wall-clock supervisor
 *                               (sim/supervisor.hh): a crash or hang in
 *                               one run becomes a typed failure in its
 *                               slot instead of killing the campaign.
 *                               (Env: CATCH_ISOLATE=1; the supervisor
 *                               re-execs this binary in its hidden
 *                               --worker mode, or CATCH_WORKER_BIN)
 *   --result-store=<dir>        incremental content-hashed result store
 *                               (sim/result_store.hh): runs whose
 *                               (workload, seed, config, lengths) key
 *                               is already stored are served from disk;
 *                               fresh successes persist back. A resweep
 *                               after a one-knob change re-executes
 *                               only invalidated cells, and a rerun of
 *                               an interrupted campaign re-executes
 *                               only runs that did not succeed.
 *                               (Env: CATCH_RESULT_STORE)
 *   --list                      list all suite workloads and exit
 *
 * Reports print in command-line order regardless of --jobs; results are
 * bitwise-identical for any job count — including between in-process
 * and --isolate execution at any worker count. Runs that fail (corrupt
 * trace, worker exception, watchdog timeout, crashed worker process)
 * are contained to their own slot and reported structurally; the
 * campaign continues.
 *
 * Numeric option values must be whole unsigned integers in range, and
 * --tact names only the four components; anything else is a usage
 * error.
 *
 * Exit codes: 0 every run succeeded; 1 at least one run failed or
 * timed out (or the JSON export failed); 2 usage/configuration error
 * (unknown option, malformed option value, unknown workload, invalid
 * geometry, locked result store) or at least one run crashed at the
 * process level (worker died, hung past the heartbeat timeout, or
 * failed to exec).
 */

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/supervisor.hh"
#include "sim/worker_proto.hh"
#include "trace/suite.hh"

using namespace catchsim;

namespace
{

/** Upper bound of --jobs: one thread per job, so keep it sane. */
constexpr uint64_t kMaxJobs = 1024;

void
printReport(const SimResult &r)
{
    std::printf("\n=== %s on %s ===\n", r.workload.c_str(),
                r.config.c_str());
    std::printf("IPC                : %.3f  (%llu instrs, %llu cycles)\n",
                r.ipc, static_cast<unsigned long long>(r.core.instrs),
                static_cast<unsigned long long>(r.core.cycles));
    if (r.sampled) {
        std::printf("sampling           : %llu windows, %llu warmed "
                    "instrs, IPC sd %.3f [%.3f, %.3f]\n",
                    static_cast<unsigned long long>(r.sample.windows),
                    static_cast<unsigned long long>(
                        r.sample.warmedInstrs),
                    std::sqrt(r.sample.ipcVariance), r.sample.ipcMin,
                    r.sample.ipcMax);
    }
    std::printf("loads served       : L1 %.1f%%  L2 %.1f%%  LLC %.1f%%  "
                "Mem %.1f%%  (fwd %llu)\n",
                100 * r.hier.loadHitFraction(Level::L1),
                100 * r.hier.loadHitFraction(Level::L2),
                100 * r.hier.loadHitFraction(Level::LLC),
                100 * r.hier.loadHitFraction(Level::Mem),
                static_cast<unsigned long long>(r.core.forwardedLoads));
    std::printf("avg load latency   : %.1f cycles\n",
                r.hier.loads ? static_cast<double>(
                                   r.hier.totalLoadLatency) /
                                   r.hier.loads
                             : 0.0);
    std::printf("branches           : %.2f%% mispredicted\n",
                100 * r.core.branch.mispredictRate());
    std::printf("front-end          : %llu code-stall cycles\n",
                static_cast<unsigned long long>(
                    r.frontend.codeStallCycles));
    std::printf("DRAM               : %llu reads (avg %.0f cyc), "
                "%llu writes, %.0f%% row hits\n",
                static_cast<unsigned long long>(r.dram.reads),
                r.dram.avgReadLatency(),
                static_cast<unsigned long long>(r.dram.writes),
                100 * r.dram.rowHitRate());
    if (r.ddg.walks) {
        std::printf("criticality        : %llu walks, %llu critical "
                    "loads, %u active PCs\n",
                    static_cast<unsigned long long>(r.ddg.walks),
                    static_cast<unsigned long long>(
                        r.ddg.criticalLoadsFound),
                    r.activeCriticalPcs);
    }
    if (r.hier.tactPrefetches) {
        std::printf("TACT               : %llu prefetches (cross %llu, "
                    "deep %llu, feeder %llu, code-lines %llu)\n",
                    static_cast<unsigned long long>(
                        r.hier.tactPrefetches),
                    static_cast<unsigned long long>(r.tact.crossIssued),
                    static_cast<unsigned long long>(r.tact.deepIssued),
                    static_cast<unsigned long long>(r.tact.feederIssued),
                    static_cast<unsigned long long>(r.tact.codeLines));
        std::printf("TACT timeliness    : %.0f%% save >=80%% of LLC "
                    "latency\n",
                    100 * r.timelinessAtLeast80);
    }
    std::printf("energy             : %.3f mJ (core %.2f, cache %.2f, "
                "ring %.2f, DRAM %.2f, static %.2f)\n",
                r.energy.total(), r.energy.coreDynamic,
                r.energy.cacheDynamic, r.energy.interconnect,
                r.energy.dramDynamic, r.energy.staticLeakage);
}

void
printProfile(const RunProfile &p)
{
    std::printf("host perf          : trace-gen %.3fs, warmup %.3fs, "
                "measured %.3fs, peak RSS %.1f MB\n",
                p.traceGenSec, p.warmupSec, p.measuredSec,
                static_cast<double>(p.peakRssBytes) / (1024.0 * 1024.0));
}

void
printFailure(const RunOutcome &o)
{
    std::printf("\n=== %s on %s ===\n", o.workload.c_str(),
                o.config.c_str());
    std::printf("status             : %s after %u attempt(s)\n",
                runStatusName(o.status), o.attempts);
    std::printf("error              : [%s] %s\n",
                errorCategoryName(o.failure->error.category),
                o.failure->error.message.c_str());
}

/**
 * The value of @p flag as a whole unsigned integer in @p min..@p max.
 * Anything else — empty, signed, fractional, trailing junk, out of
 * range — is a usage error (exit 2), never a silently coerced value.
 */
uint64_t
flagCount(const std::string &flag, const std::string &text, uint64_t min,
          uint64_t max)
{
    errno = 0;
    uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    bool digits = !text.empty() &&
                  text.find_first_not_of("0123456789") == std::string::npos;
    if (!digits || errno == ERANGE || v < min || v > max) {
        std::fprintf(stderr,
                     "catchsim: %s expects an integer in %llu..%llu, got "
                     "'%s'\n",
                     flag.c_str(), static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text.c_str());
        std::exit(2);
    }
    return v;
}

/** Applies a --tact= list of {cross, deep, feeder, code}; exit 2 on any
 *  other name. */
void
applyTactList(const std::string &list, TactConfig &tact)
{
    tact.cross = tact.deepSelf = tact.feeder = tact.code = false;
    size_t at = 0;
    for (;;) {
        size_t comma = list.find(',', at);
        std::string name = list.substr(at, comma - at);
        if (name == "cross") {
            tact.cross = true;
        } else if (name == "deep") {
            tact.deepSelf = true;
        } else if (name == "feeder") {
            tact.feeder = true;
        } else if (name == "code") {
            tact.code = true;
        } else {
            std::fprintf(stderr,
                         "catchsim: --tact takes a comma-separated list "
                         "of cross, deep, feeder, code; got '%s'\n",
                         name.c_str());
            std::exit(2);
        }
        if (comma == std::string::npos)
            return;
        at = comma + 1;
    }
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: catchsim [--config=skx|client] [--no-l2=KB] "
                 "[--catch] [--criticality]\n"
                 "                [--detector=heuristic]\n"
                 "                [--tact=cross,deep,feeder,code] "
                 "[--instr=N] [--warmup=N]\n"
                 "                [--sample] [--sample-interval=N] "
                 "[--sample-window=N] [--sample-warmup=N]\n"
                 "                [--llc-add=N] [--no-prefetchers] "
                 "[--jobs=N] [--profile] [--json=FILE]\n"
                 "                [--isolate] "
                 "[--result-store=DIR] [--trace-store]\n"
                 "                [--trace-cache-dir=DIR] [--warm-state] "
                 "[--warm-state-cache-dir=DIR]\n"
                 "                [--list] <workload>...\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    // Hidden worker mode: the process-isolation supervisor re-execs
    // this binary with --worker as its only argument and speaks the
    // frame protocol over stdin/stdout (sim/worker_proto.hh).
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return workerMain();

    SimConfig cfg = baselineSkx();
    bool client = false;
    uint64_t no_l2_kb = 0;
    uint64_t instrs = 300000, warmup = 100000;
    SamplingConfig sampling = SamplingConfig::fromEnvironment();
    unsigned jobs = suiteJobs();
    bool profile = false;
    std::string json_path;
    std::string store_dir;
    bool isolate = false;
    std::vector<std::string> workloads;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg]() {
            return arg.substr(arg.find('=') + 1);
        };
        if (arg == "--list") {
            for (const auto &n : stSuiteNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (arg.rfind("--config=", 0) == 0) {
            if (value() != "skx" && value() != "client")
                usage();
            client = value() == "client";
        } else if (arg.rfind("--no-l2=", 0) == 0) {
            no_l2_kb = flagCount("--no-l2", value(), 1, UINT64_MAX >> 10);
        } else if (arg == "--catch") {
            cfg.enableCatch();
        } else if (arg == "--criticality") {
            cfg.criticality.enabled = true;
        } else if (arg == "--detector=heuristic") {
            cfg.criticality.kind = DetectorKind::Heuristic;
        } else if (arg.rfind("--tact=", 0) == 0) {
            cfg.criticality.enabled = true;
            applyTactList(value(), cfg.tact);
        } else if (arg.rfind("--instr=", 0) == 0) {
            instrs = flagCount("--instr", value(), 0, UINT64_MAX);
        } else if (arg.rfind("--warmup=", 0) == 0) {
            warmup = flagCount("--warmup", value(), 0, UINT64_MAX);
        } else if (arg == "--sample") {
            sampling.mode = SampleMode::Sampled;
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            sampling.mode = SampleMode::Sampled;
            sampling.intervalInstrs =
                flagCount("--sample-interval", value(), 0, UINT64_MAX);
        } else if (arg.rfind("--sample-window=", 0) == 0) {
            sampling.mode = SampleMode::Sampled;
            sampling.windowInstrs =
                flagCount("--sample-window", value(), 0, UINT64_MAX);
        } else if (arg.rfind("--sample-warmup=", 0) == 0) {
            sampling.mode = SampleMode::Sampled;
            sampling.warmupInstrs =
                flagCount("--sample-warmup", value(), 0, UINT64_MAX);
        } else if (arg.rfind("--llc-add=", 0) == 0) {
            cfg.oracle.latAddLlc = static_cast<uint32_t>(
                flagCount("--llc-add", value(), 0, UINT32_MAX));
        } else if (arg == "--no-prefetchers") {
            cfg.l1StridePrefetcher = false;
            cfg.l2StreamPrefetcher = false;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            jobs = static_cast<unsigned>(
                flagCount("--jobs", value(), 1, kMaxJobs));
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = value();
        } else if (arg == "--isolate") {
            isolate = true;
        } else if (arg.rfind("--result-store=", 0) == 0) {
            store_dir = value();
        } else if (arg == "--trace-store") {
            // Memoize trace generation in memory for this process
            // (CATCH_TRACE_STORE). Safe here: we are single-threaded
            // until the first ThreadPool, and ChunkStore::global()
            // reads the environment lazily on first use after parsing.
            ::setenv("CATCH_TRACE_STORE", "1", 1);
        } else if (arg.rfind("--trace-cache-dir=", 0) == 0) {
            // Same, plus a persistent on-disk tier shared across runs
            // and processes (CATCH_TRACE_CACHE).
            ::setenv("CATCH_TRACE_CACHE", value().c_str(), 1);
        } else if (arg == "--warm-state") {
            // Memoize warmed-state snapshots in memory for this process
            // (CATCH_WARM_STATE); sampled runs with a chunk store skip
            // the global functional warmup on repeat keys. Same lazy
            // environment-read discipline as --trace-store.
            ::setenv("CATCH_WARM_STATE", "1", 1);
        } else if (arg.rfind("--warm-state-cache-dir=", 0) == 0) {
            // Same, plus a persistent on-disk snapshot tier shared
            // across runs and processes (CATCH_WARM_STATE_CACHE).
            ::setenv("CATCH_WARM_STATE_CACHE", value().c_str(), 1);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
        } else {
            workloads.push_back(arg);
        }
    }
    if (workloads.empty())
        usage();

    // Assemble base + overlays in the right order.
    DetectorKind detector = cfg.criticality.kind;
    bool want_catch = cfg.criticality.enabled;
    TactConfig tact = cfg.tact;
    OracleConfig oracle = cfg.oracle;
    bool no_pf = !cfg.l1StridePrefetcher;
    cfg = client ? baselineClient() : baselineSkx();
    if (no_l2_kb > 0)
        cfg = noL2(cfg, no_l2_kb);
    cfg.criticality.enabled = want_catch;
    cfg.criticality.kind = detector;
    cfg.tact = tact;
    cfg.oracle = oracle;
    if (no_pf) {
        cfg.l1StridePrefetcher = false;
        cfg.l2StreamPrefetcher = false;
    }
    cfg.sampling = sampling;
    if (cfg.tact.any())
        cfg.name += "+tact";
    else if (cfg.criticality.enabled)
        cfg.name += "+crit";

    // Config mistakes are surfaced once, before any simulation starts:
    // unknown workload names (the error lists every valid name) and
    // invalid geometry both exit with code 2.
    bool names_ok = true;
    for (const auto &w : workloads) {
        auto wl = findWorkload(w);
        if (!wl.ok()) {
            std::fprintf(stderr, "catchsim: %s\n",
                         names_ok ? wl.error().message.c_str()
                                  : ("unknown workload '" + w + "'")
                                        .c_str());
            names_ok = false;
        }
    }
    if (!names_ok)
        return 2;
    if (auto valid = cfg.validate(); !valid.ok()) {
        std::fprintf(stderr, "catchsim: invalid configuration: %s\n",
                     valid.error().message.c_str());
        return 2;
    }

    IsolationOptions opts = IsolationOptions::fromEnvironment();
    opts.profile |= profile;
    std::unique_ptr<ResultStore> store;
    if (!store_dir.empty()) {
        auto s = ResultStore::open(store_dir);
        if (!s.ok()) {
            std::fprintf(stderr, "catchsim: %s\n",
                         s.error().message.c_str());
            return 2;
        }
        store = std::move(s).value();
        opts.resultStore = store.get();
    }

    auto outcomes =
        isolate ? runWorkloadsSupervised(cfg, workloads, instrs, warmup,
                                         jobs, opts)
                : runWorkloadsIsolated(cfg, workloads, instrs, warmup,
                                       jobs, opts);
    for (const auto &o : outcomes) {
        if (o.ok()) {
            printReport(o.result);
            if (o.profile)
                printProfile(*o.profile);
        } else {
            printFailure(o);
        }
    }

    CampaignSummary sum = summarizeOutcomes(outcomes);
    if (sum.retried || sum.failed || sum.timedOut || sum.crashed ||
        sum.storeHits) {
        std::printf("\ncampaign: %llu ok, %llu retried, %llu failed, "
                    "%llu timed out, %llu crashed, "
                    "%llu store hit(s), %llu store miss(es)\n",
                    static_cast<unsigned long long>(sum.ok),
                    static_cast<unsigned long long>(sum.retried),
                    static_cast<unsigned long long>(sum.failed),
                    static_cast<unsigned long long>(sum.timedOut),
                    static_cast<unsigned long long>(sum.crashed),
                    static_cast<unsigned long long>(sum.storeHits),
                    static_cast<unsigned long long>(sum.storeMisses));
    }

    // Crashed workers mean the campaign lost process-level integrity:
    // distinguish that (2) from contained in-simulation failures (1).
    int rc = sum.crashed ? 2 : (sum.allOk() ? 0 : 1);
    if (!json_path.empty()) {
        ExperimentEnv env;
        env.names = workloads;
        env.instrs = instrs;
        env.warmup = warmup;
        auto written = writeSuiteJson(json_path, cfg, env, outcomes);
        if (!written.ok()) {
            std::fprintf(stderr, "catchsim: %s\n",
                         written.error().message.c_str());
            rc = rc ? rc : 1;
        } else {
            std::fprintf(stderr, "wrote %s\n", json_path.c_str());
        }
    }
    return rc;
}
