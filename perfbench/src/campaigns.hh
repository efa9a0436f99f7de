/**
 * @file
 * The benchmark's three workloads. Each is a closed-loop batch
 * campaign issued from this one process (a fixed number of workers,
 * each taking the next cell when its last one finishes, longest
 * first), timed from outside the simulator's public API:
 *
 *   figure-detailed   Fig 10 in detailed mode on 2 threads
 *   sweep-sampled     Fig 15-style LLC-latency sweep in sampled mode,
 *                     serial, fresh memory-tier chunk + warm-state
 *                     stores per pass
 *   resweep-isolated  one-knob resweep of a result-store-backed
 *                     campaign, new cells in 2 worker processes
 *
 * See perfbench/README.md for why each was chosen and what each
 * metric means.
 */

#ifndef CATCHBENCH_CAMPAIGNS_HH_
#define CATCHBENCH_CAMPAIGNS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "spans.hh"

namespace catchbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workerBin; ///< built catchsim CLI (resweep workers)
    std::string outDir;    ///< scratch space inside the checkout
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything the run prints. */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0; ///< cells attempted (timed passes + checks)
    uint64_t failed = 0;    ///< cells not ok or failing a check
    std::vector<std::string> failures; ///< one line per failed check
    std::vector<std::string> notes;    ///< human-readable context

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Records a failed check; every failure counts once in failed. */
    void fail(const std::string &what)
    {
        ++failed;
        failures.push_back(what);
    }
};

Report runFigureDetailed(const Options &opt);
Report runSweepSampled(const Options &opt);
Report runResweepIsolated(const Options &opt);

/** Names of the per-layer metrics, in output order; a traced run
 *  reports every one (0 where its workload has no such traffic). */
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

} // namespace catchbench

#endif // CATCHBENCH_CAMPAIGNS_HH_
