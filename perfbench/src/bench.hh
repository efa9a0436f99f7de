/**
 * @file
 * Shared pieces of the campaign benchmark: resource usage, order
 * statistics, digests, the seeded kernel table and the cell/outcome
 * records every workload produces.
 *
 * The benchmark drives the simulator only through its public API and
 * times those calls from outside; nothing here reaches into src/.
 */

#ifndef CATCHBENCH_BENCH_HH_
#define CATCHBENCH_BENCH_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_config.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"

namespace catchbench
{

/** User + system CPU seconds of this process and its waited-for
 *  children (worker processes count). */
double cpuSeconds();

/** Peak RSS in MB of this process, or of its largest waited-for child
 *  when that is larger. */
double peakRssMb();

double median(std::vector<double> v);

/** Quantile @p q in [0, 1] by linear interpolation between ranks. */
double quantile(std::vector<double> v, double q);

/** Hex form of a digest, for the human-readable report lines. */
std::string hex64(uint64_t v);

// ---------------------------------------------------------------------
// Seeded kernels
// ---------------------------------------------------------------------

/**
 * Per-kernel trace seed for benchmark seed @p bench_seed: the suite's
 * own seed at bench seed 0 (so the default inputs are the suite
 * entries byte for byte), a well-mixed distinct seed otherwise.
 */
uint64_t kernelSeed(uint64_t suite_seed, uint64_t bench_seed);

/**
 * Builds suite kernel @p name through trace/kernels/kernels.hh with the
 * suite's constructor arguments and kernelSeed(.., @p bench_seed).
 * Only the kernels the benchmark's workloads use are listed; an
 * unknown name returns null.
 */
std::unique_ptr<catchsim::Workload> makeSeededKernel(const std::string &name,
                                                     uint64_t bench_seed);

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/** One (kernel, config) simulation of a campaign. */
struct Cell
{
    std::string kernel;
    catchsim::SimConfig cfg;
    uint64_t instrs = 0;
    uint64_t warmup = 0;
};

/** How one cell ran in one campaign pass. */
struct CellRun
{
    bool ok = false;
    std::string error;
    catchsim::SimResult result;
    catchsim::RunProfile profile;
    double start = 0; ///< host seconds at task start
    double end = 0;   ///< host seconds at task end
};

/** FNV-1a over every run's SimResult::toJson, in cell order. Failed
 *  cells contribute their error text, so a failure changes the digest. */
uint64_t campaignDigest(const std::vector<CellRun> &runs);

} // namespace catchbench

#endif // CATCHBENCH_BENCH_HH_
