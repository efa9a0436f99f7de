/**
 * @file
 * Layer probes for the traced run: each replays one cell's own traffic
 * through a single layer's public entry point and reports the host
 * cost per call. The probes wire their own components from the cell's
 * SimConfig, so they time a layer from outside without any hook in the
 * simulator; their call counts join the exact counters of SimResult.
 */

#ifndef CATCHBENCH_PROBES_HH_
#define CATCHBENCH_PROBES_HH_

#include <cstdint>
#include <string>

#include "common/sim_config.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "trace/workload.hh"

namespace catchbench
{

/** Host seconds spent in @p calls calls of one entry point. */
struct Cost
{
    double sec = 0;
    uint64_t calls = 0;

    double ns() const { return calls ? sec * 1e9 / calls : 0; }
    void
    add(const Cost &o)
    {
        sec += o.sec;
        calls += o.calls;
    }
};

/** FNV-1a over every field of every op: the trace's identity. */
uint64_t traceDigest(const std::vector<catchsim::MicroOp> &ops);

/**
 * Drains a storeless TraceStream of @p total_ops ops of @p wl, timing
 * only the generation calls (construction + every refill), and keeps
 * the ops and the final functional-memory image.
 */
catchsim::Trace captureTrace(catchsim::Workload &wl, size_t total_ops,
                             Cost *gen);

/** FunctionalMemory::read over every load of @p trace. */
Cost probeMemRead(const catchsim::Trace &trace);

/** A detailed run of a pipeline the benchmark wires itself. */
struct PipelineProbe
{
    Cost step;     ///< OooCore::step, inclusive of everything below it
    Cost onRetire; ///< DdgCriticalityDetector::onRetire, replayed
    catchsim::CoreStats core;
    /** Core time after each op retired; the cache replays issue each
     *  op's accesses at it. */
    std::vector<catchsim::Cycle> retiredAt;
    /** The run's DRAM traffic: for every step that moved the DRAM read
     *  or write counter, one entry per access at the op's address (its
     *  line plus the access ordinal) and retire cycle. */
    std::vector<std::pair<catchsim::Addr, catchsim::Cycle>> dramReads,
        dramWrites;
};

/**
 * Wires CacheHierarchy + (for CATCH configs) a forwarding criticality
 * detector and Tact + OooCore exactly as Simulator's detailed mode
 * does, runs @p warmup then the rest of @p trace, and times the step
 * loop. The forwarding detector records every RetireInfo; replaying
 * that stream into a fresh detector gives onRetire's cost without a
 * clock read per call. Reading the DRAM counters after each step (to
 * record the DRAM traffic) is part of the timed loop.
 */
PipelineProbe probePipeline(const catchsim::SimConfig &cfg,
                            const catchsim::Trace &trace, uint64_t warmup,
                            SpanRecorder *rec, const std::string &cell);

/** Demand-path replays of one cell's traffic. */
struct CacheProbe
{
    Cost load, store, code; ///< CacheHierarchy::load/storeCommit/codeFetch
};

/**
 * Replays @p trace's loads, stores and code-line fetches, one call kind
 * per pass on a fresh hierarchy of @p cfg, each op at its retire cycle
 * @p at from probePipeline.
 */
CacheProbe probeCache(const catchsim::SimConfig &cfg,
                      const catchsim::Trace &trace,
                      const std::vector<catchsim::Cycle> &at,
                      SpanRecorder *rec, const std::string &cell);

/** Dram::read and Dram::write over a pipeline run's DRAM traffic, each
 *  on a fresh model of @p cfg's DRAM. */
struct DramProbe
{
    Cost read, write;
};
DramProbe probeDram(const catchsim::SimConfig &cfg, const PipelineProbe &run,
                    SpanRecorder *rec, const std::string &cell);

/** CacheHierarchy::warmAccess over @p trace (loads, stores, code). */
Cost probeWarmAccess(const catchsim::SimConfig &cfg,
                     const catchsim::Trace &trace, SpanRecorder *rec,
                     const std::string &cell);

/** FastForward::warm over all of @p trace on a freshly wired pipeline. */
Cost probeFastForward(const catchsim::SimConfig &cfg,
                      const catchsim::Trace &trace, SpanRecorder *rec,
                      const std::string &cell);

} // namespace catchbench

#endif // CATCHBENCH_PROBES_HH_
