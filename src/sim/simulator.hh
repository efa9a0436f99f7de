/**
 * @file
 * Single-thread simulator: wires a workload trace, one OooCore, the
 * cache hierarchy, the criticality detector and TACT together, runs a
 * warmup window, and collects every statistic the benches report.
 */

#ifndef CATCHSIM_SIM_SIMULATOR_HH_
#define CATCHSIM_SIM_SIMULATOR_HH_

#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "cache/hierarchy.hh"
#include "common/error.hh"
#include "common/fault_inject.hh"
#include "common/sim_config.hh"
#include "core/ooo_core.hh"
#include "criticality/ddg.hh"
#include "power/power_model.hh"
#include "sim/run_guard.hh"
#include "sim/warm_state.hh"
#include "tact/tact.hh"
#include "trace/chunk_store.hh"
#include "trace/trace_stream.hh"
#include "trace/workload.hh"

namespace catchsim
{

class JsonValue;

/**
 * Per-window aggregation of a sampled run (SampleMode::Sampled). The
 * variance/min/max over window IPCs quantify how much confidence the
 * sample schedule earned — a high variance says the workload's phases
 * need a shorter interval (more windows) before the mean is trustworthy.
 */
struct SampleStats
{
    uint64_t windows = 0;      ///< measured detailed windows recorded
    uint64_t warmedInstrs = 0; ///< instrs processed by functional warming
    double ipcMean = 0;        ///< arithmetic mean of per-window IPCs
                               ///< (SimResult::ipc uses the unbiased
                               ///< ratio estimator instead)
    double ipcVariance = 0;    ///< population variance over window IPCs
    double ipcMin = 0;
    double ipcMax = 0;
};

/** Everything a bench might want from one run. */
struct SimResult
{
    std::string workload;
    std::string config;
    Category category = Category::Ispec;

    CoreStats core;
    double ipc = 0;

    HierarchyStats hier;
    CacheStats l1d;
    CacheStats l1i;
    CacheStats l2;
    bool hasL2 = false;
    CacheStats llc;
    DramStats dram;
    FrontendStats frontend;

    DdgStats ddg;
    CriticalTableStats criticalTable;
    uint32_t activeCriticalPcs = 0;
    TactStats tact;

    /** Fig 11: fraction of useful TACT prefetches saving >= 80% of the
     *  LLC latency, and the fraction saving >= 10%. */
    double timelinessAtLeast80 = 0;
    double timelinessAtLeast10 = 0;
    /** Fig 11: fraction of TACT prefetches served by the LLC. */
    double tactFromLlcFraction = 0;

    EnergyBreakdown energy;

    /** Set iff the run used SampleMode::Sampled; detailed-mode results
     *  carry neither the flag nor a "sampling" JSON object, keeping
     *  their export byte-identical to pre-sampling trees. */
    bool sampled = false;
    SampleStats sample;

    /** Machine-readable form of every counter above (one JSON object). */
    std::string toJson() const;

    /**
     * Parses a toJson() document back into a SimResult. Counters round
     * trip bitwise (exact u64, %.17g doubles), so a store-served
     * result compares identical to the original. Malformed or
     * wrong-shape input returns a trace-corrupt SimError.
     */
    static Expected<SimResult> fromJson(const std::string &json);
    static Expected<SimResult> fromJson(const JsonValue &v);
};

/**
 * How the simulator obtains its instruction trace.
 *
 * Streamed is the default: the workload generates chunk-sized batches
 * just ahead of the core (O(chunk) memory). Materialized generates the
 * whole trace up front (O(instrs) memory) and exists as the oracle the
 * determinism tests compare against — both modes produce bitwise
 * identical SimResults.
 */
enum class TraceMode : uint8_t
{
    Streamed,
    Materialized,
};

/**
 * Host-side phase timings and memory footprint for one run. Pure
 * host-profiling output (--profile, the perf bench): wall-clock values
 * never feed back into SimResult, which stays deterministic.
 *
 * In streamed mode trace generation is interleaved with simulation, so
 * traceGenSec overlaps warmupSec/measuredSec instead of preceding them;
 * in materialized mode the phases are disjoint.
 */
struct RunProfile
{
    /** All of the run's trace generation: kernel setup, priming and
     *  every refill, including the part built ahead on a PreparedTrace
     *  before the run started (on whichever thread built it). */
    double traceGenSec = 0;
    /** From the run's start to the end of warmup. The run starts when
     *  Simulator::runGuarded is called: with a Workload, that includes
     *  building the trace (a streamed trace's priming is part of its
     *  warmup, a materialized trace's generation is not); on a
     *  PreparedTrace, the trace built ahead is not counted. */
    double warmupSec = 0;
    /** From the end of warmup to the end of the run. */
    double measuredSec = 0;
    uint64_t peakRssBytes = 0;
    /** Chunk refills served by / missed in the chunk store for THIS
     *  run (zero when no store is attached). Per-run, never cumulative
     *  across a campaign, so store hit-rate is attributable per cell. */
    uint64_t storeHitChunks = 0;
    uint64_t storeMissChunks = 0;
    /** Warmed-state snapshot traffic for THIS run (zero when no
     *  warm-state store is attached or the run is ineligible — not
     *  sampled, not stream+chunk-store backed, or zero warmup). A hit
     *  skipped the global functional warmup; a miss warmed and
     *  published. Bytes counts the resident size (blob + page image)
     *  restored or published. */
    uint64_t warmStateHits = 0;
    uint64_t warmStateMisses = 0;
    uint64_t warmStateBytes = 0;
    /** Same attribution for the window-boundary (inter-sample) keys —
     *  the phase-2 consults, separate from the global-warmup counters
     *  above so a campaign's hit-rate report can tell the two regimes
     *  apart. Zero when the store's per-window mode is off. */
    uint64_t warmStateWindowHits = 0;
    uint64_t warmStateWindowMisses = 0;
    uint64_t warmStateWindowBytes = 0;
};

template <FieldsOf<RunProfile> P, typename V>
void
forEachField(P &p, V &v)
{
    v.field("trace_gen_sec", p.traceGenSec);
    v.field("warmup_sec", p.warmupSec);
    v.field("measured_sec", p.measuredSec);
    v.field("peak_rss_bytes", p.peakRssBytes);
    v.field("store_hit_chunks", p.storeHitChunks);
    v.field("store_miss_chunks", p.storeMissChunks);
    v.field("warm_state_hits", p.warmStateHits);
    v.field("warm_state_misses", p.warmStateMisses);
    v.field("warm_state_bytes", p.warmStateBytes);
    v.field("warm_state_window_hits", p.warmStateWindowHits);
    v.field("warm_state_window_misses", p.warmStateWindowMisses);
    v.field("warm_state_window_bytes", p.warmStateWindowBytes);
}

/**
 * The optional "hostPerf" object beside a run's result in outcome
 * exports and worker result frames. Host-side profiling is wall-clock
 * data and deliberately NOT part of SimResult's deterministic payload
 * (or of result-store records). @p profile is a (const) std::optional<RunProfile>;
 * reading fills it iff the document carries the object.
 */
template <typename V, typename P>
void
hostPerfField(V &v, P &profile)
{
    bool present = profile.has_value();
    if (!v.object("hostPerf", present))
        return;
    if constexpr (!std::is_const_v<P>)
        profile.emplace();
    forEachField(*profile, v);
    v.close();
}

/**
 * A run's trace, built before the run starts: the workload's kernel
 * setup has run and a streamed trace's two-chunk ring is primed (a
 * materialized trace is generated whole). Building one reads no
 * SimConfig, so it may happen on another thread and before the run's
 * config is validated; the supervised worker builds the next run's
 * trace this way while the current run simulates. A prepared trace
 * serves exactly one run, of a Simulator with the same TraceMode and
 * chunk store, for instrs + warmup == totalOps.
 */
class PreparedTrace
{
  public:
    /**
     * @param wl must outlive this object; the stream owns its
     *        generation cursors until the run ends
     * @param profile time generation into the run's
     *        RunProfile::traceGenSec
     */
    PreparedTrace(Workload &wl, uint64_t total_ops, TraceMode mode,
                  ChunkStore *store, bool profile);

    /**
     * Looks up @p name (findWorkload) and prepares its streamed trace,
     * owning the workload. std::nullopt for an unknown name: the run
     * reports that error itself when it starts.
     */
    static std::optional<PreparedTrace>
    forWorkload(const std::string &name, uint64_t total_ops,
                ChunkStore *store, bool profile);

    Workload &workload() const { return *wl_; }

  private:
    friend class Simulator;

    std::unique_ptr<Workload> owned_; ///< set by forWorkload only
    Workload *wl_;
    uint64_t totalOps_;
    TraceMode mode_;
    ChunkStore *store_;
    std::optional<Trace> trace_;          ///< materialized mode
    std::unique_ptr<TraceStream> stream_; ///< streamed mode
    double genSec_ = 0; ///< materialized generation time, if profiled
    bool spent_ = false;
};

/** Runs one workload on one machine configuration. */
class Simulator
{
  public:
    /**
     * @param store memoized chunk store feeding streamed-mode refills;
     *        defaults to the process-wide store (null unless enabled
     *        via CATCH_TRACE_STORE / CATCH_TRACE_CACHE). Results are
     *        bitwise-identical with or without one.
     * @param warm_store memoized warmed-state snapshots: sampled runs
     *        with a chunk store restore the global-warmup state — and,
     *        in the store's per-window mode, every inter-sample warming
     *        gap — instead of re-deriving them functionally. Defaults
     *        to the process-wide store (null unless enabled via
     *        CATCH_WARM_STATE / CATCH_WARM_STATE_CACHE). Results are
     *        bitwise-identical with or without one.
     */
    explicit Simulator(const SimConfig &cfg,
                       TraceMode mode = TraceMode::Streamed,
                       ChunkStore *store = ChunkStore::global(),
                       WarmStateStore *warm_store = WarmStateStore::global());

    /**
     * @param instrs measured instructions
     * @param warmup instructions run before stats reset
     */
    SimResult run(Workload &workload, uint64_t instrs, uint64_t warmup);

    /**
     * Like run(), but polices @p budget with a Watchdog: a run that
     * overruns its cycle ceiling or stalls past the no-retire window
     * returns budget-exceeded instead of spinning forever. Successful
     * guarded runs are bitwise-identical to unguarded ones (the
     * watchdog only observes).
     * @param profile when non-null, filled with host phase timings and
     *        peak RSS; the simulated result is unaffected.
     * Prepares the trace (PreparedTrace) and runs on it.
     */
    Expected<SimResult> runGuarded(Workload &workload, uint64_t instrs,
                                   uint64_t warmup,
                                   const RunBudget &budget,
                                   RunProfile *profile = nullptr);

    /**
     * runGuarded on a trace built ahead, which it consumes. The result
     * is bitwise-identical to runGuarded(trace.workload(), ...).
     */
    Expected<SimResult> runGuarded(PreparedTrace &trace, uint64_t instrs,
                                   uint64_t warmup,
                                   const RunBudget &budget,
                                   RunProfile *profile = nullptr);

  private:
    SimConfig cfg_;
    TraceMode mode_;
    ChunkStore *store_;
    WarmStateStore *warmStore_;
};

/** Convenience: build + run in one call. */
SimResult runWorkload(const SimConfig &cfg, const std::string &name,
                      uint64_t instrs, uint64_t warmup);

/**
 * Fault-contained single run: validates the config, resolves @p name
 * recoverably, applies any faults @p plan injects for (@p name,
 * @p attempt) — trace corruption, transient IO errors, an injected
 * hang driven through the real watchdog — and polices @p budget.
 * Worker exceptions (including injected ones) are NOT caught here;
 * the per-slot isolation in runWorkloadsIsolated converts them into
 * internal RunFailures. @p prepared, when non-null, is @p name's trace
 * built ahead (PreparedTrace::forWorkload with the same store, instrs +
 * warmup ops): the run consumes it instead of building one, after the
 * same fault checks and validation.
 */
Expected<SimResult> runWorkloadGuarded(const SimConfig &cfg,
                                       const std::string &name,
                                       uint64_t instrs, uint64_t warmup,
                                       const RunBudget &budget,
                                       const FaultPlan &plan,
                                       unsigned attempt = 1,
                                       RunProfile *profile = nullptr,
                                       ChunkStore *store =
                                           ChunkStore::global(),
                                       WarmStateStore *warm_store =
                                           WarmStateStore::global(),
                                       PreparedTrace *prepared = nullptr);

} // namespace catchsim

#endif // CATCHSIM_SIM_SIMULATOR_HH_
