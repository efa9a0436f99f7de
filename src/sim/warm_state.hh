/**
 * @file
 * WarmStateStore: content-addressed warmed-state snapshots.
 *
 * Sampled campaigns spend most of their host time in functional warming
 * (sim/fast_forward.hh). That work is a pure function of the warming
 * identity — (kernel, seed, boundary, trace shape, warming-visible
 * config) — so repeat sweeps that vary only timing knobs re-derive the
 * exact same warmed state over and over. The store memoizes it at two
 * kinds of boundary:
 *
 *   - the global-warmup boundary (windowIndex 0): the state immediately
 *     before resetStats(). Keyed by warmConfigDigest() only, so a pure
 *     timing resweep shares the snapshot — warming stamps fills with
 *     readyAt 0 and never advances the clock, so timing knobs cannot
 *     reach it;
 *   - every sampling-window boundary (windowIndex >= 1): the state at
 *     the end of each inter-window warming gap, where most warming time
 *     goes at the default 20000/2000/2000 schedule. State there depends
 *     on the detailed windows executed before it, so these keys carry
 *     the FULL config digest (timing included; worker_proto.hh
 *     configDigest) plus sampleScheduleDigest() — only a run that
 *     executes bitwise the same detailed prefix may restore one.
 *
 * Snapshots are split into a byte blob (every non-memory component) and
 * a copy-on-write functional-memory page image: the store and restored
 * runs share refcounted immutable page handles, so a restore adopts
 * pointers instead of copying the page map, and a run's first write to
 * a shared page clones just that page (mem/functional_memory.hh).
 *
 * Keying is honest by construction:
 *   - the key carries the trace identity (kernel, seed, totalOps,
 *     chunkOps) and the snapshot position (boundaryOps, windowIndex).
 *     totalOps is in the key because the stream clamps its final chunk
 *     against it, so the generation frontier near the trace end
 *     depends on it;
 *   - warmConfigDigest() hashes exactly the SimConfig fields the schema
 *     (common/sim_config.hh) tags WarmVisible — every knob that can
 *     reach warmed state — and deliberately excludes pure timing knobs;
 *     tools/analysis/catch_analyze.py (warm-digest rule) statically
 *     checks every config read on the warming call graph against those
 *     tags, and knows sampleScheduleDigest() covers the SamplingConfig
 *     fields for the window-boundary keys;
 *   - kWarmStateFormatVersion is part of every record; bump it whenever
 *     any component's saveWarmState encoding changes and stale disk
 *     snapshots turn into clean misses instead of misparses.
 *
 * Tiering and integrity mirror trace/chunk_store.hh: a mutex-guarded
 * in-memory LRU over immutable shared snapshots, an optional disk tier
 * with checksummed records written via unique-temp + rename, first-
 * writer-wins put(), and a corrupt record (truncation, bit flip,
 * version skew, key mismatch) is warned about, deleted and reported as
 * a miss — the caller re-warms; results are never wrong, only slower.
 */

#ifndef CATCHSIM_SIM_WARM_STATE_HH_
#define CATCHSIM_SIM_WARM_STATE_HH_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/error.hh"
#include "common/fault_inject.hh"
#include "common/sim_config.hh"
#include "mem/functional_memory.hh"

namespace catchsim
{

/** Bump whenever any component's saveWarmState encoding, or the
 *  digests' encoding, changes (3: digests derived from the schema). */
constexpr uint32_t kWarmStateFormatVersion = 3;

/**
 * Identity of one warmed-state snapshot. Two runs with equal keys are
 * guaranteed (by construction of the digests and the trace determinism
 * contract) to derive bitwise-identical warmed state.
 */
struct WarmStateKey
{
    std::string kernel;        ///< workload name
    uint64_t seed = 0;         ///< workload seed
    uint64_t boundaryOps = 0;  ///< trace position of the snapshot
    uint64_t totalOps = 0;     ///< stream total (final-chunk clamp)
    uint64_t chunkOps = 0;     ///< stream chunk size (ring layout)
    uint64_t configDigest = 0; ///< warmConfigDigest(cfg) at windowIndex
                               ///< 0; full configDigest(cfg) otherwise
    uint64_t windowIndex = 0;  ///< 0 = global-warmup boundary;
                               ///< p >= 1 = the gap before period p
    uint64_t scheduleDigest = 0; ///< sampleScheduleDigest(); 0 at the
                                 ///< schedule-independent global boundary

    bool
    operator==(const WarmStateKey &o) const
    {
        return kernel == o.kernel && seed == o.seed &&
               boundaryOps == o.boundaryOps && totalOps == o.totalOps &&
               chunkOps == o.chunkOps && configDigest == o.configDigest &&
               windowIndex == o.windowIndex &&
               scheduleDigest == o.scheduleDigest;
    }
};

/**
 * FNV-1a digest of the SimConfig fields tagged WarmVisible: every knob
 * that can influence warmed state. Pure timing knobs are excluded on
 * purpose — see the file comment for the argument and the static check
 * that guards it.
 */
uint64_t warmConfigDigest(const SimConfig &cfg);

/**
 * FNV-1a digest of the sampling schedule (every SamplingConfig field:
 * mode, interval, window, warmup). Window-boundary snapshots
 * (windowIndex >= 1) carry it: the state at a window boundary depends
 * on where every earlier detailed window fell, which is exactly what
 * the schedule decides. The global boundary (windowIndex 0) predates
 * the first window and stays schedule-independent, so those keys use 0
 * instead.
 */
uint64_t sampleScheduleDigest(const SamplingConfig &sc);

/**
 * One warmed-state snapshot: the serialized non-memory components plus
 * a copy-on-write functional-memory image whose page handles are
 * shared between the store, the publishing run and every restored run.
 */
struct WarmSnapshot
{
    std::string bytes;                 ///< every non-memory component
    FunctionalMemory::PageImage pages; ///< COW-shared memory image

    /** Logical size of this snapshot on its own: blob bytes plus the
     *  full page data. Profile counters report it symmetrically for
     *  hits and misses. The store's memory budget does NOT sum these —
     *  it charges page data shared between resident snapshots once
     *  (see WarmStateStore::Config::memBudgetBytes). */
    size_t
    residentBytes() const
    {
        return bytes.size() +
               pages.size() * (sizeof(Addr) + sizeof(FunctionalMemory::Page));
    }
};

/**
 * Two-tier (memory LRU + optional disk) store of warmed-state
 * snapshots. Thread-safe; snapshots are immutable once published.
 */
class WarmStateStore
{
  public:
    using SnapshotPtr = std::shared_ptr<const WarmSnapshot>;

    struct Config
    {
        /** In-memory budget over the store's PHYSICAL residency: blob
         *  bytes per snapshot, plus each distinct copy-on-write page
         *  counted once however many resident snapshots share it. The
         *  window-boundary snapshots of one run share nearly their
         *  whole image (only pages written between boundaries diverge),
         *  so a whole sweep's snapshots typically cost one workload
         *  footprint plus deltas. */
        size_t memBudgetBytes = size_t(128) << 20;

        /** Disk tier directory; empty disables the disk tier. */
        std::string diskDir;

        /** Consult/publish at sampling-window boundaries too (phase 2),
         *  not just the global-warmup boundary. Off reproduces the
         *  phase-1 store for A/B measurement (docs/PERFORMANCE.md). */
        bool perWindow = true;

        /**
         * Window-boundary eligibility gate, part 1: memoize window
         * boundaries only when the schedule's inter-window slack
         * (interval - warmup - window instrs) is at least this many
         * instructions. A window restore costs roughly one component-
         * blob parse plus an O(pages) map rebuild — a few ms — while
         * the warming it replaces scales with the gap, so short-slack
         * schedules (the 20k-instr default: slack 16k) lose by
         * restoring and long-warming schedules win. 0 = no floor.
         * The gate never changes results — restored and re-warmed
         * state are bitwise identical — only where time goes.
         */
        uint64_t minWindowGapInstrs = 50000;

        /**
         * Window-boundary eligibility gate, part 2: stop memoizing
         * window boundaries once the run's resident page count at the
         * gap start exceeds this. The map rebuild in restorePages()
         * and the snapshot sort are O(pages); page-heavy streaming
         * workloads (hpc.stream: ~17k pages) also warm fastest per
         * instruction (the repeat filter skips most of a sequential
         * walk), so for them re-warming beats restoring at any
         * realistic gap. Evaluated at the pre-gap position, which both
         * the publishing and the consulting run reach with bitwise-
         * identical state — the gate decision is deterministic and
         * consistent across reps, processes and job counts. 0 = no cap.
         */
        uint64_t maxWindowPages = 12288;

        /** Fault-injection plan (targets "warm-state-store" for every
         *  disk read and "warm-state-window" for window-boundary reads
         *  only, kind state-corrupt); null disables injection. */
        const FaultPlan *plan = nullptr;
    };

    struct Stats
    {
        uint64_t hits = 0;      ///< find() served (memory or disk)
        uint64_t misses = 0;    ///< find() empty-handed — caller warms
        uint64_t diskHits = 0;  ///< subset of hits read from disk
        uint64_t evictions = 0; ///< memory-tier LRU evictions
        uint64_t corrupt = 0;   ///< disk records dropped as corrupt
        uint64_t puts = 0;      ///< new snapshots published
        uint64_t windowHits = 0;   ///< subset of hits with windowIndex>0
        uint64_t windowMisses = 0; ///< subset of misses, likewise
    };

    WarmStateStore();
    explicit WarmStateStore(Config cfg);
    ~WarmStateStore();

    WarmStateStore(const WarmStateStore &) = delete;
    WarmStateStore &operator=(const WarmStateStore &) = delete;

    /**
     * Looks @p key up in memory, then on disk. A corrupt disk record is
     * deleted and counted, and the call reports a miss. @returns null
     * on a miss — the caller warms functionally and put()s the result.
     */
    SnapshotPtr find(const WarmStateKey &key);

    /**
     * Publishes @p snap under @p key and writes it to the disk tier.
     * First writer wins: every writer of a given key derived identical
     * state, so a racing publication keeps the resident copy.
     */
    SnapshotPtr put(const WarmStateKey &key, WarmSnapshot snap);

    /** Publishes a pages-free snapshot (unit tests, tooling). */
    SnapshotPtr
    put(const WarmStateKey &key, std::string bytes)
    {
        return put(key, WarmSnapshot{std::move(bytes), {}});
    }

    /**
     * Drops @p key from both tiers. The simulator calls this when a
     * restored snapshot fails component-level validation (a format bug
     * the checksum cannot catch): the retry re-warms and republishes.
     */
    void remove(const WarmStateKey &key);

    Stats stats() const;
    size_t residentBytes() const;

    /** Whether window-boundary snapshots participate (Config). */
    bool perWindow() const { return cfg_.perWindow; }

    /** Slack floor for window-boundary memoization (Config). */
    uint64_t minWindowGap() const { return cfg_.minWindowGapInstrs; }

    /** Page-count cap for window-boundary memoization (Config). */
    uint64_t maxWindowPages() const { return cfg_.maxWindowPages; }

    /**
     * Reads and fully validates @p key's disk record: size bound,
     * whole-record checksum, magic, version, key echo, payload-length
     * consistency, page-section shape — in that order, so a bad byte is
     * never trusted. Exposed for the disk-tier taxonomy tests; find()
     * is the production path.
     */
    Expected<SnapshotPtr> loadDiskChecked(const WarmStateKey &key);

    /** The record path @p key maps to (test + tooling visibility). */
    std::string diskPath(const WarmStateKey &key) const;

    /** Effective disk dir; empty when disabled (also after a failed
     *  create — the store degrades to the memory tier). */
    const std::string &diskDir() const { return cfg_.diskDir; }

    /**
     * The process-wide store, or null when disabled. Enabled by
     * CATCH_WARM_STATE=1 (memory tier) or a non-empty
     * CATCH_WARM_STATE_CACHE directory (memory + disk tier);
     * CATCH_WARM_STATE_MB overrides the memory budget (default 128),
     * CATCH_WARM_STATE_WINDOWS=0 disables the window-boundary
     * snapshots (phase-1 behavior), and CATCH_WARM_STATE_MIN_GAP /
     * CATCH_WARM_STATE_MAX_PAGES override the two eligibility gates
     * (Config::minWindowGapInstrs / maxWindowPages; 0 = ungated).
     * First call reads the environment (env.hh contract).
     */
    static WarmStateStore *global();

  private:
    struct Entry
    {
        std::string mapKey;
        SnapshotPtr snap;
    };

    static std::string mapKey(const WarmStateKey &key);
    Expected<void> writeDisk(const WarmStateKey &key,
                             const WarmSnapshot &snap);
    void evictOverBudgetLocked();
    /** Budget accounting for inserting/erasing one entry: blob bytes
     *  always, page data only on the first/last reference store-wide
     *  (sharing-aware — see Config::memBudgetBytes). */
    void chargeLocked(const WarmSnapshot &snap);
    void releaseLocked(const WarmSnapshot &snap);

    Config cfg_;

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> map_;
    /** Store-wide reference counts of resident COW pages, by identity. */
    std::unordered_map<const FunctionalMemory::Page *, uint64_t> pageRefs_;
    size_t residentBytes_ = 0;
    Stats stats_;
    std::atomic<uint64_t> tmpSerial_{0};
};

} // namespace catchsim

#endif // CATCHSIM_SIM_WARM_STATE_HH_
