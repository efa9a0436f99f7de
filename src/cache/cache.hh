/**
 * @file
 * A single set-associative cache array with in-flight fill tracking.
 *
 * Timing note: a line filled at cycle T with source latency L carries
 * readyAt = T + L. A demand access before readyAt pays the remaining
 * time on top of the hit latency - this is how MSHR merging and late
 * prefetches are modelled, and it is what the TACT timeliness stats
 * (Fig 11) measure.
 */

#ifndef CATCHSIM_CACHE_CACHE_HH_
#define CATCHSIM_CACHE_CACHE_HH_

#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/sim_config.hh"
#include "common/types.hh"

namespace catchsim
{

/** Who placed a line into a cache. */
enum class FillSource : uint8_t
{
    Demand,
    StridePf,   ///< baseline L1 stride prefetcher
    StreamPf,   ///< baseline L2 multi-stream prefetcher
    TactPf,     ///< any TACT data prefetcher
    TactCodePf, ///< TACT code runahead
    OraclePf,
    Writeback,  ///< victim from an inner level
};

/**
 * One cache line's metadata. The line address and valid bit live in
 * Cache's per-set tag array, so a lookup probes contiguous words.
 */
struct CacheLine
{
    Cycle readyAt = 0;        ///< fill completion time
    bool dirty = false;
    FillSource source = FillSource::Demand;
    /**
     * Hierarchy level the fill data came from. While the line is still
     * in flight (readyAt in the future), a demand access is really an
     * L1 miss merging into the outstanding fill's MSHR, so it reports
     * this level as its server.
     */
    Level fillLevel = Level::None;
    bool usedSinceFill = false; ///< for prefetch-accuracy stats
};

/** Counters for hit rates and the power model. */
struct CacheStats
{
    uint64_t demandAccesses = 0;
    uint64_t demandHits = 0;
    uint64_t fills = 0;
    uint64_t evictions = 0;
    uint64_t dirtyEvictions = 0;
    uint64_t invalidations = 0;
    uint64_t uselessPrefetchEvictions = 0;

    // Energy accounting: every lookup is a read of the array; every fill
    // or dirty-bit update is a write.
    uint64_t readOps = 0;
    uint64_t writeOps = 0;

    double
    hitRate() const
    {
        return demandAccesses
                   ? static_cast<double>(demandHits) / demandAccesses
                   : 0.0;
    }
};

/** A set-associative cache array. */
class Cache
{
  public:
    /** Result of inserting a line: the victim, if one was displaced. */
    struct Victim
    {
        bool valid = false;
        Addr addr = 0;
        bool dirty = false;
        FillSource source = FillSource::Demand;
        bool usedSinceFill = false;
    };

    Cache(std::string name, const CacheGeometry &geom, ReplKind repl,
          uint64_t seed);

    /**
     * Looks up the line containing @p addr.
     * @param is_demand updates hit/access stats and recency when true
     * @returns the line if present, nullptr otherwise
     */
    CacheLine *lookup(Addr addr, bool is_demand);

    /**
     * Functional-warming lookup: updates replacement recency exactly
     * like a demand hit, but touches no counters — warming must be
     * invisible in the stats the detailed windows report.
     */
    CacheLine *warmLookup(Addr addr);

    /** Peeks without updating stats or recency (oracle queries). */
    const CacheLine *peek(Addr addr) const;

    /**
     * Inserts the line containing @p addr, evicting if necessary.
     * If the line is already present its metadata is merged instead.
     */
    Victim fill(Addr addr, bool dirty, Cycle ready_at, FillSource source,
                Level fill_level = Level::None);

    /**
     * Functional-warming fill: same placement/merge/eviction decisions
     * as @ref fill (so inclusion invariants keep holding) but the line
     * is ready immediately and no counters move.
     */
    Victim warmFill(Addr addr, bool dirty, FillSource source,
                    Level fill_level = Level::None);

    /** Removes the line if present. @returns true if it was dirty.
     *  @p count=false keeps warming out of the invalidation stats. */
    bool invalidate(Addr addr, bool *was_present = nullptr,
                    bool count = true);

    /** Marks the line dirty (store commit); @returns false on miss. */
    bool setDirty(Addr addr);

    const std::string &name() const { return name_; }
    const CacheGeometry &geometry() const { return geom_; }
    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats(); }
    uint32_t latency() const { return geom_.latency; }

    /**
     * Serializes the array state — every line's tag/valid/dirty/
     * readyAt/source/fillLevel/usedSinceFill plus the replacement
     * policy state — for warmed-state snapshots. Stats are NOT included
     * (the simulator resets them at the snapshot boundary anyway).
     */
    void saveWarmState(StateSink &sink) const;

    /**
     * Restores a saveWarmState() stream into a cache of the same
     * geometry. @returns false on a malformed or mis-sized stream.
     */
    bool loadWarmState(StateSource &src);

  private:
    uint32_t setIndex(Addr addr) const;
    /** Way holding @p addr's line in @p set, or ways if absent. */
    uint32_t findWay(uint32_t set, Addr addr) const;
    Victim fillImpl(Addr addr, bool dirty, Cycle ready_at,
                    FillSource source, Level fill_level, bool count);

    std::string name_;
    CacheGeometry geom_;
    uint32_t numSets_;
    /**
     * Per line, set-major: its line address with bit 0 as the valid
     * bit (line addresses have their low kLineShift bits clear). An
     * invalidation clears only bit 0: saveWarmState writes the stale
     * tag, which the snapshot byte format carries.
     */
    std::vector<Addr> tags_;
    std::vector<CacheLine> lines_;
    std::unique_ptr<ReplacementPolicy> repl_;
    CacheStats stats_;
};

} // namespace catchsim

#endif // CATCHSIM_CACHE_CACHE_HH_
