#include "common/sim_config.hh"

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/bitutil.hh"
#include "common/env.hh"

namespace catchsim
{

SamplingConfig
SamplingConfig::fromEnvironment()
{
    SamplingConfig sc;
    if (envFlag("CATCH_SAMPLE"))
        sc.mode = SampleMode::Sampled;
    sc.intervalInstrs = envU64("CATCH_SAMPLE_INTERVAL", sc.intervalInstrs);
    sc.windowInstrs = envU64("CATCH_SAMPLE_WINDOW", sc.windowInstrs);
    sc.warmupInstrs = envU64("CATCH_SAMPLE_WARMUP", sc.warmupInstrs);
    return sc;
}

void
SimConfig::enableCatch()
{
    criticality.enabled = true;
    tact.cross = true;
    tact.deepSelf = true;
    tact.feeder = true;
    tact.code = true;
}

void
SimConfig::removeL2(uint64_t llc_bytes)
{
    hasL2 = false;
    inclusion = InclusionPolicy::Nine;
    llc.sizeBytes = llc_bytes;
    // keep the LLC geometry buildable: ways must divide size into
    // power-of-two sets
    while (llc.numSets() == 0 || !isPowerOfTwo(llc.numSets()))
        ++llc.ways;
}

namespace
{

Expected<void>
checkGeometry(const char *name, const CacheGeometry &g)
{
    if (g.ways == 0)
        return simError(ErrorCategory::Config, name, ": zero ways");
    if (g.sizeBytes % (kLineBytes * g.ways) != 0)
        return simError(ErrorCategory::Config, name,
                        ": size not divisible into ways*lines");
    if (!isPowerOfTwo(g.numSets()))
        return simError(ErrorCategory::Config, name,
                        ": number of sets (", g.numSets(),
                        ") must be a power of two");
    if (g.latency == 0)
        return simError(ErrorCategory::Config, name, ": zero latency");
    return {};
}

/** DDG rows buffered or walked: factor x ROB, cast to u32. */
Expected<void>
checkDdgRows(const char *name, double factor, uint32_t rob_size)
{
    const double rows = factor * rob_size;
    if (!std::isfinite(factor) || !(rows >= 1) || rows > UINT32_MAX)
        return simError(ErrorCategory::Config, "criticality ", name, " (",
                        factor, ") x robSize must be 1..2^32-1 rows");
    return {};
}

Expected<void>
checkCriticality(const CriticalityConfig &c, uint32_t rob_size)
{
    if (c.tableWays == 0 || c.tableEntries % c.tableWays != 0 ||
        !isPowerOfTwo(c.tableEntries / c.tableWays))
        return simError(ErrorCategory::Config,
                        "critical-load table needs ways dividing its "
                        "entries into power-of-two sets");
    if (c.confidenceBits >= 32 || c.latencyQuantShift >= 64)
        return simError(ErrorCategory::Config,
                        "confidenceBits must be < 32 and "
                        "latencyQuantShift < 64");
    if (auto e = checkDdgRows("walkFactor", c.walkFactor, rob_size);
        !e.ok())
        return e;
    if (auto e = checkDdgRows("graphFactor", c.graphFactor, rob_size);
        !e.ok())
        return e;
    if (c.graphFactor < c.walkFactor)
        return simError(ErrorCategory::Config,
                        "DDG buffer must be at least as deep as the walk");
    return {};
}

} // namespace

Expected<void>
SimConfig::validate() const
{
    if (width == 0 || robSize < 2 * width)
        return simError(ErrorCategory::Config,
                        "core width/ROB configuration is degenerate");
    if (auto e = checkGeometry("l1i", l1i); !e.ok())
        return e;
    if (auto e = checkGeometry("l1d", l1d); !e.ok())
        return e;
    if (hasL2)
        if (auto e = checkGeometry("l2", l2); !e.ok())
            return e;
    if (auto e = checkGeometry("llc", llc); !e.ok())
        return e;
    if (!hasL2 && inclusion == InclusionPolicy::Exclusive)
        return simError(ErrorCategory::Config,
                        "exclusive LLC requires an L2 to be exclusive of");
    if (numCores == 0 || numCores > 16)
        return simError(ErrorCategory::Config,
                        "numCores out of supported range");
    if (auto e = checkCriticality(criticality, robSize); !e.ok())
        return e;
    if (!isPowerOfTwo(tact.triggerCacheSets) || tact.triggerCacheWays == 0)
        return simError(ErrorCategory::Config,
                        "TACT trigger cache needs power-of-two sets and "
                        "at least one way");
    if (storeQueueSize == 0)
        return simError(ErrorCategory::Config,
                        "storeQueueSize must be non-zero");
    if (tact.any() && !criticality.enabled)
        return simError(ErrorCategory::Config,
                        "TACT prefetchers require criticality detection");
    // Issue calendars pack a cycle's issue count into 8 bits, and a
    // zero-port class could never issue.
    for (auto [name, ports] : {std::pair{"aluPorts", aluPorts},
                               std::pair{"loadPorts", loadPorts},
                               std::pair{"storePorts", storePorts},
                               std::pair{"fpPorts", fpPorts}})
        if (ports == 0 || ports > 255)
            return simError(ErrorCategory::Config, name, " (", ports,
                            ") must be in 1..255");
    if (!isPowerOfTwo(dram.channels) || !isPowerOfTwo(dram.banksPerRank))
        return simError(ErrorCategory::Config,
                        "DRAM channels/banks must be powers of two");
    if (dram.ranksPerChannel == 0 || dram.rowBytes == 0)
        return simError(ErrorCategory::Config,
                        "DRAM ranks and row size must be non-zero");
    if (dram.tRfc >= dram.tRefi)
        return simError(ErrorCategory::Config,
                        "DRAM refresh needs tRfc < tRefi (tRfc ", dram.tRfc,
                        ", tRefi ", dram.tRefi, ")");
    if (dram.writeDrainBatch == 0)
        return simError(ErrorCategory::Config,
                        "DRAM writeDrainBatch must be non-zero");
    if (dram.writeDrainWatermark > dram.writeQueueDepth)
        return simError(ErrorCategory::Config,
                        "DRAM writeDrainWatermark (", dram.writeDrainWatermark,
                        ") exceeds writeQueueDepth (", dram.writeQueueDepth,
                        ")");
    if (sampling.sampled()) {
        if (sampling.windowInstrs == 0)
            return simError(ErrorCategory::Config,
                            "sampled mode needs a non-zero detailed window");
        if (sampling.warmupInstrs + sampling.windowInstrs >
            sampling.intervalInstrs)
            return simError(ErrorCategory::Config,
                            "sample warmup+window must fit in the interval");
        if (numCores > 1)
            return simError(ErrorCategory::Config,
                            "sampled mode is single-core only; MP mixes "
                            "run detailed");
    }
    return {};
}

} // namespace catchsim
