#include "cache/cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace catchsim
{

namespace
{

/** Tag-array bit 0: the line is valid. */
constexpr Addr kValidBit = 1;

} // namespace

Cache::Cache(std::string name, const CacheGeometry &geom, ReplKind repl,
             uint64_t seed)
    : name_(std::move(name)), geom_(geom), numSets_(geom.numSets()),
      tags_(static_cast<size_t>(numSets_) * geom.ways, 0),
      lines_(static_cast<size_t>(numSets_) * geom.ways),
      repl_(makeReplacement(repl, seed))
{
    CATCHSIM_ASSERT(isPowerOfTwo(numSets_), name_, ": sets not pow2");
    repl_->reset(numSets_, geom_.ways);
}

uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<uint32_t>((addr >> kLineShift) & (numSets_ - 1));
}

uint32_t
Cache::findWay(uint32_t set, Addr addr) const
{
    const Addr want = lineAddr(addr) | kValidBit;
    const Addr *row = &tags_[static_cast<size_t>(set) * geom_.ways];
    uint32_t w = 0;
    while (w < geom_.ways && row[w] != want)
        ++w;
    return w;
}

CacheLine *
Cache::lookup(Addr addr, bool is_demand)
{
    uint32_t set = setIndex(addr);
    if (is_demand) {
        ++stats_.demandAccesses; // catch-analyze: allow(warming-purity)
        ++stats_.readOps;        // catch-analyze: allow(warming-purity)
    }
    uint32_t w = findWay(set, addr);
    if (w == geom_.ways)
        return nullptr;
    if (is_demand) {
        ++stats_.demandHits; // catch-analyze: allow(warming-purity)
        repl_->onHit(set, w);
        // usedSinceFill is managed by the hierarchy, which needs to
        // observe the first use of a prefetched line.
    }
    return &lines_[static_cast<size_t>(set) * geom_.ways + w];
}

CacheLine *
Cache::warmLookup(Addr addr)
{
    uint32_t set = setIndex(addr);
    uint32_t w = findWay(set, addr);
    if (w == geom_.ways)
        return nullptr;
    repl_->onHit(set, w);
    return &lines_[static_cast<size_t>(set) * geom_.ways + w];
}

const CacheLine *
Cache::peek(Addr addr) const
{
    uint32_t set = setIndex(addr);
    uint32_t w = findWay(set, addr);
    if (w == geom_.ways)
        return nullptr;
    return &lines_[static_cast<size_t>(set) * geom_.ways + w];
}

Cache::Victim
Cache::fill(Addr addr, bool dirty, Cycle ready_at, FillSource source,
            Level fill_level)
{
    return fillImpl(addr, dirty, ready_at, source, fill_level, true);
}

Cache::Victim
Cache::warmFill(Addr addr, bool dirty, FillSource source, Level fill_level)
{
    // ready_at = 0: warmed lines are immediately ready; the per-window
    // detailed warmup re-establishes realistic in-flight timing.
    return fillImpl(addr, dirty, 0, source, fill_level, false);
}

Cache::Victim
Cache::fillImpl(Addr addr, bool dirty, Cycle ready_at, FillSource source,
                Level fill_level, bool count)
{
    uint32_t set = setIndex(addr);
    Addr *tags = &tags_[static_cast<size_t>(set) * geom_.ways];
    CacheLine *row = &lines_[static_cast<size_t>(set) * geom_.ways];
    if (count)
        ++stats_.writeOps; // catch-analyze: allow(warming-purity)

    // Merge if already present (e.g. a writeback landing on a prefetched
    // copy, or a duplicate fill).
    if (uint32_t w = findWay(set, addr); w != geom_.ways) {
        row[w].dirty |= dirty;
        if (ready_at < row[w].readyAt)
            row[w].readyAt = ready_at;
        // A demand or writeback fill landing on a prefetched copy
        // proves the line was wanted: take over its provenance so a
        // later eviction is not misattributed to a useless prefetch
        // (and the evicting level sees the true source).
        bool resident_is_prefetch =
            row[w].source != FillSource::Demand &&
            row[w].source != FillSource::Writeback;
        bool incoming_is_real = source == FillSource::Demand ||
                                source == FillSource::Writeback;
        if (resident_is_prefetch && incoming_is_real) {
            row[w].source = source;
            row[w].fillLevel = fill_level;
        }
        repl_->onHit(set, w);
        return Victim{};
    }

    uint32_t way = 0;
    while (way < geom_.ways && (tags[way] & kValidBit))
        ++way;

    Victim victim;
    if (way == geom_.ways) {
        way = repl_->victim(set);
        CATCHSIM_ASSERT(way < geom_.ways, name_, ": bad victim way");
        CacheLine &v = row[way];
        victim.valid = true;
        victim.addr = tags[way] & ~kValidBit;
        victim.dirty = v.dirty;
        victim.source = v.source;
        victim.usedSinceFill = v.usedSinceFill;
        if (count) {
            ++stats_.evictions; // catch-analyze: allow(warming-purity)
            if (v.dirty) {
                // catch-analyze: allow(warming-purity)
                ++stats_.dirtyEvictions;
            }
            bool was_prefetch = v.source != FillSource::Demand &&
                                v.source != FillSource::Writeback;
            if (was_prefetch && !v.usedSinceFill) {
                // catch-analyze: allow(warming-purity)
                ++stats_.uselessPrefetchEvictions;
            }
        }
    }

    tags[way] = lineAddr(addr) | kValidBit;
    CacheLine &line = row[way];
    line.dirty = dirty;
    line.readyAt = ready_at;
    line.source = source;
    line.fillLevel = fill_level;
    line.usedSinceFill = false;
    repl_->onFill(set, way);
    if (count)
        ++stats_.fills; // catch-analyze: allow(warming-purity)
    return victim;
}

bool
Cache::invalidate(Addr addr, bool *was_present, bool count)
{
    uint32_t set = setIndex(addr);
    uint32_t w = findWay(set, addr);
    if (was_present)
        *was_present = w != geom_.ways;
    if (w == geom_.ways)
        return false;
    size_t idx = static_cast<size_t>(set) * geom_.ways + w;
    tags_[idx] &= ~kValidBit;
    if (count)
        ++stats_.invalidations; // catch-analyze: allow(warming-purity)
    return lines_[idx].dirty;
}

void
Cache::saveWarmState(StateSink &sink) const
{
    sink.tag(stateTag("CACH"));
    sink.u64(lines_.size());
    for (size_t i = 0; i < lines_.size(); ++i) {
        const CacheLine &line = lines_[i];
        sink.u64(tags_[i] & ~kValidBit);
        sink.boolean((tags_[i] & kValidBit) != 0);
        sink.boolean(line.dirty);
        sink.u64(line.readyAt);
        sink.u8(static_cast<uint8_t>(line.source));
        sink.u8(static_cast<uint8_t>(line.fillLevel));
        sink.boolean(line.usedSinceFill);
    }
    repl_->saveWarmState(sink);
}

bool
Cache::loadWarmState(StateSource &src)
{
    if (!src.expect(stateTag("CACH")))
        return false;
    if (src.u64() != lines_.size() || !src.fits(lines_.size() * 21))
        return false;
    for (size_t i = 0; i < lines_.size(); ++i) {
        CacheLine &line = lines_[i];
        Addr tag = src.u64();
        bool valid = src.boolean();
        // A tag is a line address; low bits would alias the valid bit.
        if (lineAddr(tag) != tag)
            return false;
        tags_[i] = tag | (valid ? kValidBit : 0);
        line.dirty = src.boolean();
        line.readyAt = src.u64();
        line.source = static_cast<FillSource>(src.u8());
        line.fillLevel = static_cast<Level>(src.u8());
        line.usedSinceFill = src.boolean();
    }
    return src.ok() && repl_->loadWarmState(src);
}

bool
Cache::setDirty(Addr addr)
{
    CacheLine *line = lookup(addr, false);
    if (!line)
        return false;
    line->dirty = true;
    ++stats_.writeOps;
    return true;
}

} // namespace catchsim
