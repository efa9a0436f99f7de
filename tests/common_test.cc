/**
 * @file
 * Unit tests for the common utilities: bit helpers, RNG, saturating
 * counters, histograms, stats helpers, issue calendar, the busy
 * timeline (differentially against the ring it replaced) and SimConfig
 * validation, including a schema-driven property test that every
 * config validate() accepts also runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bitutil.hh"
#include "common/env.hh"
#include "common/issue_calendar.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/sim_config.hh"
#include "common/stats.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"

namespace catchsim
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtil, Mix64SpreadsBits)
{
    // Consecutive inputs must land far apart (used for table indexing).
    std::set<uint64_t> low_bits;
    for (uint64_t i = 0; i < 64; ++i)
        low_bits.insert(mix64(i) & 63);
    EXPECT_GT(low_bits.size(), 32u);
}

TEST(BitUtil, HashPcFitsWidth)
{
    for (uint64_t pc = 0x400000; pc < 0x400400; pc += 4)
        EXPECT_LT(hashPc(pc, 10), 1024u);
}

TEST(LineAddr, Alignment)
{
    EXPECT_EQ(lineAddr(0x1000), 0x1000u);
    EXPECT_EQ(lineAddr(0x103f), 0x1000u);
    EXPECT_EQ(lineAddr(0x1040), 0x1040u);
    EXPECT_EQ(pageAddr(0x1fff), 0x1000u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, PercentRoughlyCalibrated)
{
    Rng rng(3);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.percent(30);
    EXPECT_NEAR(hits, 3000, 300);
}

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.max(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_TRUE(c.saturated());
    EXPECT_EQ(c.value(), 3u);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, PredictTakenThreshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.predictTaken());
    c.increment();
    EXPECT_TRUE(c.predictTaken());
}

TEST(Histogram, FractionAtLeast)
{
    Histogram h(10, 11); // buckets 0-9, 10-19, ..., 100+
    h.add(5);
    h.add(85);
    h.add(95);
    h.add(100);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(80), 0.75);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(0), 1.0);
    EXPECT_EQ(h.samples(), 4u);
}

TEST(Histogram, ClampsOverflow)
{
    Histogram h(10, 5);
    h.add(1000000);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(40), 1.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.1, 1.1, 1.1}), 1.1, 1e-12);
}

TEST(Stats, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.0841), "+8.41%");
    EXPECT_EQ(formatPercent(-0.0779), "-7.79%");
}

TEST(IssueCalendar, RespectsPerCyclePorts)
{
    IssueCalendar cal(2);
    EXPECT_EQ(cal.schedule(10), 10u);
    EXPECT_EQ(cal.schedule(10), 10u);
    EXPECT_EQ(cal.schedule(10), 11u); // third in the same cycle spills
}

TEST(IssueCalendar, FutureReservationDoesNotBlockPresent)
{
    // The regression the calendar exists to prevent: an op scheduled far
    // in the future must not make the port look busy now.
    IssueCalendar cal(1);
    EXPECT_EQ(cal.schedule(1000), 1000u);
    EXPECT_EQ(cal.schedule(5), 5u);
    EXPECT_EQ(cal.schedule(6), 6u);
}

TEST(IssueCalendar, MultiSlotOccupancy)
{
    IssueCalendar cal(1);
    EXPECT_EQ(cal.schedule(0, 3), 0u); // occupies cycles 0,1,2
    EXPECT_EQ(cal.schedule(0), 3u);
}

TEST(IssueCalendar, WindowSlides)
{
    IssueCalendar cal(1, 64);
    cal.schedule(0);
    EXPECT_EQ(cal.schedule(1000), 1000u);
    // Old cycles left the window; a stale request clamps to the floor.
    Cycle c = cal.schedule(1);
    EXPECT_GE(c, 1000u - 64u);
}

/**
 * The single-port ring BusyTimeline replaced for DRAM banks and buses,
 * kept as the differential reference: any window size, `%` indexing,
 * one cycle probed per step.
 */
class RingReference
{
  public:
    explicit RingReference(uint32_t window) : slots_(window, 0) {}

    Cycle
    schedule(Cycle desired, uint32_t slots)
    {
        const size_t w = slots_.size();
        if (desired > maxSeen_)
            maxSeen_ = desired;
        Cycle floor = maxSeen_ >= w ? maxSeen_ - w + 1 : 0;
        Cycle c = desired < floor ? floor : desired;
        uint32_t remaining = slots;
        Cycle start = c;
        while (true) {
            if (c > maxSeen_)
                maxSeen_ = c;
            uint64_t &slot = slots_[c % w];
            bool used = (slot >> 8) == c && (slot & 0xff) != 0;
            if (used) {
                if (remaining == slots)
                    start = c + 1;
                ++c;
                continue;
            }
            uint32_t take = remaining ? 1 : 0;
            slot = (c << 8) | take;
            remaining -= take;
            if (remaining == 0)
                return start;
            ++c;
        }
    }

  private:
    std::vector<uint64_t> slots_;
    Cycle maxSeen_ = 0;
};

TEST(BusyTimeline, MatchesTheSinglePortRingOnRandomSequences)
{
    // 250 sequences x 4000 calls: windows 16..16384 (powers of two and
    // not), 1..90 slots at or above the timeline's min_slots (a few
    // zero-slot probes too), and requests that append in order, land
    // near the recent past or future, jump far ahead of everything, or
    // fall below the window floor.
    Rng rng(20240611);
    uint64_t calls = 0;
    for (int seq = 0; seq < 250; ++seq) {
        uint32_t window = rng.percent(30)
                              ? 16u << rng.below(11)
                              : static_cast<uint32_t>(rng.range(16, 16384));
        uint32_t min_slots =
            rng.percent(50) ? 1u : static_cast<uint32_t>(rng.range(2, 40));
        BusyTimeline timeline(window, min_slots);
        RingReference ring(window);
        Cycle now = rng.below(1000);
        for (int i = 0; i < 4000; ++i, ++calls) {
            uint32_t slots;
            if (rng.percent(1))
                slots = 0;
            else if (rng.percent(50))
                slots = static_cast<uint32_t>(rng.range(min_slots, 90));
            else
                slots = std::max(rng.percent(50) ? 80u : 11u, min_slots);
            Cycle desired;
            uint64_t kind = rng.below(100);
            if (kind < 45)
                desired = now; // in order
            else if (kind < 75)
                desired = now + rng.below(256); // near future
            else if (kind < 90)
                desired = now > 512 ? now - rng.below(512) : now; // near past
            else if (kind < 95)
                desired = now + window + rng.below(4ull * window); // far
            else
                desired = rng.below(now + 1); // often below the floor
            ASSERT_EQ(timeline.schedule(desired, slots),
                      ring.schedule(desired, slots))
                << "sequence " << seq << " call " << i << " window "
                << window << " desired " << desired << " slots " << slots;
            if (desired > now)
                now = desired;
            now += rng.below(40);
        }
    }
    EXPECT_GE(calls, 1000000u);
}

TEST(BusyTimeline, TightestPackingFitsTheReservedSpans)
{
    // Reservations of exactly min_slots cycles, one idle cycle apart,
    // leave the most spans a window can hold; the storage sized from
    // min_slots must take them (an overflow asserts). Requests landing
    // on the gaps inside the window, newest first, then split across
    // them and merge spans. Odd and even windows, against the ring.
    for (uint32_t window : {16u, 17u, 255u, 256u, 16384u}) {
        for (uint32_t m : {1u, 11u, 80u}) {
            BusyTimeline timeline(window, m);
            RingReference ring(window);
            const Cycle step = m + 1;
            const Cycle top = 4ull * window;
            for (Cycle c = 0; c < top; c += step)
                ASSERT_EQ(timeline.schedule(c, m), ring.schedule(c, m));
            for (Cycle c = top; c-- > top - window / 2;) {
                if (c % step == m) {
                    ASSERT_EQ(timeline.schedule(c, m), ring.schedule(c, m));
                }
            }
            for (Cycle c = top - window; c < top + 3000; c += 3)
                ASSERT_EQ(timeline.schedule(c, m + 1),
                          ring.schedule(c, m + 1));
        }
    }
}

TEST(BusyTimeline, SplitOccupancyAndFloorClamp)
{
    BusyTimeline t(64);
    EXPECT_EQ(t.schedule(10, 2), 10u); // busy 10, 11
    EXPECT_EQ(t.schedule(14, 1), 14u); // busy 14
    // Starts at the first free cycle and takes 12, 13, then 15.
    EXPECT_EQ(t.schedule(10, 3), 12u);
    EXPECT_EQ(t.schedule(10, 1), 16u);
    EXPECT_EQ(t.schedule(1000, 1), 1000u);
    // Below the floor (1000 - 64 + 1): clamped up to it.
    EXPECT_EQ(t.schedule(5, 1), 937u);
}

TEST(SimConfig, DefaultsValidate)
{
    SimConfig cfg;
    EXPECT_TRUE(cfg.validate().ok());
    EXPECT_TRUE(cfg.hasL2);
    EXPECT_EQ(cfg.llc.numSets(), 8192u);
}

TEST(SimConfig, RemoveL2AdjustsWays)
{
    SimConfig cfg;
    cfg.removeL2(6656 * 1024);
    EXPECT_FALSE(cfg.hasL2);
    EXPECT_EQ(cfg.inclusion, InclusionPolicy::Nine);
    EXPECT_TRUE(isPowerOfTwo(cfg.llc.numSets()));
    EXPECT_EQ(cfg.llc.sizeBytes, 6656u * 1024u);
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(SimConfig, EnableCatchTurnsEverythingOn)
{
    SimConfig cfg;
    cfg.enableCatch();
    EXPECT_TRUE(cfg.criticality.enabled);
    EXPECT_TRUE(cfg.tact.cross && cfg.tact.deepSelf && cfg.tact.feeder &&
                cfg.tact.code);
    EXPECT_TRUE(cfg.validate().ok());
}

/** One rule of SimConfig::validate: @p mutate must make it fail. */
template <typename F>
void
expectConfigError(F mutate)
{
    SimConfig cfg;
    mutate(cfg);
    auto v = cfg.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().category, ErrorCategory::Config);
}

TEST(SimConfig, RejectsZeroIssuePorts)
{
    // A zero-port class never finds a free issue slot.
    expectConfigError([](SimConfig &c) { c.aluPorts = 0; });
    expectConfigError([](SimConfig &c) { c.loadPorts = 0; });
    expectConfigError([](SimConfig &c) { c.storePorts = 0; });
    expectConfigError([](SimConfig &c) { c.fpPorts = 0; });
}

TEST(SimConfig, RejectsIssuePortsBeyondThePackedCount)
{
    // The calendar packs a cycle's issue count into 8 bits.
    expectConfigError([](SimConfig &c) { c.aluPorts = 256; });
    expectConfigError([](SimConfig &c) { c.loadPorts = 256; });
    expectConfigError([](SimConfig &c) { c.storePorts = 1000; });
    expectConfigError([](SimConfig &c) { c.fpPorts = 256; });
    SimConfig cfg;
    cfg.aluPorts = 255;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(SimConfig, RejectsZeroRefreshInterval)
{
    expectConfigError([](SimConfig &c) { c.dram.tRefi = 0; });
}

TEST(SimConfig, RejectsRefreshLongerThanItsInterval)
{
    expectConfigError([](SimConfig &c) { c.dram.tRfc = c.dram.tRefi; });
    expectConfigError([](SimConfig &c) {
        c.dram.tRefi = 100;
        c.dram.tRfc = 500;
    });
}

TEST(SimConfig, RejectsZeroWriteDrainBatch)
{
    // A forced drain of zero writes lets the queue outgrow its reserve.
    expectConfigError([](SimConfig &c) { c.dram.writeDrainBatch = 0; });
}

TEST(SimConfig, RejectsWatermarkAboveWriteQueueDepth)
{
    expectConfigError([](SimConfig &c) {
        c.dram.writeDrainWatermark = c.dram.writeQueueDepth + 1;
    });
    SimConfig cfg;
    cfg.dram.writeDrainWatermark = cfg.dram.writeQueueDepth;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(SimConfig, RejectsDegenerateCriticalTables)
{
    // A zero-way table divides by zero; sets must be a power of two.
    expectConfigError([](SimConfig &c) { c.criticality.tableWays = 0; });
    expectConfigError([](SimConfig &c) { c.criticality.tableEntries = 0; });
    expectConfigError([](SimConfig &c) { c.criticality.tableEntries = 12; });
    // 1u << confidenceBits and latency >> latencyQuantShift are
    // undefined past the operand width.
    expectConfigError(
        [](SimConfig &c) { c.criticality.confidenceBits = 32; });
    expectConfigError(
        [](SimConfig &c) { c.criticality.latencyQuantShift = 64; });
}

TEST(SimConfig, RejectsDdgFactorsOutsideTheRowRange)
{
    // walkFactor x robSize sizes the DDG rows through a float-to-u32
    // cast: zero rows, a non-finite factor or a count past UINT32_MAX
    // cannot be simulated.
    expectConfigError([](SimConfig &c) { c.criticality.walkFactor = 0; });
    expectConfigError([](SimConfig &c) {
        c.criticality.walkFactor = std::numeric_limits<double>::quiet_NaN();
    });
    expectConfigError([](SimConfig &c) {
        c.criticality.graphFactor = std::numeric_limits<double>::infinity();
    });
    expectConfigError([](SimConfig &c) {
        c.criticality.walkFactor = 1e9;
        c.criticality.graphFactor = 1e9;
    });
    expectConfigError([](SimConfig &c) { c.criticality.walkFactor = -1; });
}

TEST(SimConfig, RejectsDegenerateTriggerCacheDramAndStoreQueue)
{
    expectConfigError([](SimConfig &c) { c.tact.triggerCacheSets = 0; });
    expectConfigError([](SimConfig &c) { c.tact.triggerCacheSets = 3; });
    expectConfigError([](SimConfig &c) { c.tact.triggerCacheWays = 0; });
    expectConfigError([](SimConfig &c) { c.dram.rowBytes = 0; });
    expectConfigError([](SimConfig &c) { c.dram.ranksPerChannel = 0; });
    expectConfigError([](SimConfig &c) { c.storeQueueSize = 0; });
}

TEST(SimConfig, RejectsZeroWayCaches)
{
    // Found by the parser mutation test: the geometry check itself
    // divided by the way count.
    expectConfigError([](SimConfig &c) { c.l1d.ways = 0; });
    expectConfigError([](SimConfig &c) { c.llc.ways = 0; });
}

/**
 * Schema visitor over a SimConfig's numeric fields (integers and
 * doubles, not bools or enums): counts them, and sets field
 * @p target to candidate @p pick of {0, 1, 2, 3, default/2,
 * default*2}.
 */
class NumericFieldProbe
{
  public:
    NumericFieldProbe(size_t target, int pick) : target_(target), pick_(pick)
    {
    }

    template <typename T>
    void
    field(const char *key, T &v, FieldTag = FieldTag::None)
    {
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
            if (count_++ != target_)
                return;
            name_ = key;
            const T candidates[] = {T(0), T(1), T(2), T(3), T(v / 2),
                                    T(v * 2)};
            v = candidates[pick_];
        }
    }

    void object(const char *) {}
    void close() {}

    size_t count() const { return count_; }
    const std::string &name() const { return name_; }

  private:
    size_t target_;
    int pick_;
    size_t count_ = 0;
    std::string name_;
};

TEST(SimConfig, EveryValidatedConfigRunsToATypedOutcome)
{
    // The config contract: validate() rejects every config the
    // simulator cannot run. Walk every numeric field of the schema
    // through small values, one field at a time, on a CATCH config and
    // on a sampled one (so the schedule knobs matter). Whatever
    // validate() lets through must finish a short guarded run as ok or
    // as a typed failure; a signal would end this test binary.
    SimConfig sampled = withCatch(baselineSkx());
    sampled.sampling.mode = SampleMode::Sampled;
    sampled.sampling.intervalInstrs = 1000;
    sampled.sampling.windowInstrs = 200;
    sampled.sampling.warmupInstrs = 200;
    IsolationOptions opts;
    opts.maxAttempts = 1;
    opts.budget.maxCycles = 400000;
    opts.budget.stallWindowCycles = 100000;
    size_t accepted = 0, rejected = 0;
    for (const SimConfig &base : {withCatch(baselineSkx()), sampled}) {
        NumericFieldProbe counter(~size_t(0), 0);
        SimConfig probe_base = base;
        forEachField(probe_base, counter);
        ASSERT_GT(counter.count(), 60u);
        for (size_t f = 0; f < counter.count(); ++f) {
            for (int pick = 0; pick < 6; ++pick) {
                SimConfig cfg = base;
                NumericFieldProbe set(f, pick);
                forEachField(cfg, set);
                SCOPED_TRACE(set.name() + " candidate " +
                             std::to_string(pick));
                if (!cfg.validate().ok()) {
                    ++rejected;
                    continue;
                }
                ++accepted;
                RunOutcome out = executeContainedRun(cfg, "mcf", 2000, 500,
                                                     opts, nullptr,
                                                     nullptr);
                EXPECT_TRUE(out.ok() || out.failure.has_value());
            }
        }
    }
    EXPECT_GT(accepted, rejected) << "the walk must mostly simulate";
}

TEST(Logging, ConcatFormatsHeterogeneousArguments)
{
    EXPECT_EQ(detail::concat("jobs=", 8, ", frac=", 0.5), "jobs=8, frac=0.5");
}

TEST(Logging, WarnAndInformNeverStopTheRun)
{
    warn("common_test: expected warning, ignore (", 42, ")");
    inform("common_test: expected inform, ignore");
}

TEST(Env, TypedHelpersParseAndFallBack)
{
    // Single-threaded here, per the env.hh startup contract.
    ::setenv("CATCH_LINT_TEST_KNOB", "230", 1);
    EXPECT_EQ(envU64("CATCH_LINT_TEST_KNOB", 7), 230u);
    EXPECT_EQ(envString("CATCH_LINT_TEST_KNOB"), "230");
    EXPECT_FALSE(envFlag("CATCH_LINT_TEST_KNOB")) << "flag means '1...'";

    ::setenv("CATCH_LINT_TEST_KNOB", "12junk", 1);
    EXPECT_EQ(envU64("CATCH_LINT_TEST_KNOB", 7), 7u) << "strict parse";
    ::setenv("CATCH_LINT_TEST_KNOB", "1", 1);
    EXPECT_TRUE(envFlag("CATCH_LINT_TEST_KNOB"));

    ::unsetenv("CATCH_LINT_TEST_KNOB");
    EXPECT_EQ(envU64("CATCH_LINT_TEST_KNOB", 7), 7u);
    EXPECT_EQ(envString("CATCH_LINT_TEST_KNOB", "dflt"), "dflt");
    EXPECT_FALSE(envFlag("CATCH_LINT_TEST_KNOB"));
}

} // namespace
} // namespace catchsim
