/**
 * @file
 * Tests for the TACT components: trigger cache, cross learner,
 * deep-self distance logic, feeder identification/relation learning and
 * code runahead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "mem/functional_memory.hh"
#include "trace/workload.hh"

#include "cache/hierarchy.hh"
#include "sim/configs.hh"
#include "tact/tact.hh"
#include "tact/tact_code.hh"
#include "tact/tact_cross.hh"
#include "tact/tact_feeder.hh"
#include "tact/tact_self.hh"
#include "tact/trigger_cache.hh"

namespace catchsim
{
namespace
{

TactConfig
defaultTact()
{
    TactConfig cfg;
    cfg.cross = cfg.deepSelf = cfg.feeder = cfg.code = true;
    return cfg;
}

// ------------------------- TriggerCache --------------------------

TEST(TriggerCache, RecordsFirstFourPcs)
{
    TriggerCache tc(defaultTact());
    for (Addr pc = 0; pc < 6; ++pc)
        tc.onLoad(0x400000 + pc * 4, 0x10000 + pc * 8);
    auto cands = tc.candidates(0x10000);
    ASSERT_EQ(cands.size(), 4u);
    EXPECT_EQ(cands[0], 0x400000u); // oldest first
    EXPECT_EQ(cands[3], 0x40000cu);
}

TEST(TriggerCache, DeduplicatesPcs)
{
    TriggerCache tc(defaultTact());
    for (int i = 0; i < 10; ++i)
        tc.onLoad(0x400000, 0x10000 + i * 8);
    EXPECT_EQ(tc.candidates(0x10000).size(), 1u);
}

TEST(TriggerCache, MissingPageIsEmpty)
{
    TriggerCache tc(defaultTact());
    EXPECT_TRUE(tc.candidates(0x7000000).empty());
}

// --------------------------- TactCross ---------------------------

TEST(TactCross, LearnsStableDeltaAndFires)
{
    std::vector<Addr> issued;
    TactCross cross(defaultTact(),
                    [&](Addr a, Cycle) { issued.push_back(a); });
    const Addr trig = 0x400010, targ = 0x400020;
    // Trigger at X, target at X+0x100, same 4 KB page, advancing.
    for (int i = 0; i < 64; ++i) {
        Addr base = 0x100000 + (i % 8) * 0x200;
        cross.onLoad(trig, base, i * 10, false);
        cross.onLoad(targ, base + 0x100, i * 10 + 5, true);
    }
    ASSERT_FALSE(issued.empty());
    // Fired prefetches are trigger address + 0x100.
    for (size_t i = 0; i < issued.size(); ++i)
        EXPECT_EQ(issued[i] & 0x1ff, 0x100u);
}

TEST(TactCross, UnstableDeltaNeverFires)
{
    std::vector<Addr> issued;
    TactCross cross(defaultTact(),
                    [&](Addr a, Cycle) { issued.push_back(a); });
    Rng rng(12);
    for (int i = 0; i < 256; ++i) {
        Addr base = 0x100000;
        cross.onLoad(0x400010, base + rng.below(32) * 64, i, false);
        cross.onLoad(0x400020, base + rng.below(32) * 64, i, true);
    }
    EXPECT_TRUE(issued.empty());
}

TEST(TactCross, DropTargetStopsFiring)
{
    std::vector<Addr> issued;
    TactCross cross(defaultTact(),
                    [&](Addr a, Cycle) { issued.push_back(a); });
    for (int i = 0; i < 64; ++i) {
        Addr base = 0x100000 + (i % 8) * 0x200;
        cross.onLoad(0x400010, base, i, false);
        cross.onLoad(0x400020, base + 0x80, i, true);
    }
    ASSERT_FALSE(issued.empty());
    cross.dropTarget(0x400020);
    size_t n = issued.size();
    for (int i = 0; i < 16; ++i)
        cross.onLoad(0x400010, 0x100000 + i * 0x200, 1000 + i, false);
    EXPECT_EQ(issued.size(), n);
}

// --------------------------- TactSelf ----------------------------

TEST(TactSelf, DeepPrefetchAtDistance)
{
    TactConfig cfg = defaultTact();
    std::vector<Addr> issued;
    TactSelf self(
        cfg,
        [](Addr, int64_t *stride) {
            *stride = 64;
            return true;
        },
        [&](Addr a, Cycle) { issued.push_back(a); });
    Addr a = 0x200000;
    for (int i = 0; i < 200; ++i, a += 64)
        self.onCriticalLoad(0x400010, a, i * 10);
    ASSERT_FALSE(issued.empty());
    // Deep prefetches land well beyond distance 1.
    Addr last_pf = issued.back();
    Addr last_access = a - 64;
    EXPECT_GT(last_pf, last_access + 64);
    EXPECT_LE(last_pf, last_access + 64 * cfg.deepMaxDistance);
}

TEST(TactSelf, NoStrideNoPrefetch)
{
    std::vector<Addr> issued;
    TactSelf self(
        defaultTact(),
        [](Addr, int64_t *) { return false; },
        [&](Addr a, Cycle) { issued.push_back(a); });
    for (int i = 0; i < 100; ++i)
        self.onCriticalLoad(0x400010, 0x200000 + i * 64, i);
    EXPECT_TRUE(issued.empty());
}

TEST(TactSelf, ShortRunsShrinkSafeLength)
{
    // Stride breaks every 3 instances: the learner must throttle deep
    // prefetching (the paper's "safe length" guard).
    Addr cur = 0x200000;
    std::vector<int64_t> distances; // in lines ahead of the access
    TactSelf self(
        defaultTact(),
        [](Addr, int64_t *stride) {
            *stride = 64;
            return true;
        },
        [&](Addr a, Cycle) {
            distances.push_back((static_cast<int64_t>(a) -
                                 static_cast<int64_t>(cur)) /
                                64);
        });
    for (int i = 0; i < 300; ++i) {
        self.onCriticalLoad(0x400010, cur, i);
        cur += (i % 3 == 2) ? 1 << 20 : 64; // break the run every 3rd
    }
    // Any issued prefetches must be at conservative distances compared
    // to the 16-line maximum.
    for (int64_t d : distances)
        EXPECT_LE(d, 8);
}

// -------------------------- TactFeeder ---------------------------

TEST(TactFeeder, IdentifiesFeederLearnsRelationAndChases)
{
    TactConfig cfg = defaultTact();
    cfg.feederDepth = 4;
    std::vector<Addr> issued;
    FunctionalMemory mem;
    // Feeder stream: addr 0x100000 + i*8 holds pointer values
    // 0x50000000 + i*128; target reads value + 16.
    for (int i = 0; i < 600; ++i)
        mem.write(0x100000 + i * 8, 0x50000000 + i * 128);
    TactFeeder feeder(
        cfg,
        [](Addr, int64_t *stride) {
            *stride = 8;
            return true;
        },
        [&](Addr a, Cycle now) {
            issued.push_back(a);
            return now + 20;
        },
        [](Addr, Cycle now) { return now + 5; },
        [&](Addr a) { return mem.read(a); });

    for (int i = 0; i < 64; ++i) {
        Addr f_addr = 0x100000 + i * 8;
        uint64_t value = mem.read(f_addr);
        // Program order: feeder load retires, then target load.
        MicroOp fld;
        fld.pc = 0x400010;
        fld.cls = OpClass::Load;
        fld.dst = r1;
        fld.memAddr = f_addr;
        fld.value = value;
        feeder.onRetire(fld);
        feeder.onLoadComplete(0x400010, f_addr, value, i * 10);

        MicroOp tld;
        tld.pc = 0x400020;
        tld.cls = OpClass::Load;
        tld.dst = r2;
        tld.src[0] = r1;
        tld.memAddr = value + 16;
        feeder.onCriticalLoad(tld, i * 10 + 3);
        feeder.onRetire(tld);
    }
    ASSERT_FALSE(issued.empty());
    // Chained target prefetches: pointer value + 16 for future feeder
    // instances.
    bool chased = false;
    for (Addr a : issued)
        chased |= (a >= 0x50000000 && (a & 0x7f) == 16);
    EXPECT_TRUE(chased);
    EXPECT_GT(feeder.feederRunaheads(), 0u);
}

TEST(TactFeeder, SelfFeedingChaseIsExhausted)
{
    TactConfig cfg = defaultTact();
    std::vector<Addr> issued;
    TactFeeder feeder(
        cfg, [](Addr, int64_t *) { return false; },
        [&](Addr a, Cycle now) {
            issued.push_back(a);
            return now;
        },
        [](Addr, Cycle now) { return now; }, [](Addr) { return 0ULL; });
    for (int i = 0; i < 32; ++i) {
        MicroOp ld;
        ld.pc = 0x400010;
        ld.cls = OpClass::Load;
        ld.dst = r1;
        ld.src[0] = r1; // p = *p
        ld.memAddr = 0x100000 + i * 64;
        feeder.onRetire(ld);
        feeder.onCriticalLoad(ld, i);
    }
    EXPECT_TRUE(issued.empty());
}

TEST(TactFeeder, RegisterTrackingPropagatesThroughAlu)
{
    // load -> alu -> critical load: the feeder is the original load.
    TactConfig cfg = defaultTact();
    std::vector<Addr> issued;
    FunctionalMemory mem;
    for (int i = 0; i < 600; ++i)
        mem.write(0x100000 + i * 8, 0x50000000 + i * 64);
    TactFeeder feeder(
        cfg,
        [](Addr, int64_t *stride) {
            *stride = 8;
            return true;
        },
        [&](Addr a, Cycle now) {
            issued.push_back(a);
            return now;
        },
        [](Addr, Cycle now) { return now; },
        [&](Addr a) { return mem.read(a); });
    for (int i = 0; i < 64; ++i) {
        Addr f_addr = 0x100000 + i * 8;
        uint64_t v = mem.read(f_addr);
        MicroOp fld;
        fld.pc = 0x400010;
        fld.cls = OpClass::Load;
        fld.dst = r1;
        fld.memAddr = f_addr;
        feeder.onRetire(fld);
        feeder.onLoadComplete(0x400010, f_addr, v, i);
        MicroOp alu;
        alu.pc = 0x400014;
        alu.cls = OpClass::Alu;
        alu.dst = r3;
        alu.src[0] = r1;
        feeder.onRetire(alu);
        MicroOp tld;
        tld.pc = 0x400020;
        tld.cls = OpClass::Load;
        tld.dst = r2;
        tld.src[0] = r3; // via the ALU
        tld.memAddr = v; // scale 1, base 0
        feeder.onCriticalLoad(tld, i);
        feeder.onRetire(tld);
    }
    EXPECT_FALSE(issued.empty());
}

// ----------------- TactSelf boundary behaviour -------------------

TEST(TactSelf, DeepDistanceIsClampedAtSixteenLines)
{
    // Paper guards: safe run length learned up to 32, prefetch distance
    // clamped to deepMaxDistance (16 lines). Drive a long perfect
    // stride so the safe length saturates at its cap, and verify every
    // issued distance stays within (1, 16] with the clamp actually
    // reached.
    TactConfig cfg = defaultTact();
    ASSERT_EQ(cfg.deepMaxDistance, 16u);
    ASSERT_EQ(cfg.safeLengthCap, 32u);
    Addr cur = 0x300000;
    std::vector<int64_t> distances;
    TactSelf self(
        cfg,
        [](Addr, int64_t *stride) {
            *stride = 64;
            return true;
        },
        [&](Addr a, Cycle) {
            distances.push_back((static_cast<int64_t>(a) -
                                 static_cast<int64_t>(cur)) /
                                64);
        });
    // > 40 wraparounds of the 32-instance cap: plenty for safeLength to
    // climb from its initial 4 to the cap.
    for (int i = 0; i < 32 * 45; ++i, cur += 64)
        self.onCriticalLoad(0x400010, cur, i);
    ASSERT_FALSE(distances.empty());
    int64_t max_d = 0;
    for (int64_t d : distances) {
        EXPECT_GT(d, 1) << "distance 1 is the baseline prefetcher's job";
        EXPECT_LE(d, 16) << "deepMaxDistance clamp violated";
        max_d = std::max(max_d, d);
    }
    // The clamp must actually engage: with the safe length at 32, the
    // headroom exceeds 16 for much of each run.
    EXPECT_EQ(max_d, 16);
    // The run-length guard throttles: near each cap wraparound the
    // remaining headroom dips below 2, so not every instance issues.
    EXPECT_LT(distances.size(), static_cast<size_t>(32 * 45));
}

TEST(TactSelf, RunBreakAtSafeLengthBoundaryKeepsDistancesSafe)
{
    // Runs that break after exactly safeLength instances are the
    // boundary the guard learns: issued distances must never outrun
    // the observed run length.
    TactConfig cfg = defaultTact();
    Addr cur = 0x300000;
    std::vector<int64_t> distances;
    TactSelf self(
        cfg,
        [](Addr, int64_t *stride) {
            *stride = 64;
            return true;
        },
        [&](Addr a, Cycle) {
            distances.push_back((static_cast<int64_t>(a) -
                                 static_cast<int64_t>(cur)) /
                                64);
        });
    for (int i = 0; i < 400; ++i) {
        self.onCriticalLoad(0x400010, cur, i);
        cur += (i % 8 == 7) ? 1 << 20 : 64; // break every 8th instance
    }
    for (int64_t d : distances)
        EXPECT_LE(d, 8) << "prefetch ran past the learned run length";
}

// --------------- TriggerCache pressure behaviour -----------------

TEST(TriggerCache, FifthDistinctPcOnPageIsNotRecorded)
{
    // A 4 KB page that sees more than four distinct load PCs keeps only
    // its first four (first-touch order is the paper's trigger
    // heuristic); later PCs must neither displace them nor grow the
    // candidate list.
    TriggerCache tc(defaultTact());
    for (Addr pc = 0; pc < 12; ++pc)
        tc.onLoad(0x400000 + pc * 4, 0x20000 + pc * 16);
    auto cands = tc.candidates(0x20000);
    ASSERT_EQ(cands.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(cands[i], 0x400000u + i * 4) << "slot " << i;
}

TEST(TriggerCache, CapacityPressureEvictsColdPages)
{
    // 64 entries total (8 sets x 8 ways): touching many more distinct
    // pages than that must LRU-evict the earliest, while a page kept
    // hot retains its (full, first-four) PC set.
    TactConfig cfg = defaultTact();
    ASSERT_EQ(cfg.triggerCacheSets * cfg.triggerCacheWays, 64u);
    TriggerCache tc(cfg);
    const Addr hot = 0x1000000;
    for (Addr pc = 0; pc < 6; ++pc) // > 4 distinct PCs on the hot page
        tc.onLoad(0x400000 + pc * 4, hot + pc * 8);
    for (int p = 0; p < 256; ++p) {
        tc.onLoad(0x500000, 0x2000000 + static_cast<Addr>(p) * 4096);
        tc.onLoad(0x400000, hot + p); // keep the hot page recent
    }
    EXPECT_TRUE(tc.candidates(0x2000000).empty())
        << "cold page survived 255 later insertions";
    auto cands = tc.candidates(hot);
    ASSERT_EQ(cands.size(), 4u) << "hot page lost under pressure";
    EXPECT_EQ(cands[0], 0x400000u);
    EXPECT_EQ(cands[3], 0x40000cu);
}

// --------------------------- TactCode ----------------------------

TEST(TactCode, PrefetchesUpcomingLines)
{
    TactConfig cfg = defaultTact();
    std::vector<Addr> lines;
    TactCode code(
        cfg, [&](Addr line, Cycle) { lines.push_back(line); },
        [](const MicroOp &) { return false; });
    std::vector<MicroOp> ops(64);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].pc = 0x400000 + i * 32; // a new line every other op
        ops[i].cls = OpClass::Alu;
    }
    code.onCodeStall(makeView(ops), 0, 100);
    ASSERT_FALSE(lines.empty());
    EXPECT_LE(lines.size(), cfg.codeRunaheadLines);
    for (Addr l : lines) {
        EXPECT_EQ(l % 64, 0u);
        EXPECT_GT(l, lineAddr(ops[0].pc));
    }
}

TEST(TactCode, StopsAtMispredictedBranch)
{
    TactConfig cfg = defaultTact();
    std::vector<Addr> lines;
    TactCode code(
        cfg, [&](Addr line, Cycle) { lines.push_back(line); },
        [](const MicroOp &op) { return op.isBranch(); });
    std::vector<MicroOp> ops(64);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].pc = 0x400000 + i * 64;
        ops[i].cls = i == 2 ? OpClass::Branch : OpClass::Alu;
    }
    code.onCodeStall(makeView(ops), 0, 100);
    EXPECT_LE(lines.size(), 2u);
}

// --------------------------- Tact facade -------------------------

TEST(TactFacade, RoutesEventsAndAggregatesStats)
{
    SimConfig sim = baselineSkx();
    sim.enableCatch();
    CacheHierarchy hierarchy(sim);
    FunctionalMemory mem;
    Tact tact(sim.tact, 0, hierarchy, [](Addr) { return true; }, &mem);

    // A strided critical load trains cross/deep-self through the
    // facade's dispatch/complete/retire routing without crashing and
    // with purely deterministic state.
    MicroOp op;
    op.cls = OpClass::Load;
    op.dst = r3;
    for (uint64_t i = 0; i < 256; ++i) {
        op.pc = 0x400100;
        op.memAddr = 0x20000 + i * 64;
        Cycle now = 1000 + i * 20;
        tact.onLoadDispatch(op, now);
        tact.onLoadComplete(op, now + 10);
        tact.onRetire(op);
    }

    // Code-runahead counters must flow through the facade's stats().
    std::vector<MicroOp> fetch(16);
    for (size_t i = 0; i < fetch.size(); ++i) {
        fetch[i].pc = 0x500000 + i * 4;
        fetch[i].cls = OpClass::Alu;
    }
    TactStats before = tact.stats();
    tact.onCodeStall(makeView(fetch), 0, 50000,
                     [](const MicroOp &) { return false; });
    TactStats after = tact.stats();
    EXPECT_EQ(after.codeStalls, before.codeStalls + 1);
    EXPECT_GE(after.codeLines, before.codeLines);
}

TEST(TactFacade, DisabledComponentsReportZeroStats)
{
    SimConfig sim = baselineSkx();
    sim.tact = TactConfig{}; // everything off
    CacheHierarchy hierarchy(sim);
    Tact tact(sim.tact, 0, hierarchy, [](Addr) { return false; }, nullptr);

    MicroOp op;
    op.cls = OpClass::Load;
    op.pc = 0x400100;
    op.memAddr = 0x30000;
    tact.onLoadDispatch(op, 10);
    tact.onLoadComplete(op, 20);
    tact.onRetire(op);

    TactStats s = tact.stats();
    EXPECT_EQ(s.crossIssued, 0u);
    EXPECT_EQ(s.deepIssued, 0u);
    EXPECT_EQ(s.feederIssued, 0u);
    EXPECT_EQ(s.codeStalls, 0u);
}

} // namespace
} // namespace catchsim
