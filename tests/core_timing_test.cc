/**
 * @file
 * Properties of the OOO timing model, including the paper's Section
 * III-A analyses: width-bound dispatch, dependence-chain serialisation,
 * ROB-bound memory-level parallelism, the OOO's ability to hide on-die
 * latencies for independent loads (and its inability to do so for
 * dependent chains), mispredict redirects, and store forwarding.
 */

#include <gtest/gtest.h>

#include <functional>

#include "cache/hierarchy.hh"
#include "core/ooo_core.hh"
#include "sim/configs.hh"

namespace catchsim
{
namespace
{

/** Builds a trace by running @p body repeatedly until @p n ops exist. */
Trace
makeTrace(size_t n, const std::function<void(Emitter &, size_t)> &body)
{
    Trace t;
    t.mem = std::make_shared<FunctionalMemory>();
    Emitter em(*t.mem, t.ops, n);
    size_t iter = 0;
    while (!em.done())
        body(em, iter++);
    return t;
}

double
runIpc(const SimConfig &cfg_in, const Trace &trace)
{
    SimConfig cfg = cfg_in;
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    CacheHierarchy h(cfg);
    OooCore core(cfg, 0, h, nullptr, nullptr);
    core.bind(trace);
    while (core.step()) {
    }
    return core.stats().ipc();
}

TEST(CoreTiming, WidthBoundsIndependentOps)
{
    Trace t = makeTrace(20000, [](Emitter &em, size_t) {
        em.setPc(codeBlock(0));
        for (int i = 0; i < 16; ++i)
            em.alu(static_cast<int>(i % 8), {});
        em.branch(true, codeBlock(0), {});
    });
    double ipc = runIpc(baselineSkx(), t);
    // Bounded by ALU issue bandwidth (3 ports) rather than the 4-wide
    // front end for a pure-ALU stream.
    EXPECT_GT(ipc, 2.5);
    EXPECT_LE(ipc, 4.05);
}

TEST(CoreTiming, DependenceChainSerialises)
{
    Trace t = makeTrace(20000, [](Emitter &em, size_t) {
        em.setPc(codeBlock(0));
        for (int i = 0; i < 16; ++i)
            em.alu(r1, {r1}); // 1-cycle serial chain
        em.branch(true, codeBlock(0), {});
    });
    double ipc = runIpc(baselineSkx(), t);
    EXPECT_LT(ipc, 1.3);
    EXPECT_GT(ipc, 0.8);
}

TEST(CoreTiming, HighestFormatRegisterIsTracked)
{
    // The trace format admits registers up to kNumArchRegs - 1, and the
    // scoreboard covers all of them: a serial chain through r63 (as
    // source and destination) paces like the r1 chain above, with
    // loads writing and reading r63 in between.
    constexpr int r63 = kNumArchRegs - 1;
    Trace t = makeTrace(20000, [](Emitter &em, size_t iter) {
        em.setPc(codeBlock(0));
        for (int i = 0; i < 15; ++i)
            em.alu(r63, {r63});
        em.load(r63, {r63}, 0x100000 + (iter % 64) * kLineBytes);
        em.branch(true, codeBlock(0), {});
    });
    for (const MicroOp &op : t.ops)
        ASSERT_TRUE(op.isBranch() || op.dst == r63);
    double ipc = runIpc(baselineSkx(), t);
    EXPECT_LT(ipc, 1.3);
    EXPECT_GT(ipc, 0.3);
}

TEST(CoreTiming, FpChainPacesAtFpLatency)
{
    Trace t = makeTrace(20000, [](Emitter &em, size_t) {
        em.setPc(codeBlock(0));
        em.alu(r1, {r1}, OpClass::FpAdd); // 4-cycle serial chain
        em.branch(true, codeBlock(0), {});
    });
    double ipc = runIpc(baselineSkx(), t);
    // 2 ops per ~4 cycles.
    EXPECT_NEAR(ipc, 0.5, 0.12);
}

TEST(CoreTiming, OooHidesL2LatencyForIndependentLoads)
{
    // Section III-A: on-die hit latencies are shorter than what the OOO
    // depth can hide, so independent L2-resident loads do not bound IPC.
    // Working set 256 KB (L2, not L1); iterations independent.
    Trace t = makeTrace(60000, [](Emitter &em, size_t it) {
        em.setPc(codeBlock(0));
        em.alu(r0, {r0});
        Addr a = 0x10000000 + (it * 8 * 64) % (256 * 1024);
        em.load(r1, {r0}, a);
        em.alu(r2, {r1, r3});
        em.branch(true, codeBlock(0), {r0});
    });
    double ipc = runIpc(baselineSkx(), t);
    // 4 ops/iter; near-width despite every load leaving the L1.
    EXPECT_GT(ipc, 2.0);
}

TEST(CoreTiming, DependentChaseExposesL2Latency)
{
    // The same working set accessed as a pointer chase is bound by the
    // L2 round trip - this is what makes loads critical.
    Trace t;
    t.mem = std::make_shared<FunctionalMemory>();
    // Build a 256 KB ring.
    const size_t lines = 256 * 1024 / 64;
    for (size_t i = 0; i < lines; ++i)
        t.mem->write(0x10000000 + i * 64,
                     0x10000000 + ((i + 97) % lines) * 64);
    Emitter em(*t.mem, t.ops, 30000);
    Addr cur = 0x10000000;
    while (!em.done()) {
        em.setPc(codeBlock(0));
        cur = em.load(r1, {r1}, cur);
        em.branch(true, codeBlock(0), {r1});
    }
    double ipc = runIpc(baselineSkx(), t);
    // 2 ops per ~L2 round trip (15): IPC ~ 0.13.
    EXPECT_LT(ipc, 0.25);
}

TEST(CoreTiming, RobBoundsMemoryParallelism)
{
    // Random DRAM-resident loads: throughput must reflect tens of
    // overlapped misses (ROB/loads-per-iter), not serial misses.
    Trace t = makeTrace(40000, [](Emitter &em, size_t it) {
        em.setPc(codeBlock(0));
        em.alu(r0, {r0});
        Addr a = 0x10000000 + (mix64(it) % (1 << 20)) * 64;
        em.load(r1, {r0}, a);
        em.alu(r2, {r1, r2});
        em.branch(true, codeBlock(0), {r0});
    });
    double ipc = runIpc(baselineSkx(), t);
    // Serial misses would give 4/180 = 0.022; overlapped must be far
    // higher, but bounded by DRAM bandwidth.
    EXPECT_GT(ipc, 0.15);
    EXPECT_LT(ipc, 4.0);
}

TEST(CoreTiming, MispredictsCostRedirects)
{
    auto body = [](bool predictable) {
        return [predictable](Emitter &em, size_t it) {
            em.setPc(codeBlock(0));
            em.alu(r0, {r0});
            em.alu(r1, {r0});
            bool taken = predictable ? true : (mix64(it) & 1);
            em.branch(taken, codeBlock(0) + 0x40, {r1});
            em.alu(r2, {r1});
            em.branch(true, codeBlock(0), {r0});
        };
    };
    double good = runIpc(baselineSkx(), makeTrace(30000, body(true)));
    double bad = runIpc(baselineSkx(), makeTrace(30000, body(false)));
    EXPECT_GT(good, bad * 1.5);
}

TEST(CoreTiming, StoreForwardingBeatsCacheMiss)
{
    // A load immediately following a store to the same word must forward
    // (never pay a memory miss), even cold.
    Trace t = makeTrace(20000, [](Emitter &em, size_t it) {
        em.setPc(codeBlock(0));
        Addr a = 0x20000000 + (it % 1024) * 8;
        em.store({r1}, a, it);
        em.load(r2, {r0}, a);
        em.alu(r3, {r2});
        em.branch(true, codeBlock(0), {r0});
    });
    SimConfig cfg = baselineSkx();
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    CacheHierarchy h(cfg);
    OooCore core(cfg, 0, h, nullptr, nullptr);
    core.bind(t);
    while (core.step()) {
    }
    EXPECT_GT(core.stats().forwardedLoads, 4500u); // ~1 load per 4 ops
}

TEST(CoreTiming, CodeMissesStallTheFrontEnd)
{
    // A huge code footprint (every iteration in a new block) vs a tight
    // loop: the former must be slower purely from L1I misses.
    Trace big_code = makeTrace(30000, [](Emitter &em, size_t it) {
        em.setPc(codeBlock(static_cast<unsigned>(it % 4096)));
        for (int i = 0; i < 12; ++i)
            em.alu(static_cast<int>(i % 8), {});
    });
    Trace tight = makeTrace(30000, [](Emitter &em, size_t) {
        em.setPc(codeBlock(0));
        for (int i = 0; i < 12; ++i)
            em.alu(static_cast<int>(i % 8), {});
        em.branch(true, codeBlock(0), {});
    });
    double slow = runIpc(baselineSkx(), big_code);
    double fast = runIpc(baselineSkx(), tight);
    EXPECT_GT(fast, slow * 1.3);
}

TEST(CoreTiming, RetireIsMonotonic)
{
    Trace t = makeTrace(5000, [](Emitter &em, size_t it) {
        em.setPc(codeBlock(0));
        em.load(r1, {r0}, 0x10000000 + (mix64(it) % 4096) * 64);
        em.alu(r2, {r1});
        em.branch(true, codeBlock(0), {r0});
    });
    SimConfig cfg = baselineSkx();
    CacheHierarchy h(cfg);
    OooCore core(cfg, 0, h, nullptr, nullptr);
    core.bind(t);
    Cycle prev = 0;
    while (core.step()) {
        EXPECT_GE(core.now(), prev);
        prev = core.now();
    }
}

TEST(CoreTiming, DeterministicAcrossRuns)
{
    auto run = []() {
        Trace t = makeTrace(10000, [](Emitter &em, size_t it) {
            em.setPc(codeBlock(0));
            em.load(r1, {r0}, 0x10000000 + (mix64(it) % 8192) * 64);
            em.alu(r2, {r1, r2});
            em.branch(true, codeBlock(0), {r0});
        });
        return runIpc(baselineSkx(), t);
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

} // namespace
} // namespace catchsim
