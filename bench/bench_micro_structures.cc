/**
 * @file
 * google-benchmark microbenchmarks for the hot simulator structures:
 * cache lookup/fill, DDG retirement, critical-table queries, branch
 * prediction, DRAM access, issue-calendar and DRAM-bank timeline
 * scheduling and end-to-end simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "cache/cache.hh"
#include "common/issue_calendar.hh"
#include "common/rng.hh"
#include "core/branch_predictor.hh"
#include "criticality/ddg.hh"
#include "dram/dram.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"

using namespace catchsim;

static void
BM_CacheLookupHit(benchmark::State &state)
{
    Cache c("bm", CacheGeometry{32 * 1024, 8, 5}, ReplKind::Lru, 1);
    for (Addr a = 0; a < 32 * 1024; a += 64)
        c.fill(a, false, 0, FillSource::Demand);
    Rng rng(1);
    for (auto _ : state) {
        Addr a = (rng.next() % 512) * 64;
        benchmark::DoNotOptimize(c.lookup(a, true));
    }
}
BENCHMARK(BM_CacheLookupHit);

static void
BM_CacheFillEvict(benchmark::State &state)
{
    Cache c("bm", CacheGeometry{32 * 1024, 8, 5}, ReplKind::Lru, 1);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            c.fill((rng.next() % 65536) * 64, false, 0,
                   FillSource::Demand));
}
BENCHMARK(BM_CacheFillEvict);

static void
BM_DdgRetire(benchmark::State &state)
{
    CriticalityConfig cfg;
    cfg.enabled = true;
    DdgCriticalityDetector det(cfg, 224, 2, 14, 4);
    Rng rng(3);
    SeqNum seq = 0;
    Cycle t = 0;
    for (auto _ : state) {
        RetireInfo ri;
        ri.seq = ++seq;
        ri.pc = 0x400000 + (rng.next() % 64) * 4;
        ri.cls = (seq % 3) ? OpClass::Alu : OpClass::Load;
        ri.servedBy = (seq % 9) ? Level::L1 : Level::L2;
        ri.allocCycle = t;
        ri.execStart = t + 2;
        ri.execDone = t + 2 + (seq % 5 ? 1 : 16);
        ri.retireCycle = ri.execDone + 1;
        ri.srcSeq[0] = seq > 4 ? seq - 3 : 0;
        det.onRetire(ri);
        ++t;
    }
}
BENCHMARK(BM_DdgRetire);

static void
BM_CriticalTableQuery(benchmark::State &state)
{
    CriticalityConfig cfg;
    CriticalTable table(cfg);
    for (Addr pc = 0; pc < 32; ++pc)
        for (int i = 0; i < 4; ++i)
            table.record(0x400000 + pc * 4);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            table.isCritical(0x400000 + (rng.next() % 64) * 4));
}
BENCHMARK(BM_CriticalTableQuery);

static void
BM_BranchPredict(benchmark::State &state)
{
    BranchPredictor bp;
    Rng rng(5);
    MicroOp op;
    op.cls = OpClass::Branch;
    for (auto _ : state) {
        op.pc = 0x400000 + (rng.next() % 256) * 4;
        op.taken = rng.percent(70);
        op.target = 0x500000;
        benchmark::DoNotOptimize(bp.predictAndTrain(op));
    }
}
BENCHMARK(BM_BranchPredict);

static void
BM_DramRead(benchmark::State &state)
{
    Dram dram(DramConfig{});
    Rng rng(6);
    Cycle t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dram.read(rng.next() % (1 << 28), t));
        t += 20;
    }
}
BENCHMARK(BM_DramRead);

static void
BM_IssueCalendar(benchmark::State &state)
{
    IssueCalendar cal(3);
    Cycle t = 0;
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cal.schedule(t + rng.next() % 64));
        ++t;
    }
}
BENCHMARK(BM_IssueCalendar);

/**
 * One DRAM bank's request pattern: 80-slot precharge+activate and
 * 11-slot burst reservations on a single port at increasing times, with
 * about one request in sixteen landing up to 2000 cycles in the past.
 * Run on the one-port ring and on the span timeline that replaced it
 * for DRAM banks and buses; both return the same cycles.
 */
template <typename Calendar>
static void
bankPattern(benchmark::State &state, Calendar &cal)
{
    Rng rng(8);
    Cycle t = 0;
    for (auto _ : state) {
        uint32_t slots = rng.percent(40) ? 80 : 11;
        Cycle at = t;
        if (rng.percent(6))
            at -= std::min<Cycle>(t, rng.below(2000));
        benchmark::DoNotOptimize(cal.schedule(at, slots));
        t += rng.below(120);
    }
}

static void
BM_BankPatternIssueCalendar(benchmark::State &state)
{
    IssueCalendar cal(1);
    bankPattern(state, cal);
}
BENCHMARK(BM_BankPatternIssueCalendar);

static void
BM_BankPatternBusyTimeline(benchmark::State &state)
{
    BusyTimeline cal(kIssueWindow, 11);
    bankPattern(state, cal);
}
BENCHMARK(BM_BankPatternBusyTimeline);

/** End-to-end simulated instructions per second (hmmer, baseline). */
static void
BM_SimulatorThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        SimResult r = runWorkload(baselineSkx(), "hmmer", 50000, 10000);
        benchmark::DoNotOptimize(r.ipc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            60000);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

