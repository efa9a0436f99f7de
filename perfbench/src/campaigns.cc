#include "campaigns.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>

#include "common/fault_inject.hh"
#include "common/host_clock.hh"
#include "common/json.hh"
#include "probes.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "sim/supervisor.hh"
#include "sim/warm_state.hh"
#include "sim/worker_proto.hh"
#include "trace/chunk_store.hh"
#include "trace/trace_stream.hh"
#include "trace/suite.hh"

namespace catchbench
{

using namespace catchsim;
namespace fs = std::filesystem;

namespace
{

/** Worker threads or processes of every parallel campaign: well under
 *  the 4 hardware threads of the host the baseline was measured on. */
constexpr unsigned kJobs = 2;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/** cell_tail_ms is this percentile, which needs kTailCells cells. */
constexpr double kTailQuantile = 0.90;
constexpr size_t kTailCells = 100;

// Paper geomean gains over the SKX baseline (ISCA 2018).
constexpr double kPaperFig10NoL2Catch = 4.55; // NoL2 6.5 MB + CATCH
constexpr double kPaperFig10SkxCatch = 8.41;  // SKX + CATCH
constexpr double kPaperFig15[3] = {7.23, 5.42, 3.71}; // NoL2 9.5 MB +
                                                      // CATCH, LLC +0/6/12

SimConfig
named(SimConfig c, const std::string &name)
{
    c.name = name;
    return c;
}

SimConfig
sampled(SimConfig c)
{
    c.sampling.mode = SampleMode::Sampled;
    c.name += "+sampled";
    return c;
}

SimConfig
detailed(SimConfig c)
{
    c.sampling.mode = SampleMode::Detailed;
    return c;
}

std::string
cellId(const Cell &c)
{
    return c.cfg.name + "/" + c.kernel;
}

/**
 * Runs @p cells on @p jobs threads through runTasksLongestFirst, each
 * cell on a kernel built with the benchmark seed. Stores are passed
 * explicitly (null = none), so no CATCH_* variable reaches the run.
 */
std::vector<CellRun>
runCells(const std::vector<Cell> &cells, uint64_t seed, unsigned jobs,
         ChunkStore *chunks, WarmStateStore *warm, SpanRecorder *rec,
         int64_t parent)
{
    std::vector<CellRun> runs(cells.size());
    std::vector<std::function<void()>> tasks;
    std::vector<double> cost;
    for (size_t i = 0; i < cells.size(); ++i) {
        tasks.push_back([&, i] {
            const Cell &c = cells[i];
            CellRun &out = runs[i];
            out.start = hostSeconds();
            SpanScope cell_span(rec, "cell.run", cellId(c), parent);
            try {
                std::unique_ptr<Workload> wl;
                {
                    SpanScope s(rec, "trace.make_kernel", cellId(c));
                    wl = makeSeededKernel(c.kernel, seed);
                }
                if (!wl)
                    throw std::runtime_error("unknown kernel " + c.kernel);
                Simulator sim(c.cfg, TraceMode::Streamed, chunks, warm);
                SpanScope s(rec, "sim.run_guarded", cellId(c));
                auto r = sim.runGuarded(*wl, c.instrs, c.warmup,
                                        RunBudget{}, &out.profile);
                if (r.ok()) {
                    out.ok = true;
                    out.result = std::move(r).value();
                } else {
                    out.error = r.error().message;
                }
            } catch (const std::exception &e) {
                out.error = e.what();
            }
            out.end = hostSeconds();
        });
        cost.push_back(workloadCostEstimate(cells[i].kernel));
    }
    runTasksLongestFirst(std::move(tasks), cost, jobs, chunks);
    return runs;
}

/** Per-rep and pooled per-cell timings of the timed passes. */
struct Timed
{
    std::vector<double> wall, cpu, kips, cellMs;

    void
    add(double w, double c, double instrs, const std::vector<double> &ms)
    {
        wall.push_back(w);
        cpu.push_back(c);
        kips.push_back(instrs / w / 1000.0);
        cellMs.insert(cellMs.end(), ms.begin(), ms.end());
    }
};

/** Checks shared by every pass: status and the retired-instruction
 *  count of detailed cells, and byte-identity with @p ref when given.
 *  Every failing cell counts once. */
void
checkPass(Report &rep, const std::string &what,
          const std::vector<Cell> &cells, const std::vector<CellRun> &runs,
          const std::vector<std::string> *ref)
{
    rep.attempted += runs.size();
    for (size_t i = 0; i < runs.size(); ++i) {
        const CellRun &r = runs[i];
        std::string bad;
        if (!r.ok)
            bad = "not ok: " + r.error;
        else if (!cells[i].cfg.sampling.sampled() &&
                 r.result.core.instrs != cells[i].instrs)
            bad = "retired " + std::to_string(r.result.core.instrs) +
                  " of " + std::to_string(cells[i].instrs) + " instrs";
        else if (ref && (*ref)[i] != r.result.toJson())
            bad = "SimResult differs from the reference run";
        if (!bad.empty()) {
            rep.fail(what + " " + cellId(cells[i]) + ": " + bad);
        }
    }
}

std::vector<std::string>
jsonOf(const std::vector<CellRun> &runs)
{
    std::vector<std::string> out;
    for (const auto &r : runs)
        out.push_back(r.ok ? r.result.toJson() : "failed:" + r.error);
    return out;
}

std::vector<double>
cellMsOf(const std::vector<CellRun> &runs)
{
    std::vector<double> ms;
    for (const auto &r : runs)
        ms.push_back((r.end - r.start) * 1000.0);
    return ms;
}

double
simInstrs(const std::vector<Cell> &cells)
{
    double n = 0;
    for (const auto &c : cells)
        n += static_cast<double>(c.instrs + c.warmup);
    return n;
}

/** Results of @p runs whose cell has config @p cfg_name, in order. */
std::vector<SimResult>
resultsOf(const std::vector<Cell> &cells, const std::vector<CellRun> &runs,
          const std::string &cfg_name)
{
    std::vector<SimResult> out;
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].cfg.name == cfg_name)
            out.push_back(runs[i].result);
    return out;
}

/** Percent gain of @p test's geomean IPC over @p base's. */
double
gainPct(const std::vector<SimResult> &base,
        const std::vector<SimResult> &test)
{
    return (overallGeomean(base, test) - 1.0) * 100.0;
}

/** Worst per-cell |IPC error| in percent of @p test against @p ref. */
double
worstIpcErrPct(const std::vector<CellRun> &ref,
               const std::vector<CellRun> &test)
{
    double worst = 0;
    for (size_t i = 0; i < ref.size(); ++i)
        if (ref[i].ok && test[i].ok && ref[i].result.ipc > 0)
            worst = std::max(worst, std::fabs(test[i].result.ipc /
                                                  ref[i].result.ipc -
                                              1.0) *
                                        100.0);
    return worst;
}

size_t
minReps(size_t cells_per_rep)
{
    return (kTailCells + cells_per_rep - 1) / cells_per_rep;
}

void
addEndToEnd(Report &rep, const Timed &t, const std::vector<double> &setups,
            double peak_mb, double gap_pp, double err_pct)
{
    rep.add("campaign_s", median(t.wall), "s");
    rep.add("sim_kips", median(t.kips), "kinstr/s");
    rep.add("cell_p50_ms", median(t.cellMs), "ms");
    rep.add("cell_tail_ms", quantile(t.cellMs, kTailQuantile), "ms");
    rep.add("cpu_s", median(t.cpu), "s");
    rep.add("peak_rss_mb", peak_mb, "MB");
    rep.add("setup_s", median(setups), "s");
    rep.add("catch_gain_gap_pp", gap_pp, "pp");
    rep.add("sampled_ipc_err_pct", err_pct, "%");
    std::string walls = "rep wall s:";
    for (double w : t.wall) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.3f", w);
        walls += buf;
    }
    rep.notes.push_back(walls);
    size_t n = t.cellMs.size();
    rep.notes.push_back(
        "reps " + std::to_string(t.wall.size()) +
        "; cell_tail_ms is p" +
        std::to_string(static_cast<int>(kTailQuantile * 100)) + " of " +
        std::to_string(n) + " cells (" +
        std::to_string(static_cast<size_t>(
            static_cast<double>(n) * (1 - kTailQuantile))) +
        " beyond it)");
    if (n < kTailCells)
        rep.fail("only " + std::to_string(n) + " timed cells; the tail "
                 "percentile needs " + std::to_string(kTailCells));
}

// ---------------------------------------------------------------------
// Per-layer accounting
// ---------------------------------------------------------------------

/** Per-layer metric values, every name present (0 = no such traffic). */
class Layers
{
  public:
    Layers()
    {
        for (const auto &[name, unit] : layerMetricNames())
            values_[name] = 0;
    }

    void
    set(const std::string &name, double v)
    {
        if (!values_.count(name))
            throw std::logic_error("unknown layer metric " + name);
        values_[name] = v;
    }

    void
    emit(Report &rep) const
    {
        for (const auto &[name, unit] : layerMetricNames())
            rep.add(name, values_.at(name), unit);
    }

  private:
    std::map<std::string, double> values_;
};

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** The exact counters of SimResult and RunProfile, summed over the ok
 *  cells of a pass. */
void
setCounts(Layers &L, const std::vector<CellRun> &runs)
{
    std::vector<const SimResult *> rs;
    std::vector<const RunProfile *> ps;
    for (const auto &r : runs) {
        if (!r.ok)
            continue;
        rs.push_back(&r.result);
        ps.push_back(&r.profile);
    }
    double instrs = 0, cycles = 0, mispred = 0, loads = 0, fwd = 0;
    double l1d[2] = {}, l1i[2] = {}, l2[2] = {}, llc[2] = {};
    double hloads = 0, mem_loads = 0, lat = 0, fills = 0, evictions = 0;
    double stride = 0, stream = 0;
    double dreads = 0, dwrites = 0, rowhit = 0, rowmiss = 0, dlat = 0,
           bankwait = 0;
    double walks = 0, recorded = 0, insertions = 0, queries = 0, qhits = 0;
    double cross = 0, deep = 0, feeder = 0, code = 0, tpf = 0, useful = 0,
           from_llc = 0, located = 0, dropped = 0, warmed = 0;
    auto acc = [](double *a, const CacheStats &s) {
        a[0] += s.demandHits;
        a[1] += s.demandAccesses;
    };
    for (const SimResult *r : rs) {
        instrs += r->core.instrs;
        cycles += r->core.cycles;
        mispred += r->core.branch.mispredicts;
        loads += r->core.loads;
        fwd += r->core.forwardedLoads;
        acc(l1d, r->l1d);
        acc(l1i, r->l1i);
        if (r->hasL2)
            acc(l2, r->l2);
        acc(llc, r->llc);
        hloads += r->hier.loads;
        mem_loads += r->hier.loadHits[static_cast<int>(Level::Mem)];
        lat += r->hier.totalLoadLatency;
        for (const CacheStats *c : {&r->l1d, &r->l1i, &r->l2, &r->llc}) {
            fills += c->fills;
            evictions += c->evictions;
        }
        stride += r->hier.stridePfIssued;
        stream += r->hier.streamPfIssued;
        dreads += r->dram.reads;
        dwrites += r->dram.writes;
        rowhit += r->dram.rowHits;
        rowmiss += r->dram.rowMisses;
        dlat += r->dram.totalReadLatency;
        bankwait += r->dram.totalBankWait;
        walks += r->ddg.walks;
        recorded += r->ddg.recorded;
        insertions += r->criticalTable.insertions;
        queries += r->criticalTable.queries;
        qhits += r->criticalTable.queryHits;
        cross += r->tact.crossIssued;
        deep += r->tact.deepIssued;
        feeder += r->tact.feederIssued;
        code += r->tact.codeLines;
        tpf += r->hier.tactPrefetches;
        useful += r->hier.tactUsefulHits;
        from_llc += r->hier.tactPfFromLlc;
        located += r->hier.tactPfFromL2 + r->hier.tactPfFromLlc +
                   r->hier.tactPfFromMem;
        dropped += r->hier.tactPfDropped + r->hier.tactPfNotOnDie;
        warmed += r->sample.warmedInstrs;
    }
    L.set("core.instrs", instrs);
    L.set("core.cycles", cycles);
    L.set("core.ipc", ratio(instrs, cycles));
    L.set("core.branch_mpki", ratio(mispred * 1000, instrs));
    L.set("core.fwd_load_frac", ratio(fwd, loads));
    L.set("cache.l1d_hit_frac", ratio(l1d[0], l1d[1]));
    L.set("cache.l1i_hit_frac", ratio(l1i[0], l1i[1]));
    L.set("cache.l2_hit_frac", ratio(l2[0], l2[1]));
    L.set("cache.llc_hit_frac", ratio(llc[0], llc[1]));
    L.set("cache.load_served_mem_frac", ratio(mem_loads, hloads));
    L.set("cache.avg_load_latency_cyc", ratio(lat, hloads));
    L.set("cache.fills", fills);
    L.set("cache.evictions", evictions);
    L.set("prefetch.stride_issued", stride);
    L.set("prefetch.stream_issued", stream);
    L.set("dram.reads", dreads);
    L.set("dram.writes", dwrites);
    L.set("dram.row_hit_frac", ratio(rowhit, rowhit + rowmiss));
    L.set("dram.avg_read_latency_cyc", ratio(dlat, dreads));
    L.set("dram.bank_wait_cyc_per_read", ratio(bankwait, dreads));
    L.set("criticality.walks", walks);
    L.set("criticality.recorded", recorded);
    L.set("criticality.table_insertions", insertions);
    L.set("criticality.query_hit_frac", ratio(qhits, queries));
    L.set("tact.cross_issued", cross);
    L.set("tact.deep_issued", deep);
    L.set("tact.feeder_issued", feeder);
    L.set("tact.code_lines", code);
    L.set("tact.useful_frac", ratio(useful, tpf));
    L.set("tact.from_llc_frac", ratio(from_llc, located));
    L.set("tact.dropped_frac", ratio(dropped, tpf));
    L.set("sim.warmed_instrs", warmed);

    double gen = 0, warmup = 0, measured = 0, ch = 0, cm = 0, wh = 0,
           wm = 0, wwh = 0, wwm = 0;
    for (const RunProfile *p : ps) {
        gen += p->traceGenSec;
        warmup += p->warmupSec;
        measured += p->measuredSec;
        ch += p->storeHitChunks;
        cm += p->storeMissChunks;
        wh += p->warmStateHits;
        wm += p->warmStateMisses;
        wwh += p->warmStateWindowHits;
        wwm += p->warmStateWindowMisses;
    }
    L.set("trace.gen_s", gen);
    L.set("sim.warmup_s", warmup);
    L.set("sim.measured_s", measured);
    L.set("trace.chunk_hits", ch);
    L.set("trace.chunk_misses", cm);
    L.set("trace.chunk_hit_frac", ratio(ch, ch + cm));
    L.set("sim.warm_state_hits", wh);
    L.set("sim.warm_state_misses", wm);
    L.set("sim.warm_state_hit_frac", ratio(wh, wh + wm));
    L.set("sim.warm_state_window_hits", wwh);
    L.set("sim.warm_state_window_misses", wwm);
}

/** One traced campaign: spans under a root, returns the wall time. */
double
tracedPass(SpanRecorder &rec, const std::string &name,
           const std::function<void(int64_t)> &body)
{
    SpanScope root(&rec, name);
    double t = hostSeconds();
    body(root.id());
    return hostSeconds() - t;
}

/** Writes the span file and reports the layer table as notes. */
void
finishTrace(Report &rep, const Options &opt, const SpanRecorder &rec,
            Layers &L, double untraced_s, double traced_s)
{
    L.set("bench.tracing_overhead_frac", ratio(traced_s - untraced_s,
                                               untraced_s));
    std::string path = opt.outDir + "/spans-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + ".json";
    if (!rec.write(path))
        rep.notes.push_back("could not write " + path);
    else
        rep.notes.push_back("spans written to " + path);
    for (const LayerTime &t : reduceLayers(rec.spans()))
        rep.notes.push_back("self time " + t.layer + ": " +
                            std::to_string(t.selfSec) + " s over " +
                            std::to_string(t.spans) + " spans");
}

/**
 * Input checks of the traced run, per kernel: at bench seed 0 the
 * seeded kernel's trace is the suite entry's byte for byte, and the
 * run's seed (or seed 1 when the run uses 0) changes the trace.
 */
void
checkSeeds(Report &rep, const std::vector<std::string> &kernels,
           uint64_t seed, size_t ops)
{
    for (const auto &k : kernels) {
        Cost unused;
        uint64_t suite = traceDigest(
            captureTrace(*makeWorkload(k), ops, &unused).ops);
        uint64_t at0 = traceDigest(
            captureTrace(*makeSeededKernel(k, 0), ops, &unused).ops);
        uint64_t other = traceDigest(
            captureTrace(*makeSeededKernel(k, seed ? seed : 1), ops,
                         &unused)
                .ops);
        rep.attempted += 2;
        if (at0 != suite) {
            rep.fail("kernel " + k + ": default-seed trace differs from "
                     "the suite entry");
        }
        if (other == at0) {
            rep.fail("kernel " + k + ": trace does not change with the "
                     "seed at " + std::to_string(ops) + " ops");
        }
    }
}

/** Host-cost probes summed over the probed cells. */
struct ProbeSums
{
    Cost gen, memRead, step, onRetire, load, store, code, dramRead,
        dramWrite, warmAccess, ff;
    double pages = 0;
    double cellSec = 0; ///< Σ untraced cell time of the probed cells
    bool warming = false; ///< the probed cells run sampled (they warm)
    /** Per kernel: SKX and SKX+CATCH step ns, SKX+CATCH onRetire ns. */
    std::map<std::string, std::array<double, 3>> tactSplit;
};

void
setProbeMetrics(Layers &L, const ProbeSums &p)
{
    L.set("trace.gen_ns_per_op", p.gen.ns());
    L.set("mem.read_ns", p.memRead.ns());
    L.set("mem.pages", p.pages);
    L.set("core.step_ns_per_instr", p.step.ns());
    L.set("criticality.on_retire_ns", p.onRetire.ns());
    L.set("cache.load_ns", p.load.ns());
    L.set("cache.store_ns", p.store.ns());
    L.set("cache.code_fetch_ns", p.code.ns());
    L.set("cache.warm_access_ns", p.warmAccess.ns());
    L.set("dram.read_ns", p.dramRead.ns());
    L.set("dram.write_ns", p.dramWrite.ns());
    L.set("sim.ff_warm_ns_per_op", p.ff.ns());
    std::vector<double> tact;
    for (const auto &[k, v] : p.tactSplit)
        if (v[0] > 0 && v[1] > 0)
            tact.push_back(v[1] - v[0] - v[2]);
    if (!tact.empty()) {
        double s = 0;
        for (double x : tact)
            s += x;
        L.set("tact.step_overhead_ns", s / static_cast<double>(tact.size()));
    }
    // Estimated shares: calls x ns per call over the cells' own time.
    L.set("trace.est_share", ratio(p.gen.sec, p.cellSec));
    L.set("mem.est_share", ratio(p.memRead.sec, p.cellSec));
    L.set("core.est_share", ratio(p.step.sec, p.cellSec));
    // Warming replays count toward a share only where cells warm.
    const double warm_sec = p.warming ? p.warmAccess.sec : 0;
    L.set("cache.est_share", ratio(p.load.sec + p.store.sec + p.code.sec +
                                       warm_sec,
                                   p.cellSec));
    L.set("dram.est_share", ratio(p.dramRead.sec + p.dramWrite.sec,
                                  p.cellSec));
    L.set("criticality.est_share", ratio(p.onRetire.sec, p.cellSec));
    L.set("sim.ff_est_share", p.warming ? ratio(p.ff.sec, p.cellSec) : 0);
}

/**
 * Probes every cell of a pass: per kernel one trace capture (generation
 * cost, memory reads, page count); per cell the wired pipeline with its
 * cycle check against @p detailed_ref, the warming replays, and, with
 * @p detailed_probes, the step, detector, demand-cache and DRAM costs.
 */
void
probeCells(Report &rep, ProbeSums &sums, const std::vector<Cell> &cells,
           const std::vector<CellRun> &detailed_ref,
           const std::vector<CellRun> &timed, uint64_t seed,
           bool detailed_probes, SpanRecorder *rec)
{
    std::map<std::string, Trace> traces;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const std::string id = cellId(c);
        sums.cellSec += timed[i].end - timed[i].start;
        sums.warming |= c.cfg.sampling.sampled();
        if (!traces.count(c.kernel)) {
            SpanScope s(rec, "trace.capture", id);
            Cost gen;
            traces[c.kernel] = captureTrace(*makeSeededKernel(c.kernel, seed),
                                            c.instrs + c.warmup, &gen);
            sums.gen.add(gen);
            sums.pages += traces[c.kernel].mem->pagesAllocated();
            rep.notes.push_back(
                "kernel " + c.kernel + ": " +
                std::to_string(traces[c.kernel].mem->pagesAllocated()) +
                " pages");
            SpanScope m(rec, "mem.read", id);
            sums.memRead.add(probeMemRead(traces[c.kernel]));
        }
        const Trace &trace = traces[c.kernel];
        const SimResult &ref = detailed_ref[i].result;
        SimConfig dcfg = detailed(c.cfg);
        PipelineProbe pp = probePipeline(dcfg, trace, c.warmup, rec, id);
        rep.attempted += 1;
        if (!detailed_ref[i].ok || pp.core.cycles != ref.core.cycles ||
            pp.core.instrs != ref.core.instrs) {
            rep.fail("wired pipeline " + id + ": " +
                     std::to_string(pp.core.cycles) + " cycles vs " +
                     std::to_string(ref.core.cycles) +
                     " from Simulator::run");
        }
        if (detailed_probes) {
            sums.step.add(pp.step);
            sums.onRetire.add(pp.onRetire);
            // SKX and SKX+CATCH differ only by CATCH: their step-cost
            // difference less the detector's is TACT's cost.
            auto &split = sums.tactSplit[c.kernel];
            if (!c.cfg.criticality.enabled) {
                split[0] = pp.step.ns();
            } else if (c.cfg.hasL2) {
                split[1] = pp.step.ns();
                split[2] = pp.onRetire.ns();
            }
            CacheProbe cp = probeCache(dcfg, trace, pp.retiredAt, rec, id);
            sums.load.add(cp.load);
            sums.store.add(cp.store);
            sums.code.add(cp.code);
            DramProbe dp = probeDram(dcfg, pp, rec, id);
            sums.dramRead.add(dp.read);
            sums.dramWrite.add(dp.write);
        }
        sums.warmAccess.add(probeWarmAccess(dcfg, trace, rec, id));
        sums.ff.add(probeFastForward(dcfg, trace, rec, id));
    }
}

// ---------------------------------------------------------------------
// figure-detailed
// ---------------------------------------------------------------------

constexpr uint64_t kFigInstrs = 200000;
constexpr uint64_t kFigWarmup = 50000;

std::vector<Cell>
figureCells()
{
    const SimConfig base = baselineSkx();
    const std::vector<SimConfig> cfgs = {
        named(base, "skx"),
        named(withCatch(noL2(base, 6656)), "nol2-6.5mb+catch"),
        named(withCatch(base), "skx+catch"),
    };
    std::vector<Cell> cells;
    for (const auto &cfg : cfgs) {
        if (auto v = cfg.validate(); !v.ok())
            throw std::runtime_error(v.error().message);
        for (const auto &k : stQuickNames())
            cells.push_back({k, cfg, kFigInstrs, kFigWarmup});
    }
    return cells;
}

double
figureGap(const std::vector<Cell> &cells, const std::vector<CellRun> &runs)
{
    auto base = resultsOf(cells, runs, "skx");
    double nol2 = gainPct(base, resultsOf(cells, runs, "nol2-6.5mb+catch"));
    double skx = gainPct(base, resultsOf(cells, runs, "skx+catch"));
    return (std::fabs(nol2 - kPaperFig10NoL2Catch) +
            std::fabs(skx - kPaperFig10SkxCatch)) /
           2;
}

// ---------------------------------------------------------------------
// sweep-sampled
// ---------------------------------------------------------------------

constexpr uint64_t kSweepInstrs = 400000;
constexpr uint64_t kSweepWarmup = 100000;

/**
 * hpc.stream is over the warm-state window page gate (~16.5k pages vs
 * CATCH_WARM_STATE_MAX_PAGES 12288); the rest are under it. Their
 * global-warmup snapshots total ~110 MB per config, inside the 128 MB
 * warm-state budget, so configs 3-4 restore what config 2 published;
 * with mcf or milc added the config-major order evicts every snapshot
 * before its reuse. The chunk footprint is 7 x 16 MB = 112 MB of the
 * 256 MB chunk-store budget.
 */
const std::vector<std::string> kSweepKernels = {
    "hpc.stream", "soplex", "omnetpp", "hmmer", "namd", "gobmk", "povray"};

/** Config-major, as benches call runSuite: SKX baseline, then NoL2
 *  9.5 MB + CATCH at LLC +0/+6/+12, all sampled at the default
 *  20000/2000/2000 schedule. */
std::vector<Cell>
sweepCells()
{
    const SimConfig base = baselineSkx();
    std::vector<SimConfig> cfgs = {sampled(named(base, "skx"))};
    for (uint32_t add : {0u, 6u, 12u}) {
        SimConfig c = named(withCatch(noL2(base, 9728)),
                            "nol2-9.5mb+catch+llc" + std::to_string(add));
        c.oracle.latAddLlc = add;
        cfgs.push_back(sampled(c));
    }
    std::vector<Cell> cells;
    for (const auto &cfg : cfgs) {
        if (auto v = cfg.validate(); !v.ok())
            throw std::runtime_error(v.error().message);
        for (const auto &k : kSweepKernels)
            cells.push_back({k, cfg, kSweepInstrs, kSweepWarmup});
    }
    return cells;
}

/** One sweep pass with fresh memory-tier stores: what one bench process
 *  run with CATCH_TRACE_STORE=1 CATCH_WARM_STATE=1 does. */
struct SweepPass
{
    std::vector<CellRun> runs;
    double wall = 0, cpu = 0;
    double chunkMb = 0, warmMb = 0;
    Cost chunkFind;        ///< ChunkStore::find over every key, 10 times
    uint64_t chunkFound = 0;
};

SweepPass
sweepPass(const std::vector<Cell> &cells, uint64_t seed, SpanRecorder *rec,
          int64_t parent, bool probe_find)
{
    SweepPass p;
    ChunkStore chunks;
    WarmStateStore warm;
    double c0 = cpuSeconds(), t0 = hostSeconds();
    p.runs = runCells(cells, seed, 1, &chunks, &warm, rec, parent);
    p.wall = hostSeconds() - t0;
    p.cpu = cpuSeconds() - c0;
    p.chunkMb = static_cast<double>(chunks.residentBytes()) / (1 << 20);
    p.warmMb = static_cast<double>(warm.residentBytes()) / (1 << 20);
    if (probe_find) {
        // Every chunk key of the sweep, looked up 10 times (all hits).
        std::vector<ChunkKey> keys;
        for (const auto &k : kSweepKernels) {
            uint64_t ks = makeSeededKernel(k, seed)->seed();
            uint64_t n = (kSweepInstrs + kSweepWarmup +
                          TraceStream::kDefaultChunkOps - 1) /
                         TraceStream::kDefaultChunkOps;
            for (uint64_t i = 0; i < n; ++i)
                keys.push_back({k, ks,
                                static_cast<uint32_t>(
                                    TraceStream::kDefaultChunkOps),
                                i});
        }
        SpanScope s(rec, "trace.chunk_find");
        double t = hostSeconds();
        for (int r = 0; r < 10; ++r)
            for (const auto &k : keys)
                p.chunkFound += chunks.find(k) != nullptr;
        p.chunkFind = Cost{hostSeconds() - t, 10 * keys.size()};
    }
    return p;
}

double
sweepGap(const std::vector<Cell> &cells, const std::vector<CellRun> &runs)
{
    auto base = resultsOf(cells, runs, "skx+sampled");
    double gap = 0;
    int i = 0;
    for (uint32_t add : {0u, 6u, 12u}) {
        auto test = resultsOf(
            cells, runs,
            "nol2-9.5mb+catch+llc" + std::to_string(add) + "+sampled");
        gap += std::fabs(gainPct(base, test) - kPaperFig15[i++]);
    }
    return gap / 3;
}

std::vector<Cell>
asDetailed(std::vector<Cell> cells)
{
    for (auto &c : cells)
        c.cfg = detailed(c.cfg);
    return cells;
}

std::vector<Cell>
asSampled(std::vector<Cell> cells)
{
    for (auto &c : cells)
        c.cfg = sampled(c.cfg);
    return cells;
}

// ---------------------------------------------------------------------
// resweep-isolated
// ---------------------------------------------------------------------

constexpr uint64_t kResweepInstrs = 100000;
constexpr uint64_t kResweepWarmup = 20000;

struct Resweep
{
    std::vector<std::string> names;
    std::vector<SimConfig> cfgs; ///< skx, skx+catch, skx+catch+llc6
    std::vector<Cell> cells;     ///< config-major
    IsolationOptions opts;
};

/** Explicit empty plan, so CATCH_FAULT_INJECT cannot reach the runs. */
const FaultPlan kNoFaults;

void
initResweep(Resweep &rw, const Options &opt)
{
    rw.names = stSuiteNames();
    const SimConfig base = baselineSkx();
    SimConfig skx = named(base, "skx");
    SimConfig cat = named(withCatch(base), "skx+catch");
    SimConfig cat6 = named(cat, "skx+catch+llc6");
    cat6.oracle.latAddLlc = 6;
    // Cells cross the worker boundary by suite name, so the benchmark
    // seed enters through SimConfig::seed (part of every store key).
    for (SimConfig *c : {&skx, &cat, &cat6})
        c->seed = kernelSeed(1, opt.seed);
    rw.cfgs = {skx, cat, cat6};
    for (const auto &cfg : rw.cfgs) {
        if (auto v = cfg.validate(); !v.ok())
            throw std::runtime_error(v.error().message);
        for (const auto &n : rw.names)
            rw.cells.push_back({n, cfg, kResweepInstrs, kResweepWarmup});
    }
    rw.opts.plan = &kNoFaults;
    rw.opts.store = nullptr;
    rw.opts.warmStore = nullptr;
    rw.opts.workerBin = opt.workerBin;
    rw.opts.profile = true;
}

CellRun
fromOutcome(const RunOutcome &o)
{
    CellRun r;
    r.ok = o.ok();
    if (r.ok)
        r.result = o.result;
    else
        r.error = o.failure ? o.failure->error.message : "failed";
    if (o.profile)
        r.profile = *o.profile;
    return r;
}

/** In-process campaign of @p cfg over the suite, no result store. */
std::vector<CellRun>
inProcess(const Resweep &rw, const SimConfig &cfg)
{
    std::vector<CellRun> out;
    for (const auto &oc : runWorkloadsIsolated(cfg, rw.names, kResweepInstrs,
                                               kResweepWarmup, kJobs,
                                               rw.opts))
        out.push_back(fromOutcome(oc));
    return out;
}

/** Setup: the user's first campaign, SKX and SKX+CATCH over the full ST
 *  suite, filling a fresh result store through runSuiteIsolated. */
std::vector<CellRun>
fillStore(const Resweep &rw, const std::string &dir)
{
    fs::remove_all(dir);
    ExperimentEnv env{};
    env.names = rw.names;
    env.instrs = kResweepInstrs;
    env.warmup = kResweepWarmup;
    env.jobs = kJobs;
    env.resultStoreDir = dir;
    env.isolate = false;
    env.isolation = rw.opts;
    std::vector<CellRun> out;
    for (size_t c = 0; c < 2; ++c)
        for (const auto &oc : runSuiteIsolated(rw.cfgs[c], env))
            out.push_back(fromOutcome(oc));
    return out;
}

struct ResweepPass
{
    std::vector<CellRun> runs; ///< all three configs, config-major
    std::vector<double> cellMs; ///< executed (worker) cells only
    double wall = 0, cpu = 0;
    double executedInstrs = 0;
    uint64_t storeHits = 0, storeMisses = 0;
};

/**
 * One timed resweep from a fresh copy of @p base: the three configs
 * through runWorkloadsSupervised with the store attached. The first two
 * are served from the store, the third executes in worker processes.
 * A worker cell's time is the worker's own Simulator::runGuarded time
 * (RunProfile, sent back over the frame protocol). Its spawn-to-reap
 * time is not used: the worker joins its heartbeat thread, which sleeps
 * in 50 ms slices, so that time sits on a 50 ms lattice and its median
 * jumps a whole slice between runs. The spawn, join and protocol cost
 * shows in campaign_s and sim.isolation_overhead_ms_per_cell.
 */
ResweepPass
resweepPass(const Resweep &rw, const std::string &base,
            const std::string &dir, SpanRecorder *rec, int64_t parent,
            Report &rep)
{
    ResweepPass p;
    fs::remove_all(dir);
    fs::copy(base, dir, fs::copy_options::recursive);
    double c0 = cpuSeconds(), t0 = hostSeconds();
    {
        auto store = ResultStore::open(dir);
        if (!store.ok())
            throw std::runtime_error(store.error().message);
        IsolationOptions o = rw.opts;
        o.resultStore = store.value().get();
        for (const SimConfig &cfg : rw.cfgs) {
            SpanScope span(rec, "sim.supervised_pass", cfg.name, parent);
            for (const auto &oc : runWorkloadsSupervised(
                     cfg, rw.names, kResweepInstrs, kResweepWarmup, kJobs,
                     o)) {
                p.runs.push_back(fromOutcome(oc));
                if (oc.fromStore) {
                    ++p.storeHits;
                    continue;
                }
                p.storeMisses += oc.storeMiss;
                const RunProfile &prof = p.runs.back().profile;
                p.cellMs.push_back((prof.warmupSec + prof.measuredSec) *
                                   1000.0);
                p.executedInstrs += kResweepInstrs + kResweepWarmup;
            }
        }
    }
    p.wall = hostSeconds() - t0;
    p.cpu = cpuSeconds() - c0;
    fs::remove_all(dir);
    // Store-served configs must be hits, the resweep config all misses.
    size_t n = rw.names.size();
    if (p.storeHits != 2 * n || p.storeMisses != n)
        rep.fail("resweep served " + std::to_string(p.storeHits) +
                 " cells from the store and executed " +
                 std::to_string(p.storeMisses) + "; expected " +
                 std::to_string(2 * n) + " and " + std::to_string(n));
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------

Report
runFigureDetailed(const Options &opt)
{
    Report rep;
    std::vector<Cell> cells;
    std::vector<CellRun> ref;
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
        double t = hostSeconds();
        cells = figureCells();
        auto runs = runCells(cells, opt.seed, kJobs, nullptr, nullptr,
                             nullptr, -1);
        setups.push_back(hostSeconds() - t);
        if (s == 0) {
            checkPass(rep, "setup", cells, runs, nullptr);
            ref = std::move(runs);
        }
    }
    const auto ref_json = jsonOf(ref);

    if (opt.trace) {
        Layers L;
        SpanRecorder rec;
        double tu = hostSeconds();
        auto untraced = runCells(cells, opt.seed, kJobs, nullptr, nullptr,
                                 nullptr, -1);
        double wall_u = hostSeconds() - tu;
        checkPass(rep, "untraced", cells, untraced, &ref_json);
        std::vector<CellRun> traced;
        double wall_t = tracedPass(rec, "bench.campaign", [&](int64_t id) {
            traced = runCells(cells, opt.seed, kJobs, nullptr, nullptr, &rec,
                              id);
        });
        checkPass(rep, "traced 2-thread", cells, traced, &ref_json);
        std::vector<CellRun> serial;
        tracedPass(rec, "bench.campaign_serial", [&](int64_t id) {
            serial =
                runCells(cells, opt.seed, 1, nullptr, nullptr, &rec, id);
        });
        checkPass(rep, "traced serial", cells, serial, &ref_json);
        rep.notes.push_back("digest 2-thread " +
                            hex64(campaignDigest(untraced)) + " serial " +
                            hex64(campaignDigest(serial)));

        setCounts(L, untraced);
        std::vector<double> waits;
        double busy = 0, t0 = 1e300, t1 = 0;
        for (const auto &r : untraced) {
            t0 = std::min(t0, r.start);
            t1 = std::max(t1, r.end);
            busy += r.end - r.start;
        }
        for (const auto &r : untraced)
            waits.push_back(r.start - t0);
        L.set("sim.runner_queue_wait_s", median(waits));
        L.set("sim.runner_busy_frac", ratio(busy, kJobs * (t1 - t0)));

        ProbeSums sums;
        {
            SpanScope s(&rec, "bench.probes");
            probeCells(rep, sums, cells, ref, untraced, opt.seed, true,
                       &rec);
            checkSeeds(rep, stQuickNames(), opt.seed,
                       kFigInstrs + kFigWarmup);
        }
        setProbeMetrics(L, sums);
        finishTrace(rep, opt, rec, L, wall_u, wall_t);
        L.emit(rep);
        return rep;
    }

    Timed timed;
    const double deadline = hostSeconds() + opt.seconds;
    while (hostSeconds() < deadline || timed.wall.size() < minReps(cells.size())) {
        double c0 = cpuSeconds(), t0 = hostSeconds();
        auto runs = runCells(cells, opt.seed, kJobs, nullptr, nullptr,
                             nullptr, -1);
        double wall = hostSeconds() - t0, cpu = cpuSeconds() - c0;
        timed.add(wall, cpu, simInstrs(cells), cellMsOf(runs));
        checkPass(rep, "timed", cells, runs, &ref_json);
    }
    const double peak = peakRssMb();
    // Accuracy guards, outside the timed region, on the reference
    // inputs: Fig 10's gains and the same cells in sampled mode against
    // the detailed results.
    auto ref0 = opt.seed == 0 ? ref
                              : runCells(cells, 0, kJobs, nullptr, nullptr,
                                         nullptr, -1);
    auto samp0 = runCells(asSampled(cells), 0, kJobs, nullptr, nullptr,
                          nullptr, -1);
    checkPass(rep, "reference-input detailed", cells, ref0, nullptr);
    checkPass(rep, "reference-input sampled", asSampled(cells), samp0,
              nullptr);
    addEndToEnd(rep, timed, setups, peak, figureGap(cells, ref0),
                worstIpcErrPct(ref0, samp0));
    rep.notes.push_back("digest " + hex64(campaignDigest(ref)));
    return rep;
}

Report
runSweepSampled(const Options &opt)
{
    Report rep;
    std::vector<Cell> cells;
    std::vector<CellRun> ref;
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
        double t = hostSeconds();
        cells = sweepCells();
        auto pass = sweepPass(cells, opt.seed, nullptr, -1, false);
        setups.push_back(hostSeconds() - t);
        if (s == 0) {
            checkPass(rep, "setup", cells, pass.runs, nullptr);
            ref = std::move(pass.runs);
        }
    }
    const auto ref_json = jsonOf(ref);
    const auto dcells = asDetailed(cells);

    if (opt.trace) {
        Layers L;
        SpanRecorder rec;
        SweepPass untraced = sweepPass(cells, opt.seed, nullptr, -1, true);
        checkPass(rep, "untraced", cells, untraced.runs, &ref_json);
        SweepPass traced;
        double wall_t = tracedPass(rec, "bench.campaign", [&](int64_t id) {
            traced = sweepPass(cells, opt.seed, &rec, id, false);
        });
        checkPass(rep, "traced", cells, traced.runs, &ref_json);
        rep.notes.push_back("digest " + hex64(campaignDigest(untraced.runs)));
        setCounts(L, untraced.runs);
        L.set("trace.chunk_find_ns", untraced.chunkFind.ns());
        rep.attempted += 1;
        if (untraced.chunkFound != untraced.chunkFind.calls) {
            rep.fail("chunk store served " +
                     std::to_string(untraced.chunkFound) + " of " +
                     std::to_string(untraced.chunkFind.calls) +
                     " lookups of the sweep's own chunks");
        }
        L.set("trace.chunk_resident_mb", untraced.chunkMb);
        L.set("sim.warm_state_mb", untraced.warmMb);

        auto dref = runCells(dcells, opt.seed, kJobs, nullptr, nullptr,
                             nullptr, -1);
        checkPass(rep, "detailed reference", dcells, dref, nullptr);
        ProbeSums sums;
        {
            SpanScope s(&rec, "bench.probes");
            probeCells(rep, sums, cells, dref, untraced.runs, opt.seed,
                       false, &rec);
            checkSeeds(rep, kSweepKernels, opt.seed,
                       kSweepInstrs + kSweepWarmup);
        }
        // Generation runs only on config 1 of each kernel here; every
        // later config is served by the chunk store.
        setProbeMetrics(L, sums);
        finishTrace(rep, opt, rec, L, untraced.wall, wall_t);
        L.emit(rep);
        return rep;
    }

    Timed timed;
    SweepPass last;
    const double deadline = hostSeconds() + opt.seconds;
    while (hostSeconds() < deadline || timed.wall.size() < minReps(cells.size())) {
        last = sweepPass(cells, opt.seed, nullptr, -1, false);
        timed.add(last.wall, last.cpu, simInstrs(cells),
                  cellMsOf(last.runs));
        checkPass(rep, "timed", cells, last.runs, &ref_json);
    }
    const double peak = peakRssMb();
    // Accuracy guards, outside the timed region, on the reference
    // inputs: Fig 15's gains and detailed runs of the same cells.
    auto ref0 = opt.seed == 0
                    ? ref
                    : sweepPass(cells, 0, nullptr, -1, false).runs;
    auto dref0 =
        runCells(dcells, 0, kJobs, nullptr, nullptr, nullptr, -1);
    checkPass(rep, "reference-input sampled", cells, ref0, nullptr);
    checkPass(rep, "reference-input detailed", dcells, dref0, nullptr);
    addEndToEnd(rep, timed, setups, peak, sweepGap(cells, ref0),
                worstIpcErrPct(dref0, ref0));
    uint64_t wh = 0, wm = 0;
    for (const auto &r : last.runs) {
        wh += r.profile.warmStateHits;
        wm += r.profile.warmStateMisses;
    }
    rep.notes.push_back("warm-state snapshot hits " + std::to_string(wh) +
                        ", misses " + std::to_string(wm) + " per pass");
    rep.notes.push_back(
        "chunk store resident " + std::to_string(last.chunkMb) +
        " MB of the 256 MB default budget; warm-state store " +
        std::to_string(last.warmMb) + " MB of 128 MB");
    rep.notes.push_back("digest " + hex64(campaignDigest(ref)));
    return rep;
}

Report
runResweepIsolated(const Options &opt)
{
    Report rep;
    Resweep rw;
    initResweep(rw, opt);
    const std::string root =
        opt.outDir + "/resweep-seed" + std::to_string(opt.seed);
    const std::string base = root + "/base";
    std::vector<CellRun> setup_runs;
    std::vector<double> setups;
    for (int s = 0; s < kSetups; ++s) {
        double t = hostSeconds();
        auto runs = fillStore(rw, base);
        setups.push_back(hostSeconds() - t);
        if (s == 0)
            setup_runs = std::move(runs);
    }
    const size_t n = rw.names.size();
    std::vector<Cell> stored(rw.cells.begin(), rw.cells.begin() + 2 * n);
    std::vector<Cell> fresh(rw.cells.begin() + 2 * n, rw.cells.end());
    checkPass(rep, "setup", stored, setup_runs, nullptr);
    const auto stored_json = jsonOf(setup_runs);

    // Reference for the worker-executed config: an in-process run.
    double ti = hostSeconds();
    auto fresh_ref = inProcess(rw, rw.cfgs[2]);
    double inproc_s = hostSeconds() - ti;
    checkPass(rep, "in-process reference", fresh, fresh_ref, nullptr);
    const auto fresh_json = jsonOf(fresh_ref);
    std::vector<std::string> all_json = stored_json;
    all_json.insert(all_json.end(), fresh_json.begin(), fresh_json.end());

    if (opt.trace) {
        Layers L;
        SpanRecorder rec;
        ResweepPass untraced =
            resweepPass(rw, base, root + "/rep", nullptr, -1, rep);
        checkPass(rep, "untraced", rw.cells, untraced.runs, &all_json);
        ResweepPass traced;
        double wall_t = tracedPass(rec, "bench.campaign", [&](int64_t id) {
            traced = resweepPass(rw, base, root + "/rep", &rec, id, rep);
        });
        checkPass(rep, "traced", rw.cells, traced.runs, &all_json);
        rep.notes.push_back("digest " + hex64(campaignDigest(untraced.runs)));
        std::vector<CellRun> executed(untraced.runs.begin() + 2 * n,
                                      untraced.runs.end());
        setCounts(L, executed);
        // Worker pass wall vs the in-process pass of the same cells on
        // the same job count, per cell.
        double worker_pass = 0;
        for (const auto &s : rec.spans())
            if (s.name == "sim.supervised_pass" && s.cell == rw.cfgs[2].name)
                worker_pass = s.end - s.start;
        L.set("sim.isolation_overhead_ms_per_cell",
              (worker_pass - inproc_s) * kJobs * 1000.0 / n);
        L.set("sim.result_store_hit_frac",
              ratio(untraced.storeHits,
                    untraced.storeHits + untraced.storeMisses));

        SpanScope probes(&rec, "bench.probes");
        {
            // ResultStore::put then find over every setup cell.
            const std::string dir = root + "/probe-store";
            fs::remove_all(dir);
            auto store = ResultStore::open(dir);
            if (!store.ok())
                throw std::runtime_error(store.error().message);
            std::vector<RunKey> keys;
            std::vector<RunOutcome> outs;
            for (size_t i = 0; i < stored.size(); ++i) {
                const Cell &c = stored[i];
                keys.push_back({c.kernel, makeWorkload(c.kernel)->seed(),
                                configDigest(c.cfg), c.instrs, c.warmup});
                RunOutcome o;
                o.workload = c.kernel;
                o.config = c.cfg.name;
                o.result = setup_runs[i].result;
                outs.push_back(std::move(o));
            }
            Cost put, find;
            {
                SpanScope s(&rec, "sim.result_store_put");
                double t = hostSeconds();
                for (size_t i = 0; i < keys.size(); ++i)
                    store.value()->put(keys[i], outs[i]);
                put = Cost{hostSeconds() - t, keys.size()};
            }
            {
                SpanScope s(&rec, "sim.result_store_find");
                uint64_t hits = 0;
                double t = hostSeconds();
                for (const auto &k : keys)
                    hits += store.value()->find(k).has_value();
                find = Cost{hostSeconds() - t, keys.size()};
                rep.attempted += 1;
                if (hits != keys.size()) {
                    rep.fail("result store probe found " +
                             std::to_string(hits) + " of " +
                             std::to_string(keys.size()));
                }
            }
            store.value().reset();
            fs::remove_all(dir);
            L.set("sim.result_store_put_us", put.ns() / 1000.0);
            L.set("sim.result_store_find_us", find.ns() / 1000.0);
        }
        {
            // SimResult JSON encode/decode over every cell, 5 times.
            SpanScope s(&rec, "sim.result_json");
            std::vector<std::string> docs;
            double t = hostSeconds();
            for (int r = 0; r < 5; ++r)
                for (const auto &run : untraced.runs)
                    docs.push_back(run.result.toJson());
            Cost enc{hostSeconds() - t, docs.size()};
            size_t bad = 0;
            t = hostSeconds();
            for (const auto &d : docs)
                bad += !SimResult::fromJson(d).ok();
            Cost dec{hostSeconds() - t, docs.size()};
            rep.attempted += 1;
            if (bad) {
                rep.fail(std::to_string(bad) + " SimResult JSON documents "
                         "failed to parse back");
            }
            L.set("sim.result_json_encode_us", enc.ns() / 1000.0);
            L.set("sim.result_json_decode_us", dec.ns() / 1000.0);
        }
        {
            SpanScope s(&rec, "sim.config_json_roundtrip");
            size_t bad = 0;
            double t = hostSeconds();
            for (int r = 0; r < 200; ++r)
                for (const SimConfig &cfg : rw.cfgs) {
                    std::string j = configToJson(cfg);
                    auto v = parseJson(j);
                    auto back = v.ok() ? configFromJson(v.value())
                                       : Expected<SimConfig>(v.error());
                    bad += !back.ok() || configToJson(back.value()) != j;
                }
            Cost rt{hostSeconds() - t, 200 * rw.cfgs.size()};
            rep.attempted += 1;
            if (bad) {
                rep.fail("SimConfig JSON round trip changed a config");
            }
            L.set("sim.config_json_roundtrip_us", rt.ns() / 1000.0);
        }
        finishTrace(rep, opt, rec, L, untraced.wall, wall_t);
        L.emit(rep);
        fs::remove_all(root);
        return rep;
    }

    Timed timed;
    const double deadline = hostSeconds() + opt.seconds;
    while (hostSeconds() < deadline || timed.wall.size() < minReps(n)) {
        ResweepPass p = resweepPass(rw, base, root + "/rep", nullptr, -1, rep);
        timed.add(p.wall, p.cpu, p.executedInstrs, p.cellMs);
        checkPass(rep, "timed", rw.cells, p.runs, &all_json);
    }
    const double peak = peakRssMb();
    // Accuracy guard, outside the timed region: the worker-executed
    // cells in sampled mode, in process, against their detailed results.
    std::vector<CellRun> samp = inProcess(rw, sampled(rw.cfgs[2]));
    checkPass(rep, "sampled check", asSampled(fresh), samp, nullptr);
    std::vector<SimResult> skx, cat;
    for (size_t i = 0; i < n; ++i) {
        skx.push_back(setup_runs[i].result);
        cat.push_back(setup_runs[n + i].result);
    }
    addEndToEnd(rep, timed, setups, peak,
                std::fabs(gainPct(skx, cat) - kPaperFig10SkxCatch),
                worstIpcErrPct(fresh_ref, samp));
    rep.notes.push_back("digest " + hex64(campaignDigest(setup_runs)) +
                        " (store-served) " +
                        hex64(campaignDigest(fresh_ref)) + " (resweep)");
    fs::remove_all(root);
    return rep;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"trace.gen_ns_per_op", "ns"},
        {"trace.gen_s", "s"},
        {"trace.chunk_hits", "count"},
        {"trace.chunk_misses", "count"},
        {"trace.chunk_hit_frac", "ratio"},
        {"trace.chunk_find_ns", "ns"},
        {"trace.chunk_resident_mb", "MB"},
        {"trace.est_share", "ratio"},
        {"mem.read_ns", "ns"},
        {"mem.pages", "count"},
        {"mem.est_share", "ratio"},
        {"core.step_ns_per_instr", "ns"},
        {"core.instrs", "count"},
        {"core.cycles", "count"},
        {"core.ipc", "instr/cycle"},
        {"core.branch_mpki", "1/kinstr"},
        {"core.fwd_load_frac", "ratio"},
        {"core.est_share", "ratio"},
        {"cache.load_ns", "ns"},
        {"cache.store_ns", "ns"},
        {"cache.code_fetch_ns", "ns"},
        {"cache.warm_access_ns", "ns"},
        {"cache.l1d_hit_frac", "ratio"},
        {"cache.l1i_hit_frac", "ratio"},
        {"cache.l2_hit_frac", "ratio"},
        {"cache.llc_hit_frac", "ratio"},
        {"cache.load_served_mem_frac", "ratio"},
        {"cache.avg_load_latency_cyc", "cycles"},
        {"cache.fills", "count"},
        {"cache.evictions", "count"},
        {"cache.est_share", "ratio"},
        {"prefetch.stride_issued", "count"},
        {"prefetch.stream_issued", "count"},
        {"dram.read_ns", "ns"},
        {"dram.write_ns", "ns"},
        {"dram.reads", "count"},
        {"dram.writes", "count"},
        {"dram.row_hit_frac", "ratio"},
        {"dram.avg_read_latency_cyc", "cycles"},
        {"dram.bank_wait_cyc_per_read", "cycles"},
        {"dram.est_share", "ratio"},
        {"criticality.on_retire_ns", "ns"},
        {"criticality.walks", "count"},
        {"criticality.recorded", "count"},
        {"criticality.table_insertions", "count"},
        {"criticality.query_hit_frac", "ratio"},
        {"criticality.est_share", "ratio"},
        {"tact.cross_issued", "count"},
        {"tact.deep_issued", "count"},
        {"tact.feeder_issued", "count"},
        {"tact.code_lines", "count"},
        {"tact.useful_frac", "ratio"},
        {"tact.from_llc_frac", "ratio"},
        {"tact.dropped_frac", "ratio"},
        {"tact.step_overhead_ns", "ns"},
        {"sim.warmup_s", "s"},
        {"sim.measured_s", "s"},
        {"sim.ff_warm_ns_per_op", "ns"},
        {"sim.ff_est_share", "ratio"},
        {"sim.warmed_instrs", "count"},
        {"sim.warm_state_hits", "count"},
        {"sim.warm_state_misses", "count"},
        {"sim.warm_state_hit_frac", "ratio"},
        {"sim.warm_state_mb", "MB"},
        {"sim.warm_state_window_hits", "count"},
        {"sim.warm_state_window_misses", "count"},
        {"sim.runner_queue_wait_s", "s"},
        {"sim.runner_busy_frac", "ratio"},
        {"sim.isolation_overhead_ms_per_cell", "ms"},
        {"sim.result_store_find_us", "us"},
        {"sim.result_store_put_us", "us"},
        {"sim.result_store_hit_frac", "ratio"},
        {"sim.result_json_encode_us", "us"},
        {"sim.result_json_decode_us", "us"},
        {"sim.config_json_roundtrip_us", "us"},
        {"bench.tracing_overhead_frac", "ratio"},
    };
    return names;
}

} // namespace catchbench
