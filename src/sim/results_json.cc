/**
 * @file
 * JSON export of suite results: SimResult::toJson()/fromJson() plus the
 * suite-level writers the bench binaries and the CLI use to emit
 * machine-readable per-workload stats next to their stdout tables
 * (CATCH_JSON env knob).
 *
 * Both directions derive from one field schema, forEachField below:
 * toJson() covers every counter SimResult carries and fromJson() parses
 * it back bitwise-exactly (exact u64, %.17g doubles); the suite journal
 * and the result store rest on this round trip. Suite documents are
 * written atomically: the full document goes to <path>.tmp, which is
 * renamed over <path> only after a verified complete write — a crashed
 * export never leaves a half-written file behind.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"

namespace catchsim
{

// The export schemas live outside the anonymous namespace so that
// fieldObject (common/schema.hh) finds them by argument-dependent lookup.

template <FieldsOf<CacheStats> S, typename V>
void
forEachField(S &s, V &v)
{
    v.field("accesses", s.demandAccesses);
    v.field("hits", s.demandHits);
    v.derived("hit_rate", s.hitRate());
    v.field("fills", s.fills);
    v.field("evictions", s.evictions);
    v.field("dirty_evictions", s.dirtyEvictions);
    v.field("invalidations", s.invalidations);
    v.field("useless_prefetch_evictions", s.uselessPrefetchEvictions);
    v.field("read_ops", s.readOps);
    v.field("write_ops", s.writeOps);
}

/**
 * The SimResult export layout. Groups follow the paper's components,
 * not the struct's members (the TACT group gathers counters the
 * hierarchy keeps). "l2" is present only for hierarchies with an L2
 * and "sampling" only for sampled runs, so detailed-mode documents
 * stay byte-identical to pre-sampling exports, which the golden-hash
 * tests pin.
 */
template <FieldsOf<SimResult> R, typename V>
void
forEachField(R &r, V &v)
{
    v.field("workload", r.workload);
    v.field("config", r.config);
    v.field("category", r.category);
    v.field("ipc", r.ipc);

    v.object("core");
    v.field("instrs", r.core.instrs);
    v.field("cycles", r.core.cycles);
    v.field("loads", r.core.loads);
    v.field("stores", r.core.stores);
    v.field("forwarded_loads", r.core.forwardedLoads);
    v.field("branches", r.core.branch.branches);
    v.field("branch_mispredicts", r.core.branch.mispredicts);
    v.field("branch_direction_wrong", r.core.branch.directionWrong);
    v.field("branch_target_wrong", r.core.branch.targetWrong);
    v.close();

    v.object("hierarchy");
    v.field("loads", r.hier.loads);
    v.field("load_hits_l1", r.hier.loadHits[0]);
    v.field("load_hits_l2", r.hier.loadHits[1]);
    v.field("load_hits_llc", r.hier.loadHits[2]);
    v.field("load_hits_mem", r.hier.loadHits[3]);
    v.field("total_load_latency", r.hier.totalLoadLatency);
    v.field("total_l1_hit_latency", r.hier.totalL1HitLatency);
    v.field("l1_hits_by_source", r.hier.l1HitsBySource);
    v.field("l1_hit_wait_by_source", r.hier.l1HitWaitBySource);
    v.field("store_accesses", r.hier.storeAccesses);
    v.field("store_l1_misses", r.hier.storeL1Misses);
    v.field("rfo_hits", r.hier.rfoHits);
    v.field("code_fetches", r.hier.codeFetches);
    v.field("code_hits", r.hier.codeHits);
    v.field("demoted_loads", r.hier.demotedLoads);
    v.field("oracle_converted", r.hier.oracleConverted);
    v.field("ring_transfers", r.hier.ringTransfers);
    v.field("mem_transfers", r.hier.memTransfers);
    v.field("stride_pf_issued", r.hier.stridePfIssued);
    v.field("stream_pf_issued", r.hier.streamPfIssued);
    v.field("code_pf_issued", r.hier.codePfIssued);
    v.close();

    fieldObject(v, "l1d", r.l1d);
    fieldObject(v, "l1i", r.l1i);
    if (v.object("l2", r.hasL2)) {
        forEachField(r.l2, v);
        v.close();
    }
    fieldObject(v, "llc", r.llc);

    v.object("dram");
    v.field("reads", r.dram.reads);
    v.field("writes", r.dram.writes);
    v.field("activates", r.dram.activates);
    v.field("row_hits", r.dram.rowHits);
    v.field("row_misses", r.dram.rowMisses);
    v.field("write_drains", r.dram.writeDrains);
    v.field("refresh_stalls", r.dram.refreshStalls);
    v.field("total_read_latency", r.dram.totalReadLatency);
    v.field("total_bank_wait", r.dram.totalBankWait);
    v.field("total_bus_wait", r.dram.totalBusWait);
    v.derived("avg_read_latency", r.dram.avgReadLatency());
    v.close();

    v.object("frontend");
    v.field("line_fetches", r.frontend.lineFetches);
    v.field("code_stall_cycles", r.frontend.codeStallCycles);
    v.field("redirects", r.frontend.redirects);
    v.close();

    v.object("criticality");
    v.field("ddg_retired", r.ddg.retired);
    v.field("ddg_walks", r.ddg.walks);
    v.field("critical_loads_found", r.ddg.criticalLoadsFound);
    v.field("ddg_recorded", r.ddg.recorded);
    v.field("ddg_overflows", r.ddg.overflows);
    v.field("table_recordings", r.criticalTable.recordings);
    v.field("table_insertions", r.criticalTable.insertions);
    v.field("table_evictions", r.criticalTable.evictions);
    v.field("table_confidence_resets", r.criticalTable.confidenceResets);
    v.field("table_queries", r.criticalTable.queries);
    v.field("table_query_hits", r.criticalTable.queryHits);
    v.field("active_critical_pcs", r.activeCriticalPcs);
    v.close();

    v.object("tact");
    v.field("prefetches", r.hier.tactPrefetches);
    v.field("cross_issued", r.tact.crossIssued);
    v.field("deep_issued", r.tact.deepIssued);
    v.field("feeder_issued", r.tact.feederIssued);
    v.field("feeder_runaheads", r.tact.feederRunaheads);
    v.field("code_stalls", r.tact.codeStalls);
    v.field("code_lines", r.tact.codeLines);
    v.field("useful_hits", r.hier.tactUsefulHits);
    v.field("pf_from_l2", r.hier.tactPfFromL2);
    v.field("pf_from_llc", r.hier.tactPfFromLlc);
    v.field("pf_from_mem", r.hier.tactPfFromMem);
    v.field("pf_dropped", r.hier.tactPfDropped);
    v.field("pf_not_on_die", r.hier.tactPfNotOnDie);
    v.field("from_llc_fraction", r.tactFromLlcFraction);
    v.field("timeliness_ge80", r.timelinessAtLeast80);
    v.field("timeliness_ge10", r.timelinessAtLeast10);
    v.close();

    v.object("energy_mj");
    v.field("core_dynamic", r.energy.coreDynamic);
    v.field("cache_dynamic", r.energy.cacheDynamic);
    v.field("interconnect", r.energy.interconnect);
    v.field("dram_dynamic", r.energy.dramDynamic);
    v.field("static_leakage", r.energy.staticLeakage);
    v.derived("total", r.energy.total());
    v.close();

    if (v.object("sampling", r.sampled)) {
        v.field("windows", r.sample.windows);
        v.field("warmed_instrs", r.sample.warmedInstrs);
        v.field("ipc_mean", r.sample.ipcMean);
        v.field("ipc_variance", r.sample.ipcVariance);
        v.field("ipc_min", r.sample.ipcMin);
        v.field("ipc_max", r.sample.ipcMax);
        v.close();
    }
}

std::string
SimResult::toJson() const
{
    JsonWriter w;
    w.open();
    forEachField(*this, w);
    w.close();
    return w.str();
}

Expected<SimResult>
SimResult::fromJson(const JsonValue &v)
{
    JsonReader r(v, ErrorCategory::TraceCorrupt, "SimResult JSON");
    SimResult s;
    forEachField(s, r);
    if (r.error())
        return *r.error();
    return s;
}

Expected<SimResult>
SimResult::fromJson(const std::string &json)
{
    auto v = parseJson(json);
    if (!v.ok())
        return v.error();
    return fromJson(v.value());
}

namespace
{

/**
 * Atomic document write: full body to <path>.tmp, verified, renamed
 * over <path>. The reserved fault-injection target "json-export" makes
 * the transient-IO path testable.
 */
Expected<void>
writeDocument(const std::string &path, const std::string &body)
{
    const FaultPlan &plan = FaultPlan::global();
    if (plan.shouldInject(FaultKind::IoTransient, "json-export"))
        return simError(ErrorCategory::IoTransient,
                        "injected transient IO failure writing '", path,
                        "'");
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return simError(ErrorCategory::Config, "cannot open '", tmp,
                        "' for writing");
    size_t n = std::fwrite(body.data(), 1, body.size(), f);
    bool bad = n != body.size() || std::ferror(f) != 0;
    if (std::fclose(f) != 0)
        bad = true;
    if (bad) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient,
                        "short or failed write to '", tmp, "' (", n,
                        " of ", body.size(), " bytes)");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, "cannot rename '",
                        tmp, "' to '", path, "'");
    }
    return {};
}

std::string
suiteHeader(const SimConfig &cfg, const ExperimentEnv &env)
{
    JsonWriter w;
    w.open();
    w.field("config", cfg.name);
    w.field("instrs", env.instrs);
    w.field("warmup", env.warmup);
    w.key("results");
    return w.str();
}

} // namespace

Expected<void>
writeSuiteJson(const std::string &path, const SimConfig &cfg,
               const ExperimentEnv &env,
               const std::vector<SimResult> &results)
{
    std::string body = suiteHeader(cfg, env);
    body += "[\n";
    for (size_t i = 0; i < results.size(); ++i) {
        body += results[i].toJson();
        if (i + 1 < results.size())
            body += ',';
        body += '\n';
    }
    body += "]}\n";
    return writeDocument(path, body);
}

Expected<void>
writeSuiteJson(const std::string &path, const SimConfig &cfg,
               const ExperimentEnv &env,
               const std::vector<RunOutcome> &outcomes)
{
    CampaignSummary sum = summarizeOutcomes(outcomes);
    JsonWriter head;
    head.open();
    head.field("config", cfg.name);
    head.field("instrs", env.instrs);
    head.field("warmup", env.warmup);
    head.object("summary");
    head.field("total", sum.total());
    head.field("ok", sum.ok);
    head.field("retried", sum.retried);
    head.field("failed", sum.failed);
    head.field("timed_out", sum.timedOut);
    head.field("crashed", sum.crashed);
    head.field("resumed", sum.resumed);
    head.field("store_hits", sum.storeHits);
    head.field("store_misses", sum.storeMisses);
    head.close();
    head.key("results");

    std::string body = head.str();
    body += "[\n";
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        JsonWriter w;
        w.open();
        w.field("workload", o.workload);
        w.field("status", o.status);
        w.field("attempts", o.attempts);
        w.field("resumed", o.resumed);
        w.field("from_store", o.fromStore);
        if (o.ok()) {
            hostPerfField(w, o.profile);
            w.rawField("result", o.result.toJson());
        } else {
            fieldObject(w, "error", o.failure->error);
        }
        w.close();
        body += w.str();
        if (i + 1 < outcomes.size())
            body += ',';
        body += '\n';
    }
    body += "]}\n";
    return writeDocument(path, body);
}

} // namespace catchsim
