#include "probes.hh"

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "common/host_clock.hh"
#include "cache/hierarchy.hh"
#include "core/ooo_core.hh"
#include "criticality/ddg.hh"
#include "dram/dram.hh"
#include "sim/fast_forward.hh"
#include "tact/tact.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"

namespace catchbench
{

using namespace catchsim;

namespace
{

/** Keeps replayed results observable so no pass is optimized away. */
volatile uint64_t gSink = 0;

/** Forwards every call to the real detector, logging what it sees. */
class RecordingDetector : public CriticalityDetector
{
  public:
    RecordingDetector(CriticalityDetector &inner,
                      std::vector<RetireInfo> *log)
        : inner_(inner), log_(log)
    {
    }

    void
    onRetire(const RetireInfo &ri) override
    {
        log_->push_back(ri);
        inner_.onRetire(ri);
    }
    CriticalTable &table() override { return inner_.table(); }
    const CriticalTable &table() const override { return inner_.table(); }

  private:
    CriticalityDetector &inner_;
    std::vector<RetireInfo> *log_;
};

/** The components Simulator wires for one single-core run. */
struct Pipeline
{
    CacheHierarchy hierarchy;
    std::unique_ptr<DdgCriticalityDetector> ddg;
    std::unique_ptr<RecordingDetector> detector;
    std::unique_ptr<Tact> tact;
    std::unique_ptr<OooCore> core;

    Pipeline(const SimConfig &cfg, const Trace &trace,
             std::vector<RetireInfo> *log)
        : hierarchy(cfg)
    {
        if (cfg.criticality.enabled) {
            ddg = std::make_unique<DdgCriticalityDetector>(
                cfg.criticality, cfg.robSize, cfg.renameLat,
                cfg.redirectLat, cfg.width);
            detector = std::make_unique<RecordingDetector>(*ddg, log);
            RecordingDetector *d = detector.get();
            hierarchy.setCriticalQuery(
                [d](CoreId, Addr pc) { return d->isCritical(pc); });
        }
        if (cfg.tact.any()) {
            RecordingDetector *d = detector.get();
            tact = std::make_unique<Tact>(
                cfg.tact, 0, hierarchy,
                [d](Addr pc) { return d->isCritical(pc); },
                trace.mem.get());
        }
        core = std::make_unique<OooCore>(cfg, 0, hierarchy, detector.get(),
                                         tact.get());
        core->bind(trace);
    }
};

} // namespace

uint64_t
traceDigest(const std::vector<MicroOp> &ops)
{
    uint64_t h = fnv1a(nullptr, 0);
    auto mix = [&h](uint64_t v) { h = fnv1a(&v, sizeof(v), h); };
    for (const MicroOp &op : ops) {
        mix(op.pc);
        mix(op.memAddr);
        mix(op.value);
        mix(static_cast<uint64_t>(op.cls) |
            static_cast<uint64_t>(static_cast<uint8_t>(op.dst)) << 8 |
            static_cast<uint64_t>(static_cast<uint8_t>(op.src[0])) << 16 |
            static_cast<uint64_t>(static_cast<uint8_t>(op.src[1])) << 24 |
            static_cast<uint64_t>(static_cast<uint8_t>(op.src[2])) << 32 |
            static_cast<uint64_t>(op.taken) << 40);
    }
    return h;
}

Trace
captureTrace(Workload &wl, size_t total_ops, Cost *gen)
{
    Trace trace;
    trace.ops.reserve(total_ops);
    double t = hostSeconds();
    TraceStream stream(wl, total_ops);
    gen->sec += hostSeconds() - t;
    const size_t chunk = stream.chunkOps();
    for (size_t p = 0; p < total_ops; p += chunk) {
        t = hostSeconds();
        stream.ensure(p);
        gen->sec += hostSeconds() - t;
        TraceView v = stream.view();
        for (size_t i = p; i < std::min(total_ops, p + chunk); ++i)
            trace.ops.push_back(v.at(i));
    }
    gen->calls += total_ops;
    trace.mem = stream.mem();
    return trace;
}

Cost
probeMemRead(const Trace &trace)
{
    Cost c;
    uint64_t acc = 0;
    double t = hostSeconds();
    for (const MicroOp &op : trace.ops)
        if (op.isLoad()) {
            acc += trace.mem->read(op.memAddr);
            ++c.calls;
        }
    c.sec = hostSeconds() - t;
    gSink = gSink + acc;
    return c;
}

PipelineProbe
probePipeline(const SimConfig &cfg, const Trace &trace, uint64_t warmup,
              SpanRecorder *rec, const std::string &cell)
{
    PipelineProbe out;
    std::vector<RetireInfo> log;
    if (cfg.criticality.enabled)
        log.reserve(trace.ops.size());
    {
        Pipeline p(cfg, trace, &log);
        out.retiredAt.reserve(trace.ops.size());
        uint64_t reads = 0, writes = 0;
        auto note = [&] {
            const size_t i = out.retiredAt.size();
            const Cycle at = p.core->now();
            out.retiredAt.push_back(at);
            const DramStats &d = p.hierarchy.dramStats();
            if (d.reads == reads && d.writes == writes)
                return;
            const MicroOp &op = trace.ops[i];
            Addr a = op.isLoad() || op.isStore() ? op.memAddr : op.pc;
            for (uint64_t k = 0; reads < d.reads; ++reads, ++k)
                out.dramReads.push_back({a + k * kLineBytes, at});
            for (uint64_t k = 0; writes < d.writes; ++writes, ++k)
                out.dramWrites.push_back({a + k * kLineBytes, at});
        };
        SpanScope span(rec, "core.step", cell);
        double t = hostSeconds();
        while (p.core->instrsDone() < warmup && p.core->step())
            note();
        p.hierarchy.resetStats();
        reads = writes = 0;
        p.core->markMeasurementStart();
        while (p.core->step())
            note();
        out.step.sec = hostSeconds() - t;
        out.step.calls = p.core->instrsDone();
        out.core = p.core->stats();
    }
    if (!log.empty()) {
        SpanScope span(rec, "criticality.on_retire", cell);
        DdgCriticalityDetector ddg(cfg.criticality, cfg.robSize,
                                   cfg.renameLat, cfg.redirectLat,
                                   cfg.width);
        double t = hostSeconds();
        for (const RetireInfo &ri : log)
            ddg.onRetire(ri);
        out.onRetire.sec = hostSeconds() - t;
        out.onRetire.calls = log.size();
        gSink = gSink + ddg.stats().walks;
    }
    return out;
}

CacheProbe
probeCache(const SimConfig &cfg, const Trace &trace,
           const std::vector<Cycle> &at, SpanRecorder *rec,
           const std::string &cell)
{
    CacheProbe out;
    uint64_t acc = 0;
    {
        SpanScope span(rec, "cache.load", cell);
        CacheHierarchy h(cfg);
        double t = hostSeconds();
        for (size_t i = 0; i < trace.ops.size(); ++i) {
            const MicroOp &op = trace.ops[i];
            if (!op.isLoad())
                continue;
            acc += h.load(0, op.pc, op.memAddr, at[i]).latency;
            ++out.load.calls;
        }
        out.load.sec = hostSeconds() - t;
    }
    {
        SpanScope span(rec, "cache.store", cell);
        CacheHierarchy h(cfg);
        double t = hostSeconds();
        for (size_t i = 0; i < trace.ops.size(); ++i) {
            const MicroOp &op = trace.ops[i];
            if (!op.isStore())
                continue;
            h.storeCommit(0, op.memAddr, at[i]);
            ++out.store.calls;
        }
        out.store.sec = hostSeconds() - t;
    }
    {
        SpanScope span(rec, "cache.code_fetch", cell);
        CacheHierarchy h(cfg);
        Addr last = ~Addr(0);
        double t = hostSeconds();
        for (size_t i = 0; i < trace.ops.size(); ++i) {
            const MicroOp &op = trace.ops[i];
            if (op.pc / kLineBytes == last)
                continue;
            last = op.pc / kLineBytes;
            acc += h.codeFetch(0, op.pc, at[i]).latency;
            ++out.code.calls;
        }
        out.code.sec = hostSeconds() - t;
    }
    gSink = gSink + acc;
    return out;
}

DramProbe
probeDram(const SimConfig &cfg, const PipelineProbe &run, SpanRecorder *rec,
          const std::string &cell)
{
    DramProbe out;
    uint64_t acc = 0;
    {
        SpanScope span(rec, "dram.read", cell);
        Dram d(cfg.dram);
        double t = hostSeconds();
        for (auto [addr, at] : run.dramReads)
            acc += d.read(addr, at);
        out.read = Cost{hostSeconds() - t, run.dramReads.size()};
    }
    {
        SpanScope span(rec, "dram.write", cell);
        Dram d(cfg.dram);
        double t = hostSeconds();
        for (auto [addr, at] : run.dramWrites)
            d.write(addr, at);
        out.write = Cost{hostSeconds() - t, run.dramWrites.size()};
        acc += d.stats().writes;
    }
    gSink = gSink + acc;
    return out;
}

Cost
probeWarmAccess(const SimConfig &cfg, const Trace &trace, SpanRecorder *rec,
                const std::string &cell)
{
    using Kind = CacheHierarchy::WarmKind;
    SpanScope span(rec, "cache.warm_access", cell);
    CacheHierarchy h(cfg);
    Cost c;
    Addr last = ~Addr(0);
    double t = hostSeconds();
    for (const MicroOp &op : trace.ops) {
        if (op.pc / kLineBytes != last) {
            last = op.pc / kLineBytes;
            h.warmAccess(0, op.pc, op.pc, 0, Kind::Code);
            ++c.calls;
        }
        if (op.isLoad() || op.isStore()) {
            h.warmAccess(0, op.pc, op.memAddr, 0,
                         op.isLoad() ? Kind::Load : Kind::Store);
            ++c.calls;
        }
    }
    c.sec = hostSeconds() - t;
    gSink = gSink + h.llcStats().fills;
    return c;
}

Cost
probeFastForward(const SimConfig &cfg, const Trace &trace, SpanRecorder *rec,
                 const std::string &cell)
{
    std::vector<RetireInfo> log;
    Pipeline p(cfg, trace, &log);
    FastForward ff(0, p.hierarchy, p.core->frontend().predictor(),
                   p.tact.get());
    ff.bind(trace);
    SpanScope span(rec, "sim.ff_warm", cell);
    double t = hostSeconds();
    size_t end = ff.warm(0, trace.ops.size(), 0);
    Cost c{hostSeconds() - t, end};
    gSink = gSink + end;
    return c;
}

} // namespace catchbench
