#include "sim/worker_proto.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/fault_inject.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

#include <unistd.h>

namespace catchsim
{

namespace
{

uint32_t
decodeLen(const char *p)
{
    return uint32_t(uint8_t(p[0])) | uint32_t(uint8_t(p[1])) << 8 |
           uint32_t(uint8_t(p[2])) << 16 | uint32_t(uint8_t(p[3])) << 24;
}

void
encodeLen(uint32_t len, char *p)
{
    p[0] = char(len & 0xff);
    p[1] = char((len >> 8) & 0xff);
    p[2] = char((len >> 16) & 0xff);
    p[3] = char((len >> 24) & 0xff);
}

} // namespace

Expected<void>
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return simError(ErrorCategory::Internal, "frame payload of ",
                        payload.size(), " bytes exceeds the ",
                        uint64_t(kMaxFrameBytes), "-byte cap");
    std::string msg(4, '\0');
    encodeLen(static_cast<uint32_t>(payload.size()), msg.data());
    msg += payload;
    size_t off = 0;
    while (off < msg.size()) {
        ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return simError(ErrorCategory::IoTransient,
                            "frame write failed (errno ", errno, ")");
        }
        off += static_cast<size_t>(n);
    }
    return {};
}

Expected<std::optional<std::string>>
readFrame(int fd)
{
    // Reads up to @p n bytes, stopping early only at EOF; returns the
    // count read.
    auto read_full = [fd](char *p, size_t n) -> Expected<size_t> {
        size_t off = 0;
        while (off < n) {
            ssize_t got = ::read(fd, p + off, n - off);
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                return simError(ErrorCategory::Crashed,
                                "frame read failed (errno ", errno, ")");
            }
            if (got == 0)
                break;
            off += static_cast<size_t>(got);
        }
        return off;
    };

    char hdr[4];
    auto got = read_full(hdr, 4);
    if (!got.ok())
        return got.error();
    if (got.value() == 0)
        return std::optional<std::string>(); // clean EOF: no more frames
    if (got.value() < 4)
        return simError(ErrorCategory::Crashed,
                        "pipe closed mid-header (", got.value(),
                        " of 4 bytes)");
    uint32_t len = decodeLen(hdr);
    if (len > kMaxFrameBytes)
        return simError(ErrorCategory::Crashed, "frame length ", len,
                        " exceeds the ", uint64_t(kMaxFrameBytes),
                        "-byte cap (corrupt prefix)");
    std::string payload(len, '\0');
    got = read_full(payload.data(), len);
    if (!got.ok())
        return got.error();
    if (got.value() < len)
        return simError(ErrorCategory::Crashed,
                        "pipe closed mid-payload (", got.value(), " of ",
                        len, " bytes)");
    return std::optional<std::string>(std::move(payload));
}

void
FrameDecoder::feed(const char *data, size_t n)
{
    if (!error_.empty())
        return;
    buf_.append(data, n);
}

int
FrameDecoder::next(std::string *out)
{
    if (!error_.empty())
        return -1;
    if (buf_.size() < 4)
        return 0;
    uint32_t len = decodeLen(buf_.data());
    if (len > kMaxFrameBytes) {
        error_ = "frame length " + std::to_string(len) +
                 " exceeds the 64 MB cap (corrupt prefix)";
        return -1;
    }
    if (buf_.size() < size_t(4) + len)
        return 0;
    out->assign(buf_, 4, len);
    buf_.erase(0, size_t(4) + len);
    return 1;
}

std::string
configToJson(const SimConfig &cfg)
{
    JsonWriter w;
    w.open();
    forEachField(cfg, w);
    w.close();
    return w.str();
}

Expected<SimConfig>
configFromJson(const JsonValue &v)
{
    JsonReader r(v, ErrorCategory::Config, "SimConfig JSON");
    SimConfig cfg;
    forEachField(cfg, r);
    if (r.error())
        return *r.error();
    return cfg;
}

uint64_t
configDigest(const SimConfig &cfg)
{
    // The name is a label, not content: a renamed config simulates
    // identically, so its store cells stay valid (sim/result_store.hh).
    JsonWriter w(JsonWriter::Select::Content);
    w.open();
    forEachField(cfg, w);
    w.close();
    return fnv1a(w.str().data(), w.str().size());
}

std::string
buildWorkerRequest(const SimConfig &cfg, const std::string &workload,
                   uint64_t instrs, uint64_t warmup,
                   unsigned attemptBase, const IsolationOptions &opts)
{
    WorkerRequest req{cfg, workload, instrs, warmup, attemptBase, opts};
    JsonWriter w;
    w.open();
    w.field("type", std::string("request"));
    forEachField(req, w);
    w.close();
    return w.str();
}

Expected<WorkerRequest>
parseWorkerRequest(const std::string &json)
{
    auto parsed = parseJson(json);
    if (!parsed.ok())
        return simError(ErrorCategory::Config,
                        "bad worker request: ", parsed.error().message);
    JsonReader r(parsed.value(), ErrorCategory::Config, "worker request");

    std::string type;
    r.field("type", type);
    if (!r.error() && type != "request")
        return simError(ErrorCategory::Config,
                        "worker request has type '", type, "'");
    WorkerRequest req;
    forEachField(req, r);
    if (r.error())
        return *r.error();
    req.attemptBase = std::max(1u, req.attemptBase);
    req.opts.maxAttempts = std::max(1u, req.opts.maxAttempts);
    req.opts.heartbeatMs = std::max(1u, req.opts.heartbeatMs);
    return req;
}

std::string
buildWorkerResult(const RunOutcome &out)
{
    JsonWriter w;
    w.open();
    w.field("type", std::string("result"));
    w.field("workload", out.workload);
    w.field("config", out.config);
    w.field("status", out.status);
    w.field("attempts", out.attempts);
    if (out.ok()) {
        w.rawField("result", out.result.toJson());
        hostPerfField(w, out.profile);
    } else {
        fieldObject(w, "error", out.failure->error);
    }
    w.close();
    return w.str();
}

Expected<RunOutcome>
parseWorkerResult(const std::string &json)
{
    auto parsed = parseJson(json);
    if (!parsed.ok())
        return simError(ErrorCategory::Crashed,
                        "bad worker result: ", parsed.error().message);
    JsonReader r(parsed.value(), ErrorCategory::Crashed, "worker result");

    std::string type;
    r.field("type", type);
    if (!r.error() && type != "result")
        return simError(ErrorCategory::Crashed,
                        "worker sent a '", type,
                        "' frame where a result was expected");
    RunOutcome out;
    r.field("workload", out.workload);
    r.field("config", out.config);
    r.field("status", out.status);
    r.field("attempts", out.attempts);
    out.attempts = std::max(1u, out.attempts);
    if (!r.error() && !out.ok()) {
        SimError failure;
        fieldObject(r, "error", failure);
        if (r.error())
            return *r.error();
        out.failure = RunFailure{std::move(failure), out.attempts};
        return out;
    }
    const JsonValue *res = r.raw("result", JsonValue::Kind::Object);
    hostPerfField(r, out.profile);
    if (r.error())
        return *r.error();
    auto sim = SimResult::fromJson(*res);
    if (!sim.ok())
        return simError(ErrorCategory::Crashed,
                        "worker result payload corrupt: ",
                        sim.error().message);
    out.result = std::move(sim).value();
    return out;
}

bool
isHeartbeatFrame(const std::string &json)
{
    auto parsed = parseJson(json);
    if (!parsed.ok() || !parsed.value().isObject())
        return false;
    const JsonValue *type = parsed.value().member("type");
    return type && type->kind() == JsonValue::Kind::String &&
           type->asString() == "heartbeat";
}

std::string
heartbeatPayload()
{
    JsonWriter w;
    w.open();
    w.field("type", std::string("heartbeat"));
    w.close();
    return w.str();
}

namespace
{

/**
 * Writes heartbeat frames to stdout every @p periodMs — the first at
 * once, telling the supervisor the run has started — until destroyed.
 * The destructor wakes the thread through the condition variable and
 * joins it, so the run's end is not held up by a sleeping beat, and no
 * beat can follow (or interleave with) the result frame written after.
 */
class Heartbeat
{
  public:
    explicit Heartbeat(unsigned periodMs)
        : thread_([this, periodMs] { beat(periodMs); })
    {
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        wake_.notify_one();
        thread_.join();
    }

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

  private:
    void
    beat(unsigned periodMs)
    {
        const std::string frame = heartbeatPayload();
        std::unique_lock<std::mutex> lock(mutex_);
        while (!done_) {
            if (!writeFrame(STDOUT_FILENO, frame).ok())
                return; // supervisor gone; SIGKILL will follow
            wake_.wait_for(lock, std::chrono::milliseconds(periodMs),
                           [this] { return done_; });
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    bool done_ = false;
    std::thread thread_; ///< last: starts after the members it uses
};

/**
 * Reads one request frame from stdin on a helper thread and, once it
 * parses, builds that run's trace there as well (PreparedTrace), so the
 * trace is ready when the run starts. The worker starts the next one as
 * soon as the current run has passed its fault checks: run N+1's read
 * and trace build then overlap run N's simulation. request() waits for
 * the frame only; takeTrace() waits for the whole job.
 */
class RequestAhead
{
  public:
    /** What the frame held: a request, nullopt on a clean EOF at a
     *  frame boundary, or the internal error to fail the run with. */
    using Incoming = Expected<std::optional<WorkerRequest>>;

    explicit RequestAhead(ChunkStore *store)
        : thread_([this, store] { work(store); })
    {
    }

    ~RequestAhead()
    {
        if (thread_.joinable())
            thread_.join();
    }

    RequestAhead(const RequestAhead &) = delete;
    RequestAhead &operator=(const RequestAhead &) = delete;

    /** Waits for the frame; call once. */
    Incoming request() { return incoming_.get_future().get(); }

    /** Waits for the trace; nullopt if the request was unusable or named
     *  no known workload (the run then reports the error itself). */
    std::optional<PreparedTrace>
    takeTrace()
    {
        thread_.join();
        return std::move(trace_);
    }

  private:
    void
    work(ChunkStore *store)
    {
        auto raw = readFrame(STDIN_FILENO);
        if (!raw.ok()) {
            incoming_.set_value(simError(ErrorCategory::Internal,
                                         "worker could not read its "
                                         "request: ",
                                         raw.error().message));
            return;
        }
        if (!raw.value()) {
            incoming_.set_value(std::optional<WorkerRequest>());
            return;
        }
        auto req = parseWorkerRequest(*raw.value());
        if (!req.ok()) {
            incoming_.set_value(simError(ErrorCategory::Internal,
                                         "worker rejected its request: ",
                                         req.error().message));
            return;
        }
        const std::string name = req.value().workload;
        const uint64_t total = req.value().instrs + req.value().warmup;
        const bool profile = req.value().opts.profile;
        incoming_.set_value(std::optional<WorkerRequest>(
            std::move(req).value()));
        try {
            trace_ = PreparedTrace::forWorkload(name, total, store,
                                                profile);
        } catch (...) {
            // Left to the run: it builds the trace itself, and
            // executeContainedRun reports the same exception as that
            // run's own failure.
            trace_.reset();
        }
    }

    std::promise<Incoming> incoming_;
    std::optional<PreparedTrace> trace_;
    std::thread thread_; ///< last: starts after the members it uses
};

/**
 * Process-level fault injection, counted by process attempt: a ':xN'
 * clause crashes the first N dispatches of the run and lets dispatch
 * N+1 through. Checked when each run starts, so a fault aimed at a
 * later run still fires in a worker that has already served others.
 * The plan arrives via the inherited environment.
 */
void
injectProcessFaults(const FaultPlan &plan, const WorkerRequest &r)
{
    if (plan.shouldInject(FaultKind::CrashAbort, r.workload,
                          r.attemptBase))
        std::abort(); // catch-lint: allow(fatal-boundary) injected crash
    if (plan.shouldInject(FaultKind::CrashSegv, r.workload, r.attemptBase))
        raise(SIGSEGV);
    if (plan.shouldInject(FaultKind::Oom, r.workload, r.attemptBase))
        raise(SIGKILL); // the OOM killer's signal, without the memory
    if (plan.shouldInject(FaultKind::HeartbeatStall, r.workload,
                          r.attemptBase)) {
        // Silent forever: no heartbeat thread, no result. Only the
        // supervisor's wall-clock watchdog can end this process.
        for (;;)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

/** Reports a request the worker cannot serve as a failed result;
 *  returns the worker's exit status, 1. */
int
failRequest(const SimError &err)
{
    RunOutcome out;
    out.status = RunStatus::Failed;
    out.failure.emplace(RunFailure{err, 1});
    // Best effort: if stdout is also broken there is nobody to tell,
    // and the supervisor classifies the silent death.
    (void)writeFrame(STDOUT_FILENO, buildWorkerResult(out));
    return 1;
}

} // namespace

int
workerMain()
{
    // A dead supervisor must surface as a write error, not SIGPIPE
    // death: the run result is already lost either way, but an orderly
    // exit keeps worker diagnostics meaningful.
    signal(SIGPIPE, SIG_IGN);

    // Resolved here, before any helper thread starts: the global stores
    // read the environment on first use (env.hh startup contract).
    const FaultPlan &plan = FaultPlan::global();
    ChunkStore *store = ChunkStore::global();
    WarmStateStore *warm_store = WarmStateStore::global();

    auto current = std::make_unique<RequestAhead>(store);
    for (;;) {
        RequestAhead::Incoming in = current->request();
        if (!in.ok())
            return failRequest(in.error());
        if (!in.value())
            return 0; // stdin closed between requests: no more work
        const WorkerRequest r = std::move(*in.value());
        injectProcessFaults(plan, r);

        auto next = std::make_unique<RequestAhead>(store);
        RunOutcome out;
        {
            Heartbeat heartbeat(r.opts.heartbeatMs);
            std::optional<PreparedTrace> trace = current->takeTrace();
            out = executeContainedRun(r.cfg, r.workload, r.instrs,
                                      r.warmup, r.opts, store, warm_store,
                                      trace ? &*trace : nullptr);
        }
        if (!writeFrame(STDOUT_FILENO, buildWorkerResult(out)).ok())
            return 1;
        // Anything but success retires this worker: the supervisor puts
        // a queued request back in its queue, and the next run starts
        // in a clean process. The supervisor also kills the worker
        // then, rather than wait while next's destructor lets an
        // unused trace build finish.
        if (!out.ok())
            return 0;
        current = std::move(next);
    }
}

} // namespace catchsim
