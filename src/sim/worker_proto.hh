/**
 * @file
 * Wire protocol between the campaign supervisor and its worker
 * processes (process-isolated execution, sim/supervisor.hh).
 *
 * Framing: every message is a 4-byte little-endian u32 payload length
 * followed by that many bytes of JSON. Two message types flow worker
 * -> supervisor on the worker's stdout:
 *
 *   {"type":"heartbeat"}                 liveness while a run is in
 *                                        flight; feeds the wall-clock
 *                                        watchdog, carries no data
 *   {"type":"result", ...}               the run's RunOutcome: status,
 *                                        attempts, then "result" (ok) or
 *                                        "error" {category, message},
 *                                        plus optional "hostPerf"
 *
 * and request frames flow supervisor -> worker on the worker's stdin,
 * one per run: the workload name, instruction counts, the full
 * SimConfig (configToJson) and the containment knobs the worker needs
 * (budget, attempt limits, heartbeat period). A worker runs requests
 * one at a time — request, heartbeats, result — until the supervisor
 * closes its stdin; a clean EOF at a frame boundary means "no more
 * work" and the worker exits 0. The supervisor may write the next
 * request before the current result (one queued behind the running
 * run): while a run simulates, a helper thread reads the next frame
 * and builds that run's trace (PreparedTrace, sim/simulator.hh).
 * Results still come back in request order, and after any non-ok
 * result the worker exits without starting the queued run. The worker inherits the supervisor's
 * environment, so env-driven state (CATCH_FAULT_INJECT, the trace chunk
 * store, sampling knobs) needs no explicit plumbing, and process-wide
 * state (stores, RunProfile::peakRssBytes) accumulates over the runs a
 * worker serves, exactly as it does in process.
 *
 * The supervisor parses worker bytes with FrameDecoder, which treats
 * every malformation — garbage length prefix, oversized frame,
 * truncation, stray bytes — as a typed protocol error, never UB: a
 * worker that dies mid-frame or prints garbage to stdout becomes a
 * Crashed RunFailure in its own slot.
 *
 * Every frame field, and SimConfig's through configToJson/configFromJson,
 * is written and read through one field schema (forEachField,
 * common/schema.hh) with exact u64s and %.17g doubles (common/json.hh),
 * so a worker simulates byte-for-byte the config the supervisor holds —
 * the foundation of the cross-mode bitwise-identity guarantee. Reads
 * are strict: a number a field cannot hold exactly is a typed error in
 * the parser's category (config for requests, crashed for results).
 * configDigest() hashes the canonical serialisation; the incremental
 * result store (sim/result_store.hh) keys on it.
 */

#ifndef CATCHSIM_SIM_WORKER_PROTO_HH_
#define CATCHSIM_SIM_WORKER_PROTO_HH_

#include <optional>
#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "common/sim_config.hh"
#include "sim/parallel_runner.hh"

namespace catchsim
{

/** Frames above this are protocol corruption, not data (64 MB). */
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/**
 * Writes one length-prefixed frame to @p fd, restarting on EINTR.
 * A closed peer (EPIPE) or short write is an io-transient error.
 */
Expected<void> writeFrame(int fd, const std::string &payload);

/**
 * Blocking read of one complete frame from @p fd (the worker reading
 * its next request). A clean EOF before the first header byte returns
 * std::nullopt ("no more requests"); EOF inside a frame (a partial
 * header or a short payload) or an oversized length prefix is a
 * crashed-category error.
 */
Expected<std::optional<std::string>> readFrame(int fd);

/**
 * Incremental frame reassembly for the supervisor's poll loop: feed()
 * whatever read() returned, then drain complete frames with next().
 * Any malformation latches error() and next() returns -1 forever.
 */
class FrameDecoder
{
  public:
    /** Appends @p n raw bytes from the pipe. */
    void feed(const char *data, size_t n);

    /**
     * Extracts the next complete frame into @p out.
     * @return 1 frame ready, 0 need more bytes, -1 protocol error.
     */
    int next(std::string *out);

    const std::string &error() const { return error_; }

  private:
    std::string buf_;
    std::string error_;
};

/** One run request, as decoded by the worker. */
struct WorkerRequest
{
    SimConfig cfg;
    std::string workload;
    uint64_t instrs = 0;
    uint64_t warmup = 0;
    /** 1-based process attempt (restart index): drives the attempt
     *  number process-level fault clauses count (':xN'). */
    unsigned attemptBase = 1;
    /** Containment knobs the worker applies in-process; store members
     *  are meaningless across the process boundary and stay unset. heartbeatMs sets the worker's heartbeat period. */
    IsolationOptions opts;
};

/** The request frame's fields after its "type" (common/schema.hh). */
template <FieldsOf<WorkerRequest> R, typename V>
void
forEachField(R &r, V &v)
{
    v.field("workload", r.workload);
    v.field("instrs", r.instrs);
    v.field("warmup", r.warmup);
    v.field("attempt_base", r.attemptBase);
    v.field("max_attempts", r.opts.maxAttempts);
    v.field("backoff_ms", r.opts.backoffMs);
    v.field("profile", r.opts.profile);
    v.field("max_cycles", r.opts.budget.maxCycles);
    v.field("stall_window", r.opts.budget.stallWindowCycles);
    v.field("heartbeat_ms", r.opts.heartbeatMs);
    fieldObject(v, "config", r.cfg);
}

/** Serialises one request frame payload (supervisor side). */
std::string buildWorkerRequest(const SimConfig &cfg,
                               const std::string &workload,
                               uint64_t instrs, uint64_t warmup,
                               unsigned attemptBase,
                               const IsolationOptions &opts);

/** Parses a request payload; config error on any malformation. */
Expected<WorkerRequest> parseWorkerRequest(const std::string &json);

/** Serialises a finished outcome as a result frame payload. */
std::string buildWorkerResult(const RunOutcome &out);

/**
 * Parses a result payload back into a RunOutcome (workload/config are
 * carried in the payload). Crashed-category error on malformation —
 * a worker that garbles its result is indistinguishable from one that
 * crashed writing it.
 */
Expected<RunOutcome> parseWorkerResult(const std::string &json);

/** True iff @p json is a heartbeat frame payload. */
bool isHeartbeatFrame(const std::string &json);

/** A heartbeat frame payload. */
std::string heartbeatPayload();

/**
 * Canonical JSON serialisation of every SimConfig knob, in the schema's
 * field order (common/sim_config.hh), with exact integers and %.17g
 * doubles. Two configs serialise identically iff they simulate
 * identically.
 */
std::string configToJson(const SimConfig &cfg);

/** Parses configToJson output; config error on a missing or
 *  wrong-kind field, or a number or enum value the field cannot hold. */
Expected<SimConfig> configFromJson(const JsonValue &v);

/**
 * FNV-1a of configToJson(cfg) with the Label-tagged name blanked: the
 * config component of a result-store key. Any knob change — geometry,
 * policy, sampling schedule — moves the digest and invalidates cached
 * cells; renaming a config does not, because the name never enters the
 * simulation.
 */
uint64_t configDigest(const SimConfig &cfg);

/**
 * Entry point of the hidden --worker mode: serves request frames from
 * stdin until a clean EOF, answering each with heartbeats on stdout
 * while executing the run via executeContainedRun (the same unit of
 * work the in-process executor uses) and then one result frame. The
 * next request is read, and its trace built, on a helper thread while
 * the current run simulates; process-level fault checks and config
 * validation still happen when that run starts. Returns 0 on a clean
 * EOF or after a non-ok result (the queued request, if any, is left
 * to the supervisor), 1 when a request cannot be read or parsed or
 * stdout breaks. Never touches the result store —
 * persistence is the supervisor's job, so a SIGKILLed worker cannot
 * leave half-written campaign state behind.
 */
int workerMain();

} // namespace catchsim

#endif // CATCHSIM_SIM_WORKER_PROTO_HH_
