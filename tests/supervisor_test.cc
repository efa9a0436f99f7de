/**
 * @file
 * Tests for process-isolated campaign execution (sim/supervisor.hh)
 * and its wire protocol (sim/worker_proto.hh): supervised campaigns
 * are bitwise-identical to in-process ones at any worker count,
 * injected worker crashes/hangs/exec failures become typed Crashed
 * outcomes in their own slots, bounded restarts recover transient
 * crashes, and the frame decoder survives fuzzing (truncated frames,
 * garbage length prefixes, malformed payloads). A worker builds its
 * queued run's trace while the running one simulates; the tests pin
 * that a queued run is never charged for its neighbour's failure and
 * that a prepared trace simulates bitwise like one built in the run.
 *
 * This binary doubles as its own worker executable: main() dispatches
 * --worker to workerMain() before gtest initialises, exactly like the
 * real CLI, so the supervisor's default /proc/self/exe re-exec works
 * under test. Crash faults reach the forked workers through the
 * inherited CATCH_FAULT_INJECT environment; the parent always passes
 * an explicit (empty) plan so its own behaviour stays deterministic.
 *
 * ASan note: sanitizers intercept deadly signals and turn them into
 * reports + nonzero exits, so these tests assert the outcome *category*
 * (Crashed / HeartbeatTimeout / ExecFail), never the message text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/fault_inject.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim/simulator.hh"
#include "sim/supervisor.hh"
#include "sim/worker_proto.hh"
#include "sim_result_compare.hh"
#include "trace/suite.hh"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

const FaultPlan kNoFaults;

/** Set to 1 in a worker's environment, it makes this binary's --worker
 *  mode run diesIfQueuedWorker instead of workerMain. */
constexpr char kDiesIfQueuedEnv[] = "CATCH_TEST_WORKER_DIES_IF_QUEUED";

/** Scoped CATCH_FAULT_INJECT for the workers this test forks. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        EXPECT_EQ(setenv(name, value, 1), 0);
    }
    ~EnvGuard() { unsetenv(name_); }
    const char *name_;
};

IsolationOptions
fastOpts()
{
    IsolationOptions opts;
    opts.plan = &kNoFaults; // parent-side injection off by default
    opts.backoffMs = 0;
    opts.heartbeatMs = 50;
    opts.heartbeatTimeoutMs = 30000;
    return opts;
}

FaultPlan
mustParse(const std::string &spec)
{
    auto p = FaultPlan::parse(spec);
    EXPECT_TRUE(p.ok()) << spec;
    return p.ok() ? std::move(p).value() : FaultPlan{};
}

// ------------------------- wire protocol -------------------------

TEST(WorkerProto, FramesRoundTripThroughAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"type\":\"heartbeat\"}";
    ASSERT_TRUE(writeFrame(fds[1], payload).ok());
    ASSERT_TRUE(writeFrame(fds[1], payload).ok());
    ::close(fds[1]);
    for (int i = 0; i < 2; ++i) {
        auto got = readFrame(fds[0]);
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(got.value().has_value());
        EXPECT_EQ(*got.value(), payload);
        EXPECT_TRUE(isHeartbeatFrame(*got.value()));
    }
    // EOF at a frame boundary is the "no more requests" signal a
    // persistent worker exits on, not an error.
    auto eof = readFrame(fds[0]);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof.value().has_value());
    ::close(fds[0]);
}

/** readFrame over a pipe holding exactly @p wire, then EOF. */
Expected<std::optional<std::string>>
readFrameFrom(const std::string &wire)
{
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    EXPECT_EQ(::write(fds[1], wire.data(), wire.size()),
              ssize_t(wire.size()));
    ::close(fds[1]);
    auto got = readFrame(fds[0]);
    ::close(fds[0]);
    return got;
}

TEST(WorkerProto, ReadFrameTellsCleanEofFromTruncation)
{
    // 0 bytes: a clean EOF at a frame boundary.
    auto clean = readFrameFrom("");
    ASSERT_TRUE(clean.ok());
    EXPECT_FALSE(clean.value().has_value());

    // 1-3 header bytes: truncated inside the length prefix.
    for (size_t n = 1; n <= 3; ++n) {
        auto cut = readFrameFrom(std::string(n, '\x05'));
        ASSERT_FALSE(cut.ok()) << n << " header bytes";
        EXPECT_EQ(cut.error().category, ErrorCategory::Crashed);
    }

    // A full header promising more payload than arrives.
    const std::string payload = heartbeatPayload();
    std::string wire(4, '\0');
    wire[0] = char(payload.size());
    wire += payload.substr(0, payload.size() / 2);
    auto short_payload = readFrameFrom(wire);
    ASSERT_FALSE(short_payload.ok());
    EXPECT_EQ(short_payload.error().category, ErrorCategory::Crashed);

    // A zero-length frame is a frame, not EOF.
    auto empty = readFrameFrom(std::string(4, '\0'));
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE(empty.value().has_value());
    EXPECT_TRUE(empty.value()->empty());
}

TEST(WorkerProto, DecoderReassemblesByteByByte)
{
    const std::string payload = heartbeatPayload();
    std::string wire(4, '\0');
    wire[0] = char(payload.size()); // fits in one byte
    wire += payload;
    wire += wire; // two frames back to back

    FrameDecoder d;
    std::vector<std::string> frames;
    for (char c : wire) {
        d.feed(&c, 1);
        std::string out;
        while (d.next(&out) == 1)
            frames.push_back(out);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], payload);
    EXPECT_EQ(frames[1], payload);
    EXPECT_TRUE(d.error().empty());
}

TEST(WorkerProto, DecoderFuzzTruncationAndGarbage)
{
    // A truncated frame is "need more bytes", never an error or a
    // phantom frame.
    {
        FrameDecoder d;
        const std::string payload = heartbeatPayload();
        std::string wire(4, '\0');
        wire[0] = char(payload.size());
        wire += payload.substr(0, payload.size() - 3);
        d.feed(wire.data(), wire.size());
        std::string out;
        EXPECT_EQ(d.next(&out), 0);
        EXPECT_TRUE(d.error().empty());
    }
    // A garbage length prefix (e.g. a worker printing text to stdout)
    // latches a protocol error immediately and forever.
    {
        FrameDecoder d;
        const char noise[] = "Segmentation fault (core dumped)\n";
        d.feed(noise, sizeof(noise) - 1);
        std::string out;
        EXPECT_EQ(d.next(&out), -1);
        EXPECT_FALSE(d.error().empty());
        d.feed(noise, sizeof(noise) - 1); // ignored once latched
        EXPECT_EQ(d.next(&out), -1);
    }
    // An oversized-but-plausible length prefix is corruption too.
    {
        FrameDecoder d;
        char hdr[4] = {0, 0, 0, 0x7f}; // ~2 GB
        d.feed(hdr, 4);
        std::string out;
        EXPECT_EQ(d.next(&out), -1);
    }
}

TEST(WorkerProto, ResultParserRejectsMalformedPayloads)
{
    for (const char *bad :
         {"", "not json", "{\"type\":\"result\"}", "[1,2,3]",
          "{\"type\":\"request\"}",
          "{\"type\":\"result\",\"workload\":\"w\",\"config\":\"c\","
          "\"status\":\"ok\",\"attempts\":1}"}) {
        auto out = parseWorkerResult(bad);
        ASSERT_FALSE(out.ok()) << bad;
        EXPECT_EQ(out.error().category, ErrorCategory::Crashed) << bad;
    }
}

/** @p json with the value of its first member @p key replaced. */
std::string
withMember(std::string json, const std::string &key,
           const std::string &value)
{
    size_t at = json.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return json;
    at += key.size() + 3;
    return json.replace(at, json.find_first_of(",}", at) - at, value);
}

TEST(WorkerProto, ParsersRejectInexactNumbers)
{
    // Every one of these is well-formed JSON that no field can hold
    // exactly: past the field's range, negative, fractional, in
    // exponent form, past 2^64-1, or not finite. Each must be a typed
    // error in the parser's category, never a coerced value.
    const std::vector<std::pair<const char *, const char *>> bad = {
        {"rob_size", "4294967520"}, {"seed", "1e3"},
        {"seed", "99999999999999999999999"}, {"rob_size", "-1"},
        {"width", "2.5"}, {"inclusion", "3"}, {"walk_factor", "1e999"},
        {"has_l2", "1"}, {"mode", "-0"}};
    const std::string cfg_json = configToJson(baselineSkx());
    const std::string request =
        buildWorkerRequest(baselineSkx(), "mcf", kInstr, kWarm, 1,
                           IsolationOptions{});
    for (const auto &[key, value] : bad) {
        auto doc = parseJson(withMember(cfg_json, key, value));
        ASSERT_TRUE(doc.ok()) << key << "=" << value;
        auto cfg = configFromJson(doc.value());
        ASSERT_FALSE(cfg.ok()) << key << "=" << value;
        EXPECT_EQ(cfg.error().category, ErrorCategory::Config);

        auto req = parseWorkerRequest(withMember(request, key, value));
        ASSERT_FALSE(req.ok()) << key << "=" << value;
        EXPECT_EQ(req.error().category, ErrorCategory::Config);
    }
    for (const char *value : {"1e3", "-1", "4294967296"}) {
        auto req = parseWorkerRequest(
            withMember(request, "heartbeat_ms", value));
        ASSERT_FALSE(req.ok()) << value;
        EXPECT_EQ(req.error().category, ErrorCategory::Config);
    }

    RunOutcome ok;
    ok.workload = "mcf";
    ok.config = "c";
    const std::string result = buildWorkerResult(ok);
    for (auto [key, value] :
         {std::pair{"attempts", "-1"}, std::pair{"attempts", "1e3"},
          std::pair{"cycles", "0.5"},
          std::pair{"active_critical_pcs", "4294967296"}}) {
        auto out = parseWorkerResult(withMember(result, key, value));
        ASSERT_FALSE(out.ok()) << key << "=" << value;
        EXPECT_EQ(out.error().category, ErrorCategory::Crashed);
    }
}

TEST(WorkerProto, ConfigJsonRoundTripsCanonically)
{
    SimConfig cfg = withCatch(baselineSkx());
    cfg.oracle.latAddLlc = 7;
    std::string json = configToJson(cfg);
    auto parsed = parseJson(json);
    ASSERT_TRUE(parsed.ok());
    auto back = configFromJson(parsed.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(configToJson(back.value()), json)
        << "round-trip must be canonical for the digest to be stable";
    EXPECT_EQ(configDigest(back.value()), configDigest(cfg));
}

TEST(WorkerProto, RequestRoundTripCarriesTheKnobs)
{
    SimConfig cfg = baselineSkx();
    IsolationOptions opts;
    opts.maxAttempts = 5;
    opts.budget.maxCycles = 123456;
    opts.heartbeatMs = 77;
    std::string payload =
        buildWorkerRequest(cfg, "mcf", kInstr, kWarm, 3, opts);
    auto req = parseWorkerRequest(payload);
    ASSERT_TRUE(req.ok()) << req.error().message;
    EXPECT_EQ(req.value().workload, "mcf");
    EXPECT_EQ(req.value().instrs, kInstr);
    EXPECT_EQ(req.value().warmup, kWarm);
    EXPECT_EQ(req.value().attemptBase, 3u);
    EXPECT_EQ(req.value().opts.maxAttempts, 5u);
    EXPECT_EQ(req.value().opts.budget.maxCycles, 123456u);
    EXPECT_EQ(req.value().opts.heartbeatMs, 77u);
    EXPECT_EQ(configToJson(req.value().cfg), configToJson(cfg));

    auto bad = parseWorkerRequest("{\"type\":\"request\"}");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().category, ErrorCategory::Config);
}

/**
 * Serves @p names with a worker of this binary, writing every request
 * frame before reading any result, then closing its stdin. Returns the
 * result frames in arrival order; @p exit_code gets the worker's exit
 * status.
 */
std::vector<RunOutcome>
serveAllAtOnce(const SimConfig &cfg, const std::vector<std::string> &names,
               int *exit_code)
{
    std::vector<RunOutcome> results;
    int to_worker[2];
    int from_worker[2];
    EXPECT_EQ(::pipe(to_worker), 0);
    EXPECT_EQ(::pipe(from_worker), 0);
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        ::dup2(to_worker[0], STDIN_FILENO);
        ::dup2(from_worker[1], STDOUT_FILENO);
        for (int fd : {to_worker[0], to_worker[1], from_worker[0],
                       from_worker[1]})
            ::close(fd);
        char self[] = "/proc/self/exe";
        char flag[] = "--worker";
        char *argv[] = {self, flag, nullptr};
        ::execv(self, argv);
        ::_exit(127);
    }
    ::close(to_worker[0]);
    ::close(from_worker[1]);
    for (const std::string &name : names)
        EXPECT_TRUE(writeFrame(to_worker[1],
                               buildWorkerRequest(cfg, name, kInstr, kWarm,
                                                  1, fastOpts()))
                        .ok());
    ::close(to_worker[1]);

    for (;;) {
        auto frame = readFrame(from_worker[0]);
        EXPECT_TRUE(frame.ok());
        if (!frame.ok() || !frame.value())
            break;
        if (isHeartbeatFrame(*frame.value()))
            continue;
        auto res = parseWorkerResult(*frame.value());
        EXPECT_TRUE(res.ok());
        if (res.ok())
            results.push_back(std::move(res).value());
    }
    ::close(from_worker[0]);
    int wstatus = 0;
    EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
    *exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    return results;
}

TEST(WorkerProto, TwoRequestsWrittenAheadComeBackInOrder)
{
    // The supervisor may queue a second request before the first
    // result: both are answered, in request order, and the worker
    // exits 0 at the EOF that follows.
    const std::vector<std::string> names = {"omnetpp", "mcf"};
    SimConfig cfg = withCatch(baselineSkx());
    int code = -1;
    auto results = serveAllAtOnce(cfg, names, &code);
    EXPECT_EQ(code, 0);

    auto inproc = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    ASSERT_EQ(results.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(results[i].workload, names[i]);
        ASSERT_TRUE(results[i].ok()) << names[i];
        expectBitwiseEqual(inproc[i].result, results[i].result);
    }
}

TEST(WorkerProto, FailedRunEndsTheWorkerBeforeItsQueuedRequest)
{
    // After a non-ok result the worker exits 0 without starting the
    // request queued behind it: the supervisor has put that run back
    // in its queue, for a fresh worker.
    int code = -1;
    auto results = serveAllAtOnce(baselineSkx(),
                                  {"no-such-workload", "mcf"}, &code);
    EXPECT_EQ(code, 0);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].workload, "no-such-workload");
    EXPECT_EQ(results[0].status, RunStatus::Failed);
}

// ------------------------ prepared traces ------------------------

/** Runs @p name on @p cfg twice, once on a trace built ahead on
 *  another thread; both results must serialise identically. */
void
expectPreparedMatchesBuilt(const SimConfig &cfg, const std::string &name,
                           uint64_t instrs, uint64_t warmup)
{
    Simulator sim(cfg);
    auto wl = makeWorkload(name);
    auto built = sim.runGuarded(*wl, instrs, warmup, RunBudget::unlimited());
    ASSERT_TRUE(built.ok()) << name;

    std::optional<PreparedTrace> trace;
    std::thread helper([&] {
        trace = PreparedTrace::forWorkload(name, instrs + warmup,
                                           ChunkStore::global(), true);
    });
    helper.join();
    ASSERT_TRUE(trace.has_value()) << name;
    RunProfile prof;
    auto ahead = sim.runGuarded(*trace, instrs, warmup,
                                RunBudget::unlimited(), &prof);
    ASSERT_TRUE(ahead.ok()) << name;
    EXPECT_EQ(built.value().toJson(), ahead.value().toJson())
        << cfg.name << " " << name;
    EXPECT_GT(prof.traceGenSec, 0.0) << "the trace built ahead counts";
}

TEST(PreparedTrace, MatchesBuildingTheTraceInTheRun)
{
    // The worker builds a queued run's trace on another thread before
    // the run starts; the run must not be able to tell. Every quick
    // entry, both hierarchy shapes, detailed and sampled.
    auto sampled = [](SimConfig c) {
        c.sampling.mode = SampleMode::Sampled;
        c.sampling.intervalInstrs = 5000;
        return c;
    };
    const SimConfig skx = baselineSkx();
    const SimConfig no_l2 = withCatch(noL2(baselineSkx(), 9728));
    for (const SimConfig &cfg : {skx, no_l2, sampled(skx), sampled(no_l2)})
        for (const std::string &name : stQuickNames())
            expectPreparedMatchesBuilt(cfg, name, kInstr, kWarm);
    // Past the primed ring: the run refills the prepared stream itself.
    expectPreparedMatchesBuilt(no_l2, "mcf", 200000, kWarm);

    EXPECT_FALSE(PreparedTrace::forWorkload("no-such-workload", 1,
                                            ChunkStore::global(), false)
                     .has_value());
}

// --------------------- supervised execution ----------------------

/** The core guarantee: only the transport differs between modes. */
TEST(Supervisor, SupervisedMatchesInProcessBitwise)
{
    const std::vector<std::string> names = {"mcf", "hmmer", "omnetpp"};
    SimConfig cfg = withCatch(baselineSkx());
    auto inproc = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    auto solo = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    auto wide = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 4,
                                       fastOpts());
    ASSERT_EQ(solo.size(), names.size());
    ASSERT_EQ(wide.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(inproc[i].ok()) << names[i];
        ASSERT_TRUE(solo[i].ok())
            << names[i] << ": "
            << (solo[i].failure ? solo[i].failure->error.message : "");
        ASSERT_TRUE(wide[i].ok()) << names[i];
        EXPECT_EQ(solo[i].workload, names[i]) << "order not stable";
        EXPECT_EQ(solo[i].status, RunStatus::Ok);
        expectBitwiseEqual(inproc[i].result, solo[i].result);
        expectBitwiseEqual(inproc[i].result, wide[i].result);
    }
}

TEST(Supervisor, CrashedWorkerIsContainedToItsSlot)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-segv:mcf");
    const std::vector<std::string> names = {"mcf", "hmmer"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 2;
    auto out = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 2,
                                      opts);
    ASSERT_EQ(out.size(), 2u);

    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Crashed);
    EXPECT_EQ(out[0].attempts, 2u) << "crashes retry to maxAttempts";

    // The surviving slot is untouched by its neighbour's death.
    ASSERT_TRUE(out[1].ok());
    auto clean = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(clean[0].ok());
    expectBitwiseEqual(clean[0].result, out[1].result);

    CampaignSummary sum = summarizeOutcomes(out);
    EXPECT_EQ(sum.crashed, 1u);
    EXPECT_FALSE(sum.allOk());
}

TEST(Supervisor, BoundedRestartRecoversATransientCrash)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-abort:mcf:x1");
    SimConfig cfg = baselineSkx();
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      fastOpts());
    ASSERT_TRUE(out[0].ok())
        << (out[0].failure ? out[0].failure->error.message : "");
    EXPECT_EQ(out[0].status, RunStatus::Retried)
        << "a restart that succeeds reports as Retried";
    EXPECT_EQ(out[0].attempts, 2u);

    auto clean = runWorkloadsIsolated(cfg, {"mcf"}, kInstr, kWarm, 1);
    ASSERT_TRUE(clean[0].ok());
    expectBitwiseEqual(clean[0].result, out[0].result);
}

TEST(Supervisor, OomKilledWorkerIsTypedCrashed)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "oom:mcf");
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 1;
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      opts);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Crashed);
}

TEST(Supervisor, ExecFailureIsTypedAndRetried)
{
    FaultPlan plan = mustParse("exec-fail:mcf");
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.plan = &plan; // exec-fail injects supervisor-side
    opts.maxAttempts = 2;
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      opts);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::ExecFail);
    EXPECT_EQ(out[0].attempts, 2u);

    // A bounded clause lets the restart through.
    FaultPlan once = mustParse("exec-fail:mcf:x1");
    opts.plan = &once;
    auto recovered = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm,
                                            1, opts);
    ASSERT_TRUE(recovered[0].ok());
    EXPECT_EQ(recovered[0].status, RunStatus::Retried);
}

TEST(Supervisor, HeartbeatSilenceTripsTheWallClockWatchdog)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "heartbeat-stall:mcf");
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.heartbeatTimeoutMs = 1000;
    auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                      opts);
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Crashed);
    EXPECT_EQ(out[0].failure->error.category,
              ErrorCategory::HeartbeatTimeout);
    EXPECT_EQ(out[0].attempts, 1u)
        << "hangs are never restarted: the budget is already spent";
}

TEST(Supervisor, ForeignWorkerBinariesAreClassifiedNotTrusted)
{
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 1;

    // Prints "--worker" — a garbage length prefix on the wire.
    opts.workerBin = "/bin/echo";
    auto noisy = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                        opts);
    ASSERT_FALSE(noisy[0].ok());
    EXPECT_EQ(noisy[0].status, RunStatus::Crashed);
    EXPECT_EQ(noisy[0].failure->error.category, ErrorCategory::Crashed);

    // Exits nonzero without a result frame.
    opts.workerBin = "/bin/false";
    auto silent = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                         opts);
    ASSERT_FALSE(silent[0].ok());
    EXPECT_EQ(silent[0].status, RunStatus::Crashed);
    EXPECT_EQ(silent[0].failure->error.category, ErrorCategory::Crashed);

    // Cannot exec at all: the reserved exit-127 signature.
    opts.workerBin = "/nonexistent/no-such-binary";
    auto missing = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm,
                                          1, opts);
    ASSERT_FALSE(missing[0].ok());
    EXPECT_EQ(missing[0].status, RunStatus::Crashed);
    EXPECT_EQ(missing[0].failure->error.category,
              ErrorCategory::ExecFail);
}

TEST(Supervisor, UnknownWorkloadFailsInItsSlot)
{
    // The worker executes executeContainedRun, so an unknown name is a
    // contained config failure — same contract as the in-process path.
    SimConfig cfg = baselineSkx();
    auto out = runWorkloadsSupervised(cfg, {"no-such-workload"}, kInstr,
                                      kWarm, 1, fastOpts());
    ASSERT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Failed);
    EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Config);
}

TEST(Supervisor, DegenerateConfigFromTheFrameFailsInItsSlot)
{
    // The config reaches the worker as frame JSON; a zero-port class
    // (whose issue calendar would never find a slot) or a zero refresh
    // interval must come back as a contained config failure, not a
    // worker that spins until the heartbeat watchdog kills it.
    SimConfig zero_ports = baselineSkx();
    zero_ports.loadPorts = 0;
    SimConfig zero_refi = baselineSkx();
    zero_refi.dram.tRefi = 0;
    for (const SimConfig &cfg : {zero_ports, zero_refi}) {
        const uint64_t spawned = workerSpawnCount();
        auto out = runWorkloadsSupervised(cfg, {"mcf"}, kInstr, kWarm, 1,
                                          fastOpts());
        EXPECT_EQ(workerSpawnCount() - spawned, 1u);
        ASSERT_FALSE(out[0].ok());
        EXPECT_EQ(out[0].status, RunStatus::Failed);
        EXPECT_EQ(out[0].failure->error.category, ErrorCategory::Config);
    }
}

// ---------------------- persistent workers -----------------------

/** Worker processes forked while @p body runs. */
template <typename Body>
uint64_t
spawnsDuring(Body &&body)
{
    const uint64_t before = workerSpawnCount();
    body();
    return workerSpawnCount() - before;
}

TEST(Supervisor, OneWorkerPerSlotNotPerRun)
{
    const std::vector<std::string> names = {"mcf",   "hmmer", "omnetpp",
                                            "gobmk", "astar", "sjeng"};
    SimConfig cfg = baselineSkx();
    std::vector<RunOutcome> out;
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               2, fastOpts());
              }),
              2u);
    // Every worker was reaped before the call returned.
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
    auto inproc = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << names[i];
        EXPECT_EQ(out[i].status, RunStatus::Ok);
        expectBitwiseEqual(inproc[i].result, out[i].result);
    }

    // A crash retires its worker; the restart gets a fresh one.
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-abort:omnetpp:x1");
    std::vector<RunOutcome> retried;
    EXPECT_EQ(spawnsDuring([&] {
                  retried = runWorkloadsSupervised(cfg, names, kInstr,
                                                   kWarm, 2, fastOpts());
              }),
              3u);
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(retried[i].ok()) << names[i];
        EXPECT_EQ(retried[i].status, names[i] == "omnetpp"
                                         ? RunStatus::Retried
                                         : RunStatus::Ok);
        expectBitwiseEqual(inproc[i].result, retried[i].result);
    }
}

TEST(Supervisor, CrashMidQueueKeepsEarlierAndLaterRuns)
{
    // Equal cost estimates dispatch in reverse order at jobs=1:
    // omnetpp, then mcf, then hmmer — so mcf crashes in a worker that
    // already returned a run, and hmmer runs after the crash.
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-segv:mcf");
    const std::vector<std::string> names = {"hmmer", "mcf", "omnetpp"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 2;
    auto out = runWorkloadsSupervised(cfg, names, kInstr, kWarm, 1, opts);
    ASSERT_EQ(out.size(), 3u);

    ASSERT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].status, RunStatus::Crashed);
    EXPECT_EQ(out[1].failure->error.category, ErrorCategory::Crashed);
    EXPECT_EQ(out[1].attempts, opts.maxAttempts);

    auto clean = runWorkloadsIsolated(cfg, {"hmmer", "omnetpp"}, kInstr,
                                      kWarm, 1);
    for (size_t i : {size_t(0), size_t(2)}) {
        ASSERT_TRUE(out[i].ok()) << names[i];
        EXPECT_EQ(out[i].status, RunStatus::Ok);
    }
    expectBitwiseEqual(clean[0].result, out[0].result);
    expectBitwiseEqual(clean[1].result, out[2].result);
}

TEST(Supervisor, FailedRunRetiresItsWorker)
{
    // The unknown name dispatches first (equal estimates, reverse
    // order); its in-band failure retires the worker, so mcf runs in a
    // second, fresh process.
    const std::vector<std::string> names = {"mcf", "no-such-workload"};
    SimConfig cfg = baselineSkx();
    std::vector<RunOutcome> out;
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, fastOpts());
              }),
              2u);
    ASSERT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].status, RunStatus::Failed);
    EXPECT_EQ(out[1].failure->error.category, ErrorCategory::Config);
    ASSERT_TRUE(out[0].ok());
    auto clean = runWorkloadsIsolated(cfg, {"mcf"}, kInstr, kWarm, 1);
    expectBitwiseEqual(clean[0].result, out[0].result);
}

TEST(Supervisor, ExecFailureFiresOnALaterDispatch)
{
    // mcf is the second run dispatched at jobs=1. Its injected exec
    // failure must still fire: the dispatch goes to a fresh spawn,
    // never to the worker that served omnetpp.
    FaultPlan plan = mustParse("exec-fail:mcf");
    const std::vector<std::string> names = {"hmmer", "mcf", "omnetpp"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.plan = &plan;
    opts.maxAttempts = 2;
    std::vector<RunOutcome> out;
    // omnetpp's worker, two exec-fail spawns for mcf, hmmer's worker.
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, opts);
              }),
              4u);
    ASSERT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].status, RunStatus::Crashed);
    EXPECT_EQ(out[1].failure->error.category, ErrorCategory::ExecFail);
    EXPECT_EQ(out[1].attempts, 2u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[2].ok());
}

// ------------------------- queued runs --------------------------
//
// At jobs=1 with equal cost estimates the last name dispatches first,
// and the name before it is queued behind it at once, when the worker
// is spawned.

TEST(Supervisor, CrashChargesOnlyTheRunningRunNotTheQueuedOne)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "crash-abort:mcf");
    const std::vector<std::string> names = {"hmmer", "mcf"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 2;
    std::vector<RunOutcome> out;
    // mcf with hmmer queued, mcf's restart alone, then hmmer.
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, opts);
              }),
              3u);
    ASSERT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].status, RunStatus::Crashed);
    EXPECT_EQ(out[1].failure->error.category, ErrorCategory::Crashed);
    EXPECT_EQ(out[1].attempts, 2u);

    ASSERT_TRUE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Ok);
    EXPECT_EQ(out[0].attempts, 1u) << "the queued run was not charged";
    auto clean = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    expectBitwiseEqual(clean[0].result, out[0].result);
}

TEST(Supervisor, HeartbeatStallChargesOnlyTheRunningRun)
{
    EnvGuard fault("CATCH_FAULT_INJECT", "heartbeat-stall:mcf");
    const std::vector<std::string> names = {"hmmer", "mcf"};
    SimConfig cfg = baselineSkx();
    IsolationOptions opts = fastOpts();
    opts.heartbeatTimeoutMs = 1000;
    std::vector<RunOutcome> out;
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, opts);
              }),
              2u);
    ASSERT_FALSE(out[1].ok());
    EXPECT_EQ(out[1].status, RunStatus::Crashed);
    EXPECT_EQ(out[1].failure->error.category,
              ErrorCategory::HeartbeatTimeout);
    EXPECT_EQ(out[1].attempts, 1u);

    ASSERT_TRUE(out[0].ok());
    EXPECT_EQ(out[0].status, RunStatus::Ok);
    EXPECT_EQ(out[0].attempts, 1u);
    auto clean = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    expectBitwiseEqual(clean[0].result, out[0].result);
}

TEST(Supervisor, InBandFailureSendsTheQueuedRunToAFreshWorker)
{
    // omnetpp fails in band with mcf queued: its worker exits without
    // starting mcf, and mcf, then hmmer queued behind it, run in one
    // fresh worker.
    EnvGuard fault("CATCH_FAULT_INJECT", "trace-corrupt:omnetpp");
    const std::vector<std::string> names = {"hmmer", "mcf", "omnetpp"};
    SimConfig cfg = baselineSkx();
    std::vector<RunOutcome> out;
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, fastOpts());
              }),
              2u);
    ASSERT_FALSE(out[2].ok());
    EXPECT_EQ(out[2].status, RunStatus::Failed);
    EXPECT_EQ(out[2].failure->error.category, ErrorCategory::TraceCorrupt);

    auto clean = runWorkloadsIsolated(cfg, {"hmmer", "mcf"}, kInstr,
                                      kWarm, 1, fastOpts());
    for (size_t i : {size_t(0), size_t(1)}) {
        ASSERT_TRUE(out[i].ok()) << names[i];
        EXPECT_EQ(out[i].status, RunStatus::Ok);
        EXPECT_EQ(out[i].attempts, 1u);
        expectBitwiseEqual(clean[i].result, out[i].result);
    }
}

TEST(Supervisor, FreeSlotsStartRunsInsteadOfQueueingThem)
{
    // A run is queued only when no free slot could start it: three runs
    // at jobs=4 get three workers, and at jobs=2 the third run waits
    // behind one of two.
    const std::vector<std::string> names = {"mcf", "hmmer", "omnetpp"};
    SimConfig cfg = baselineSkx();
    auto inproc = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                       fastOpts());
    for (unsigned jobs : {4u, 2u}) {
        std::vector<RunOutcome> out;
        EXPECT_EQ(spawnsDuring([&] {
                      out = runWorkloadsSupervised(cfg, names, kInstr,
                                                   kWarm, jobs, fastOpts());
                  }),
                  std::min<uint64_t>(jobs, names.size()))
            << "jobs=" << jobs;
        for (size_t i = 0; i < names.size(); ++i) {
            ASSERT_TRUE(out[i].ok()) << names[i];
            EXPECT_EQ(out[i].status, RunStatus::Ok);
            expectBitwiseEqual(inproc[i].result, out[i].result);
        }
    }
}

TEST(Supervisor, ADeathWithARunQueuedNeverEndsTheRunningRunsLastAttempt)
{
    // The stand-in worker dies whenever a request is queued behind its
    // running run, as a worker would that crashed while preparing the
    // queued run. The death is charged to the running run, so with a
    // single attempt nothing is queued: every run succeeds in one
    // worker.
    EnvGuard dies(kDiesIfQueuedEnv, "1");
    const std::vector<std::string> names = {"hmmer", "mcf", "omnetpp"};
    SimConfig cfg = baselineSkx();
    auto clean = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                      fastOpts());
    IsolationOptions opts = fastOpts();
    opts.maxAttempts = 1;
    std::vector<RunOutcome> out;
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, opts);
              }),
              1u);
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << names[i];
        EXPECT_EQ(out[i].status, RunStatus::Ok);
        EXPECT_EQ(out[i].attempts, 1u);
        expectBitwiseEqual(clean[i].result, out[i].result);
    }

    // With a restart left, runs are queued. omnetpp and then mcf each
    // die with the next run queued, are charged, and restart alone, so
    // they end Retried, never Crashed; hmmer runs last, with nothing
    // queued behind it. Three workers: omnetpp's (with mcf queued),
    // omnetpp's restart (which then runs mcf, with hmmer queued), and
    // mcf's restart (which then runs hmmer).
    opts.maxAttempts = 2;
    EXPECT_EQ(spawnsDuring([&] {
                  out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                               1, opts);
              }),
              3u);
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << names[i];
        const bool last = names[i] == "hmmer";
        EXPECT_EQ(out[i].status, last ? RunStatus::Ok : RunStatus::Retried)
            << names[i];
        EXPECT_EQ(out[i].attempts, last ? 1u : 2u) << names[i];
        expectBitwiseEqual(clean[i].result, out[i].result);
    }
}

/**
 * The --worker mode main() runs when kDiesIfQueuedEnv is set: a stand-in
 * for workerMain that serves each request in turn and aborts if another
 * request arrives before it has written the current run's result, that
 * is, if the supervisor queued one. It models the worst case of a
 * worker dying while it prepares a queued run, which the real worker
 * cannot be made to do on demand. It sends no heartbeats, so runs must
 * stay well inside the watchdog's budget.
 */
int
diesIfQueuedWorker()
{
    for (;;) {
        auto raw = readFrame(STDIN_FILENO);
        if (!raw.ok())
            return 1;
        if (!raw.value())
            return 0;
        auto req = parseWorkerRequest(*raw.value());
        if (!req.ok())
            return 1;
        const WorkerRequest &r = req.value();
        RunOutcome out = executeContainedRun(r.cfg, r.workload, r.instrs,
                                             r.warmup, r.opts,
                                             ChunkStore::global());
        // A queued request is written right after the running one, so
        // it is waiting by now; the grace period covers a supervisor
        // descheduled between the two writes.
        pollfd in{STDIN_FILENO, POLLIN, 0};
        if (::poll(&in, 1, 200) == 1 && (in.revents & POLLIN))
            std::abort();
        if (!writeFrame(STDOUT_FILENO, buildWorkerResult(out)).ok())
            return 1;
    }
}

} // namespace
} // namespace catchsim

/**
 * Like the real CLI, this binary understands --worker: the supervisor
 * under test re-execs /proc/self/exe, which is this test executable.
 * The dispatch must run before gtest sees the flag.
 */
int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return catchsim::envFlag(catchsim::kDiesIfQueuedEnv)
                   ? catchsim::diesIfQueuedWorker()
                   : catchsim::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
