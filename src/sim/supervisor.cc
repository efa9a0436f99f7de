#include "sim/supervisor.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <optional>
#include <thread>

#include "common/fault_inject.hh"
#include "common/host_clock.hh"
#include "common/logging.hh"
#include "sim/journal.hh"
#include "sim/result_store.hh"
#include "sim/worker_proto.hh"
#include "trace/suite.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace catchsim
{

namespace
{

/** Exit code reserved for "exec itself failed" in the child. */
constexpr int kExecFailExit = 127;

/**
 * Ignores SIGPIPE for the supervisor's lifetime and restores the old
 * disposition on exit: a worker that dies before reading its request
 * must surface as a write error / EOF classification, not kill the
 * campaign. Scoped save/restore — no global signal state leaks out.
 */
class SigpipeGuard
{
  public:
    SigpipeGuard()
    {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        sigaction(SIGPIPE, &ignore, &saved_);
    }

    ~SigpipeGuard() { sigaction(SIGPIPE, &saved_, nullptr); }

    SigpipeGuard(const SigpipeGuard &) = delete;
    SigpipeGuard &operator=(const SigpipeGuard &) = delete;

  private:
    struct sigaction saved_ = {};
};

/** Worker processes forked so far (workerSpawnCount()). */
std::atomic<uint64_t> spawned{0};

/** A run to dispatch: its index into names and the process attempt
 *  (dispatch count) the dispatch will be. */
struct Pending
{
    size_t idx;
    unsigned attempt;
};

/**
 * One live worker process and its stream-reassembly state. A worker is
 * busy (running set: a request is in flight, and maybe one more queued
 * behind it) or draining (stdin closed, the supervisor waits for its
 * exit); it is never idle across poll rounds.
 */
struct WorkerProc
{
    pid_t pid = -1;
    int inFd = -1;  ///< write end of the worker's stdin; -1 once closed
    int outFd = -1; ///< read end of the worker's stdout
    std::optional<Pending> running; ///< the run the next result is for
    std::optional<Pending> queued;  ///< sent, starts after running
    double deadline = 0; ///< hostSeconds() past which the worker hangs
    bool eof = false;    ///< stdout closed: ready to reap
    bool killedForTimeout = false;
    std::string protocolError; ///< non-empty: stream was corrupt
    FrameDecoder decoder;
};

/**
 * fork/execs one worker running @p exec_path --worker. The worker
 * inherits the environment (fault plan, chunk-store knobs) and the
 * supervisor's stderr; its stdin/stdout carry the frame protocol, and
 * its stdin stays open for requests until the supervisor closes it.
 * Returns an exec-fail error only for supervisor-side infrastructure
 * failures (pipe/fork); a binary that cannot exec is reported by the
 * child via exit 127 and classified at EOF like every other death.
 */
Expected<WorkerProc>
spawnWorker(const std::string &exec_path)
{
    int in_pipe[2];  // supervisor -> worker stdin
    int out_pipe[2]; // worker stdout -> supervisor
    if (pipe2(in_pipe, O_CLOEXEC) != 0)
        return simError(ErrorCategory::ExecFail,
                        "cannot create worker stdin pipe (errno ",
                        errno, ")");
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        return simError(ErrorCategory::ExecFail,
                        "cannot create worker stdout pipe (errno ",
                        errno, ")");
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        return simError(ErrorCategory::ExecFail,
                        "cannot fork worker (errno ", errno, ")");
    }
    if (pid == 0) {
        // Child. dup2 clears O_CLOEXEC on the standard fds; every
        // other pipe end — including other workers' stdin write ends,
        // whose EOF must not be held open — closes itself across the
        // exec.
        if (::dup2(in_pipe[0], STDIN_FILENO) < 0 ||
            ::dup2(out_pipe[1], STDOUT_FILENO) < 0)
            ::_exit(kExecFailExit);
        char arg_worker[] = "--worker";
        char *argv[] = {const_cast<char *>(exec_path.c_str()),
                        arg_worker, nullptr};
        ::execv(exec_path.c_str(), argv);
        ::_exit(kExecFailExit);
    }

    spawned.fetch_add(1, std::memory_order_relaxed);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);

    WorkerProc w;
    w.pid = pid;
    w.inFd = in_pipe[1];
    w.outFd = out_pipe[0];
    return w;
}

/**
 * Why @p w died with a run in flight, given its wait status. Priority:
 * watchdog kill, protocol error, signal, exit 127, exit status.
 */
SimError
deathCause(const WorkerProc &w, int wstatus, unsigned timeout_ms)
{
    if (w.killedForTimeout)
        return simError(ErrorCategory::HeartbeatTimeout,
                        "worker heartbeat silent for more than ",
                        timeout_ms, " ms; killed");
    if (!w.protocolError.empty())
        return simError(ErrorCategory::Crashed,
                        "worker protocol error: ", w.protocolError);
    if (WIFSIGNALED(wstatus))
        return simError(ErrorCategory::Crashed,
                        "worker killed by signal ", WTERMSIG(wstatus));
    int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    if (code == kExecFailExit)
        return simError(ErrorCategory::ExecFail,
                        "worker binary could not be executed (exit 127 "
                        "without output)");
    if (code == 0)
        return simError(ErrorCategory::Crashed,
                        "worker closed its pipe without a result");
    return simError(ErrorCategory::Crashed, "worker exited with code ",
                    code, " before sending a result");
}

} // namespace

uint64_t
workerSpawnCount()
{
    return spawned.load(std::memory_order_relaxed);
}

std::vector<RunOutcome>
runWorkloadsSupervised(const SimConfig &cfg,
                       const std::vector<std::string> &names,
                       uint64_t instrs, uint64_t warmup, unsigned jobs,
                       const IsolationOptions &opts,
                       const std::function<void(const RunOutcome &)>
                           &progress)
{
    std::vector<RunOutcome> outcomes(names.size());
    const FaultPlan &plan =
        opts.plan ? *opts.plan : FaultPlan::global();
    const std::string bin =
        opts.workerBin.empty() ? "/proc/self/exe" : opts.workerBin;
    const double timeout_sec = opts.heartbeatTimeoutMs / 1000.0;
    SigpipeGuard sigpipe;

    // --- planning pre-pass, on the calling thread -------------------
    // Identical semantics to runWorkloadsIsolated: journal first, then
    // the content-hashed store; only the remainder goes to workers.
    uint64_t cfg_digest = opts.resultStore ? configDigest(cfg) : 0;
    std::vector<std::optional<RunKey>> keys(names.size());
    std::vector<Pending> pending;
    for (size_t i = 0; i < names.size(); ++i) {
        if (opts.journal) {
            RunStatus st = RunStatus::Ok;
            if (const SimResult *done = opts.journal->find(
                    cfg.name, names[i], instrs, warmup, &st)) {
                outcomes[i].workload = names[i];
                outcomes[i].config = cfg.name;
                outcomes[i].status = st;
                outcomes[i].resumed = true;
                outcomes[i].result = *done;
                if (progress)
                    progress(outcomes[i]);
                continue;
            }
        }
        if (opts.resultStore) {
            if (auto wl = findWorkload(names[i]); wl.ok())
                keys[i] = RunKey{names[i], wl.value()->seed(),
                                 cfg_digest, instrs, warmup};
            if (keys[i]) {
                if (auto hit = opts.resultStore->find(*keys[i])) {
                    outcomes[i] = std::move(*hit);
                    outcomes[i].config = cfg.name;
                    if (progress)
                        progress(outcomes[i]);
                    continue;
                }
            }
        }
        pending.push_back({i, 1});
    }
    // LPT dispatch, like the thread-pool executor: longest-estimated
    // runs go first. pop_back() takes work, so sort ascending. Restarts
    // are pushed back on top and so go out next.
    std::stable_sort(pending.begin(), pending.end(),
                     [&names](const Pending &a, const Pending &b) {
                         return workloadCostEstimate(names[a.idx]) <
                                workloadCostEstimate(names[b.idx]);
                     });

    auto commit = [&](size_t idx, RunOutcome &&out) {
        out.workload = names[idx];
        out.config = cfg.name;
        if (opts.resultStore) {
            out.storeMiss = true;
            if (keys[idx] && out.ok())
                opts.resultStore->put(*keys[idx], out);
        }
        if (opts.journal)
            opts.journal->append(out, instrs, warmup);
        outcomes[idx] = std::move(out);
        if (progress)
            progress(outcomes[idx]);
    };

    // Live workers, busy or draining; never more than `slots`.
    std::vector<WorkerProc> workers;
    const size_t slots = std::max(1u, jobs);

    // A worker that died meanwhile makes a request write fail (EPIPE);
    // its EOF then classifies the run like any other death.
    auto request = [&](const WorkerProc &w, Pending p) {
        (void)writeFrame(w.inFd,
                         buildWorkerRequest(cfg, names[p.idx], instrs,
                                            warmup, p.attempt, opts));
    };
    auto execFailDue = [&](Pending p) {
        return plan.shouldInject(FaultKind::ExecFail, names[p.idx],
                                 p.attempt);
    };

    // Queues the next pending run behind @p w's running one, so the
    // worker builds its trace while the running one simulates. Only
    // when no free slot could start it at once, so queueing never
    // serialises runs that could run in parallel. Never a restart and
    // never behind one: a crash while the worker prepares the queued
    // run is charged to the running run, so a restart is dispatched
    // alone. For the same reason nothing is queued when a run has a
    // single attempt: that charge would be final. Never a run due an
    // exec-fail injection, which must go to a fresh spawn, nor behind
    // one. Sending does not touch the watchdog: only bytes from the
    // worker refresh its deadline.
    auto enqueue = [&](WorkerProc &w) {
        if (opts.maxAttempts < 2 || w.eof || !w.running || w.queued ||
            w.running->attempt > 1 || execFailDue(*w.running) ||
            pending.size() <= slots - workers.size() ||
            pending.back().attempt > 1 || execFailDue(pending.back()))
            return;
        w.queued = pending.back();
        pending.pop_back();
        request(w, *w.queued);
    };

    // Sends run @p p to idle @p w, arms the watchdog, and queues the
    // next run behind it.
    auto send = [&](WorkerProc &w, Pending p) {
        w.running = p;
        w.deadline = hostSeconds() + timeout_sec;
        request(w, p);
        enqueue(w);
    };

    // Closing stdin asks the worker to exit; it is reaped at EOF. The
    // deadline bounds a worker that ignores the request.
    auto retire = [&](WorkerProc &w) {
        ::close(w.inFd);
        w.inFd = -1;
        w.running.reset();
        w.deadline = hostSeconds() + timeout_sec;
    };

    // After @p w returned a result: its queued run is now running, or
    // it gets the next one, or it retires. A worker that produced
    // anything but success never starts its queued run, so the next
    // run starts in a clean process: the queued run goes back to
    // pending uncharged at once, and the worker, which has nothing
    // left to do but finish that run's unused trace, is killed. A run
    // due an exec-fail injection must go to a fresh spawn. After a
    // success the queued run is running even if the worker is already
    // dead: it died starting that run.
    auto next = [&](WorkerProc &w, bool last_ok) {
        if (!last_ok) {
            if (w.queued)
                pending.push_back(*w.queued);
            w.queued.reset();
            retire(w);
            ::kill(w.pid, SIGKILL);
        } else if (w.queued) {
            w.running = w.queued;
            w.queued.reset();
            enqueue(w);
        } else if (!w.eof && !pending.empty() &&
                   !execFailDue(pending.back())) {
            Pending p = pending.back();
            pending.pop_back();
            send(w, p);
        } else {
            retire(w);
        }
    };

    // Restart-or-commit for a run whose worker died without a usable
    // result. Crashes and exec failures may be transient (a bad page,
    // a racing binary update) and restart in a fresh worker with
    // backoff; heartbeat timeouts never do — a hang that consumed the
    // whole wall-clock budget once will consume it again.
    auto failOrRetry = [&](size_t idx, unsigned attempt,
                           SimError err) {
        warn("worker for '", names[idx], "' (attempt ", attempt, "): ",
             err.message);
        bool retryable = err.category == ErrorCategory::Crashed ||
                         err.category == ErrorCategory::ExecFail;
        if (retryable && attempt < opts.maxAttempts) {
            if (opts.backoffMs)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    uint64_t(opts.backoffMs) * attempt));
            pending.push_back({idx, attempt + 1});
            return;
        }
        RunOutcome out;
        out.status = RunStatus::Crashed;
        out.attempts = attempt;
        out.failure = RunFailure{std::move(err), attempt};
        commit(idx, std::move(out));
    };

    // Dispatches @p p to a fresh worker. A supervisor-side spawn
    // failure (pipe/fork) takes the same bounded-restart path as a
    // worker death. exec-fail injection happens here: the child execs a
    // path that cannot exist, producing the real exit-127 signature.
    auto launch = [&](Pending p) {
        const bool exec_fail = execFailDue(p);
        auto w = spawnWorker(
            exec_fail ? "/nonexistent/catchsim-exec-fail-injection" : bin);
        if (!w.ok()) {
            failOrRetry(p.idx, p.attempt, w.error());
            return;
        }
        workers.push_back(std::move(w).value());
        send(workers.back(), p);
    };

    auto protocolFault = [](WorkerProc &w, std::string why) {
        w.protocolError = std::move(why);
        ::kill(w.pid, SIGKILL);
    };

    // --- poll event loop --------------------------------------------
    while (!pending.empty() || !workers.empty()) {
        while (workers.size() < slots && !pending.empty()) {
            Pending p = pending.back();
            pending.pop_back();
            launch(p);
        }
        if (workers.empty())
            continue; // every launch may have committed a failure

        std::vector<pollfd> fds(workers.size());
        double next_deadline = workers[0].deadline;
        for (size_t i = 0; i < workers.size(); ++i) {
            fds[i] = pollfd{workers[i].outFd, POLLIN, 0};
            next_deadline = std::min(next_deadline, workers[i].deadline);
        }
        double wait_sec = next_deadline - hostSeconds();
        int timeout_ms = static_cast<int>(
            std::clamp(wait_sec * 1000.0, 10.0, 1000.0));
        ::poll(fds.data(), fds.size(), timeout_ms);

        const double now = hostSeconds();
        for (size_t i = 0; i < workers.size(); ++i) {
            WorkerProc &w = workers[i];
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[4096];
                for (;;) {
                    ssize_t n = ::read(w.outFd, buf, sizeof(buf));
                    if (n > 0) {
                        // Any bytes count as liveness; corrupt bytes
                        // are caught by the decoder below.
                        w.deadline = now + timeout_sec;
                        w.decoder.feed(buf, size_t(n));
                        continue;
                    }
                    if (n < 0 && errno == EINTR)
                        continue;
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK))
                        break;
                    w.eof = true; // EOF or unreadable pipe
                    break;
                }
                std::string frame;
                int rc = 0;
                while (w.protocolError.empty() && !w.killedForTimeout &&
                       (rc = w.decoder.next(&frame)) == 1) {
                    if (isHeartbeatFrame(frame))
                        continue;
                    auto res = parseWorkerResult(frame);
                    if (!res.ok()) {
                        protocolFault(w, res.error().message);
                    } else if (!w.running) {
                        protocolFault(w, "result frame with no request "
                                         "in flight");
                    } else {
                        // Commit at decode: the worker stays alive, and
                        // whatever happens to it later cannot touch
                        // this run.
                        RunOutcome out = std::move(res).value();
                        const bool ok = out.ok();
                        const Pending run = *w.running;
                        if (run.attempt > 1 && ok) {
                            // Restarts promote Ok to Retried so
                            // campaign summaries reflect the recovery;
                            // the SimResult payload itself is
                            // untouched (bitwise identity).
                            out.status = RunStatus::Retried;
                            out.attempts = run.attempt;
                        }
                        commit(run.idx, std::move(out));
                        next(w, ok);
                    }
                }
                if (rc == -1 && w.protocolError.empty())
                    protocolFault(w, w.decoder.error());
            }
            if (!w.eof && !w.killedForTimeout && now > w.deadline) {
                // Watchdog: silence past the budget. SIGKILL; the EOF
                // this forces classifies an in-flight run as
                // heartbeat-timeout.
                w.killedForTimeout = true;
                ::kill(w.pid, SIGKILL);
            }
        }

        // Reap workers at EOF (reverse order keeps indices stable); a
        // run still in flight died with its worker.
        for (size_t i = workers.size(); i-- > 0;) {
            WorkerProc &w = workers[i];
            if (!w.eof)
                continue;
            int wstatus = 0;
            ::waitpid(w.pid, &wstatus, 0);
            if (w.inFd >= 0)
                ::close(w.inFd);
            ::close(w.outFd);
            // A queued run never started: it goes back to pending
            // uncharged, under any restart of the running run.
            if (w.queued)
                pending.push_back(*w.queued);
            if (w.running)
                failOrRetry(w.running->idx, w.running->attempt,
                            deathCause(w, wstatus,
                                       opts.heartbeatTimeoutMs));
            workers.erase(workers.begin() + static_cast<ptrdiff_t>(i));
        }
    }
    return outcomes;
}

} // namespace catchsim
