/**
 * @file
 * Process-isolated campaign execution: one persistent worker process
 * per job slot.
 *
 * runWorkloadsSupervised() is the process-level sibling of
 * runWorkloadsIsolated(): same outcome-per-slot contract, same journal
 * and result-store semantics, but runs execute in fork/exec'd worker
 * processes (the hidden --worker mode of the catch binary,
 * sim/worker_proto.hh). Each job slot keeps one worker for the whole
 * call and feeds it one run at a time over its stdin, so a campaign
 * pays for process start-up once per slot, not once per run. A crash
 * in any run — SIGSEGV inside the simulator, an abort, the OOM killer —
 * ends that worker process and becomes a typed Crashed RunFailure in
 * the slot of the run it had in flight; runs it already returned stay
 * committed, and the campaign and its journal survive.
 *
 * Supervision state machine, per worker:
 *
 *   spawn -> send request -> streaming (heartbeats) -> result frame
 *     result ok, work left  -> commit; send the next request (longest
 *                              first) to the same worker
 *     result not ok         -> commit; retire (close stdin, reap); the
 *                              next run gets a fresh worker
 *     no work left          -> retire
 *   EOF with a run in flight -> reap, classify
 *     classify crashed      -> restart in a fresh worker with backoff
 *     classify exec-fail       while attempts remain, else commit a
 *                              Crashed failure
 *     watchdog expired      -> SIGKILL -> commit heartbeat-timeout
 *                              (never restarted: hangs are not
 *                              transient)
 *
 * Every worker is reaped before the call returns, so no zombie
 * outlives it and RUSAGE_CHILDREN counts every worker's CPU time.
 * Process-level faults keep their (run, process attempt) meaning: the
 * attempt is the number of times that run has been dispatched, the
 * crash kinds are checked per request inside the worker, and a dispatch
 * due an exec-fail injection goes to a freshly spawned worker.
 *
 * The watchdog here is WALL-CLOCK and armed only while a request is
 * in flight: a worker whose heartbeat goes silent for
 * CATCH_HEARTBEAT_TIMEOUT_MS is SIGKILLed. (A retired worker that has
 * not exited within the same budget is killed too, with nothing to
 * commit.) It complements —
 * not replaces — the simulated-cycle watchdog (sim/run_guard.hh),
 * which still runs inside the worker and reports budget-exceeded as a
 * typed in-band failure. The wall-clock layer catches what the
 * simulated-cycle layer cannot: a worker stuck before or outside the
 * simulation loop, or one that is dead without an exit status yet.
 *
 * Determinism: successful slots are bitwise-identical to an in-process
 * campaign at any worker count. The request carries the exact
 * SimConfig (configToJson round-trips bitwise) and workers run
 * executeContainedRun — the identical unit of work — so only the
 * transport differs. A worker that serves several runs shares
 * process-wide state between them exactly as in-process runs share it
 * (RunProfile::peakRssBytes, for one, is cumulative over the runs a
 * worker served). No wall-clock value enters any result; the clock
 * only decides when to kill an already-hung worker.
 */

#ifndef CATCHSIM_SIM_SUPERVISOR_HH_
#define CATCHSIM_SIM_SUPERVISOR_HH_

#include <functional>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"

namespace catchsim
{

/**
 * Runs @p names[i] -> outcomes[i] in worker processes; at most @p jobs
 * workers are alive at once, each serving runs until the queue is
 * empty or one of its runs fails. Journal replay and result-store
 * lookups happen on the calling thread before any worker spawns,
 * exactly as in runWorkloadsIsolated. opts.workerBin
 * selects the worker executable (default /proc/self/exe, which must
 * understand --worker); opts.heartbeatMs / opts.heartbeatTimeoutMs
 * configure the wall-clock watchdog. @p progress runs on the calling
 * thread as slots finish.
 */
std::vector<RunOutcome>
runWorkloadsSupervised(const SimConfig &cfg,
                       const std::vector<std::string> &names,
                       uint64_t instrs, uint64_t warmup, unsigned jobs,
                       const IsolationOptions &opts = {},
                       const std::function<void(const RunOutcome &)>
                           &progress = nullptr);

/**
 * Worker processes runWorkloadsSupervised has forked in this process
 * so far. A diagnostic for tests; it never enters a result or export.
 */
uint64_t workerSpawnCount();

} // namespace catchsim

#endif // CATCHSIM_SIM_SUPERVISOR_HH_
