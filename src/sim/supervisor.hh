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
 * call and feeds it runs over its stdin, so a campaign pays for process
 * start-up once per slot, not once per run. A worker has at most two
 * runs outstanding: one running and one queued, whose trace the worker
 * builds while the running one simulates; results come back in request
 * order. A crash in any run — SIGSEGV inside the simulator, an abort,
 * the OOM killer — ends that worker process and becomes a typed Crashed
 * RunFailure in the slot of the running run; runs it already returned
 * stay committed, and the campaign and its journal survive.
 *
 * Supervision state machine, per worker:
 *
 *   spawn -> send running + queued requests -> heartbeats -> result
 *     result ok, run queued  -> commit; the queued run is running;
 *                               queue the next one (longest first)
 *     result ok, none queued -> commit; send the next request to the
 *                               same worker
 *     result not ok          -> commit; the queued run goes back to
 *                               pending; retire (close stdin, SIGKILL,
 *                               reap); the next run gets a fresh
 *                               worker
 *     no work left           -> retire
 *   EOF with a run running   -> reap, classify the running run
 *     classify crashed       -> restart in a fresh worker with backoff
 *     classify exec-fail        while attempts remain, else commit a
 *                               Crashed failure
 *     watchdog expired       -> SIGKILL -> commit heartbeat-timeout
 *                               (never restarted: hangs are not
 *                               transient)
 *
 * A run is queued only when no free slot could start it, so queueing
 * never serialises runs that could run in parallel. Queueing rules, so
 * a queued run never pays for its neighbour: (1) a worker death is
 * charged to the running run, and the queued run goes back to pending
 * with its attempt count unchanged; (2) after any non-ok result the
 * queued run goes back to pending uncharged; (3) a run due an
 * exec-fail injection is never queued; (4) a restarted run (attempt >=
 * 2) is never queued and is dispatched with nothing queued behind it,
 * and nothing is queued at all when opts.maxAttempts is 1, since a
 * crash while preparing a queued run is charged to the running one:
 * that charge is never a run's last, so an innocent run ends Retried
 * at worst, never Crashed; (5) only bytes from the worker refresh the
 * watchdog deadline, never sending the queued request.
 *
 * Every worker is reaped before the call returns, so no zombie
 * outlives it and RUSAGE_CHILDREN counts every worker's CPU time.
 * Process-level faults keep their (run, process attempt) meaning: the
 * attempt is the number of times that run has been dispatched, the
 * crash kinds are checked per request inside the worker, and a dispatch
 * due an exec-fail injection goes to a freshly spawned worker.
 *
 * The watchdog here is WALL-CLOCK and armed only while a run is
 * running: a worker whose heartbeat goes silent for
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
 * workers are alive at once, each serving runs (one running, one
 * queued) until the queue is empty or one of its runs fails. Journal replay and result-store
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
