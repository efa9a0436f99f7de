/**
 * @file
 * Incremental, content-hashed store of finished run results.
 *
 * A campaign with a result store attached (--result-store DIR /
 * CATCH_RESULT_STORE) persists every successful run keyed by what
 * actually determines its output: the workload's name and seed, the
 * digest of the full SimConfig serialisation (worker_proto.hh
 * configDigest), the instruction counts and the trace-format version.
 * Re-running after a one-knob config change re-executes only the cells
 * the knob invalidates — every unchanged cell is served from the store
 * byte-identically (SimResult round-trips bitwise, common/json.hh).
 *
 * Difference from the SuiteJournal: the journal records one campaign's
 * progress under its config *name* and replays it on resume; the store
 * is cross-campaign and keyed on config *content*, so it survives
 * renames and sweeps. The executor consults the journal first, then
 * the store (sim/parallel_runner.cc).
 *
 * Disk discipline follows trace/chunk_store.cc: one file per key
 * (<fnv1a-hex16>.json) holding a single JSON line plus a trailing
 * FNV-1a checksum line, written to a unique tmp name and renamed into
 * place — a killed campaign never leaves a torn record. Corrupt or
 * key-mismatched files are deleted and count as misses. The directory
 * is guarded by a flock'd lock file: a second campaign pointed at the
 * same store fails fast with a config error instead of interleaving.
 */

#ifndef CATCHSIM_SIM_RESULT_STORE_HH_
#define CATCHSIM_SIM_RESULT_STORE_HH_

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/error.hh"
#include "sim/parallel_runner.hh"

namespace catchsim
{

/** Everything that determines one run's bitwise output. */
struct RunKey
{
    std::string workload;
    uint64_t workloadSeed = 0;
    uint64_t configDigest = 0; ///< worker_proto.hh configDigest()
    uint64_t instrs = 0;
    uint64_t warmup = 0;

    /**
     * FNV-1a over every field plus kTraceFormatVersion: a trace-format
     * bump invalidates the whole store, exactly like the chunk store.
     */
    uint64_t hash() const;

    bool operator==(const RunKey &) const = default;
};

/** The key fields of a store record (common/schema.hh). */
template <FieldsOf<RunKey> K, typename V>
void
forEachField(K &k, V &v)
{
    v.field("workload", k.workload);
    v.field("workload_seed", k.workloadSeed);
    v.field("config_digest", k.configDigest);
    v.field("instrs", k.instrs);
    v.field("warmup", k.warmup);
}

class ResultStore
{
  public:
    ~ResultStore();
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Creates @p dir if needed and takes the exclusive campaign lock
     * (flock on <dir>/lock, non-blocking). A held lock or an
     * unwritable directory is a config SimError.
     */
    static Expected<std::unique_ptr<ResultStore>>
    open(const std::string &dir);

    const std::string &dir() const { return dir_; }

    /**
     * The stored outcome for @p key, or nullopt. A hit arrives with
     * fromStore set and the journaled Ok/Retried status; the caller
     * fills the campaign-local config name. Corrupt, truncated or
     * key-mismatched records warn, are deleted, and miss. Thread-safe.
     */
    std::optional<RunOutcome> find(const RunKey &key);

    /**
     * Persists a successful outcome (asserts out.ok()): tmp + rename,
     * checksummed. Write errors warn but never fail the run they
     * record. Thread-safe.
     */
    void put(const RunKey &key, const RunOutcome &out);

    uint64_t hits() const;
    uint64_t misses() const;

  private:
    ResultStore() = default;

    std::string pathFor(const RunKey &key) const;

    std::string dir_;
    int lockFd_ = -1;
    mutable std::mutex mu_; ///< counters + tmp-name serial
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t tmpSerial_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_RESULT_STORE_HH_
