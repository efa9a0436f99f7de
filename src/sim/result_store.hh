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
 * The store is keyed on config *content*, so it survives renames and
 * serves any campaign that asks for the same cell. It is also how a
 * campaign resumes: rerun it with the same store and only the runs that
 * did not finish successfully execute again (failures are never
 * stored).
 *
 * Records are a codec over common/blob_store.hh: one file per key
 * (<fnv1a-hex16>.crs) whose key echo is the JSON of the RunKey fields
 * and whose payload is the status, attempt count and SimResult as one
 * JSON object, written to a unique temp name and renamed into place —
 * a killed campaign never leaves a torn record. Corrupt or
 * key-mismatched files are deleted and count as misses. Unlike the
 * chunk and snapshot directories, the store directory is guarded by a
 * flock'd lock file: a second campaign pointed at the same store fails
 * fast with a config error instead of interleaving.
 */

#ifndef CATCHSIM_SIM_RESULT_STORE_HH_
#define CATCHSIM_SIM_RESULT_STORE_HH_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/blob_store.hh"
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

    const std::string &dir() const { return blobs_.diskDir(); }

    /**
     * The stored outcome for @p key, or nullopt. A hit arrives with
     * fromStore set and the stored Ok/Retried status; the caller fills
     * the campaign-local config name. Corrupt, truncated or
     * key-mismatched records warn, are deleted, and miss. Thread-safe.
     */
    std::optional<RunOutcome> find(const RunKey &key);

    /**
     * Persists a successful outcome (asserts out.ok()): tmp + rename,
     * checksummed. Write errors warn but never fail the run they
     * record. Thread-safe.
     */
    void put(const RunKey &key, const RunOutcome &out);

    /**
     * Reads and fully validates @p key's record without touching the
     * counters: an absent record is a config error, any defect a
     * trace-corrupt one. find() is the production path; this one lets
     * tests pin the error taxonomy.
     */
    Expected<RunOutcome> loadDiskChecked(const RunKey &key) const;

    uint64_t hits() const { return blobs_.stats().hits; }
    uint64_t misses() const { return blobs_.stats().misses; }
    uint64_t puts() const { return blobs_.stats().puts; }

  private:
    ResultStore();

    BlobStore blobs_;
};

/**
 * The planning pre-pass both executors share (runWorkloadsIsolated and
 * runWorkloadsSupervised). Built on the calling thread before any run
 * starts, it serves every cell @p store already holds; the executor
 * runs the rest and hands each outcome to commit().
 */
class StorePlan
{
  public:
    /**
     * Fills outcomes[i] for every store hit, calling @p progress for
     * each, and keys the remaining slots. A null @p store serves
     * nothing; an unknown workload gets no key (it fails fast in its
     * slot, and nothing cacheable comes of it).
     */
    StorePlan(ResultStore *store, const SimConfig &cfg,
              const std::vector<std::string> &names, uint64_t instrs,
              uint64_t warmup, std::vector<RunOutcome> &outcomes,
              const std::function<void(const RunOutcome &)> &progress);

    /** Slots left to execute, in index order. */
    const std::vector<size_t> &pending() const { return pending_; }

    /** Marks executed slot @p idx as a store miss and persists it if it
     *  succeeded. Thread-safe. */
    void commit(size_t idx, RunOutcome &out) const;

  private:
    ResultStore *store_;
    std::vector<std::optional<RunKey>> keys_;
    std::vector<size_t> pending_;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_RESULT_STORE_HH_
