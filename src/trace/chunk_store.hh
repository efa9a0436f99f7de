/**
 * @file
 * ChunkStore: a content-addressed, memoized store of generated trace
 * chunks.
 *
 * Trace generation is a pure function of (kernel, seed): the op stream
 * is bitwise-identical on every run, yet every simulation of a sweep
 * regenerates it from scratch — 40–60% of functional-warming cost
 * (docs/PERFORMANCE.md). The store memoizes generation at chunk
 * granularity so every config of a sweep, and every repeat campaign,
 * pays generation exactly once: a TraceStream refill becomes a store
 * lookup, and only a cold store falls back to running the kernel.
 *
 * Addressing. A chunk is identified by (kernel name, workload seed,
 * chunk size in ops, chunk index) plus the trace format version baked
 * into the record encoding (trace_io.hh, kTraceFormatVersion). Chunks
 * are always FULL chunks of exactly chunkOps ops, generated by an
 * engine whose op budget is unbounded: kernels only observe
 * Emitter::done() (never the remaining budget), so the emitted stream
 * is a pure prefix function and a full chunk's content is independent
 * of the total trace length that requested it. That prefix property is
 * what lets a chunk generated for a 200k-op run serve a 500k-op run of
 * the same kernel.
 *
 * Tiers. The store is a codec over common/blob_store.hh: the in-memory
 * tier is its LRU of shared immutable chunks under a byte budget; the
 * optional on-disk tier (--trace-cache-dir / CATCH_TRACE_CACHE) holds
 * one checksummed record per chunk (payload: the chunk's op records in
 * the trace_io.hh encoding) so repeat campaigns start warm. Any defect
 * (truncation, bit flip, key mismatch, out-of-range field) surfaces as
 * a trace-corrupt SimError, the bad file is dropped, and the consumer
 * falls back to deterministic regeneration — never a crash, never
 * silently wrong data.
 *
 * Correctness contract: simulation results are bitwise-identical with
 * the store enabled, disabled, cold, warm or size-limited, at any job
 * count (pinned by tests/chunk_store_test.cc). The store can therefore
 * never be a correctness hazard, only a speed lever.
 */

#ifndef CATCHSIM_TRACE_CHUNK_STORE_HH_
#define CATCHSIM_TRACE_CHUNK_STORE_HH_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/blob_store.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "trace/workload.hh"

namespace catchsim
{

class FaultPlan;
class ThreadPool;

/** Content address of one generated chunk (format version is implicit:
 *  kTraceFormatVersion is baked into the record encoding). */
struct ChunkKey
{
    std::string kernel; ///< workload suite name
    uint64_t seed = 0;  ///< Workload::seed()
    uint32_t chunkOps = 0;
    uint64_t index = 0; ///< chunk ordinal: ops [index*chunkOps, ...)
};

/**
 * Incremental canonical generation engine: runs a workload kernel
 * against its own private FunctionalMemory and serves the op stream as
 * a sequence of full chunks. Because the engine's op budget is
 * unbounded, chunk k's content depends only on (kernel, seed,
 * chunkOps, k) — the store's addressing invariant. Both the
 * TraceStream miss path and the background producer use this engine.
 */
class ChunkGenerator
{
  public:
    ChunkGenerator() = default;
    ChunkGenerator(const ChunkGenerator &) = delete;
    ChunkGenerator &operator=(const ChunkGenerator &) = delete;

    /** (Re)starts the engine at chunk 0: fresh memory, re-seeded RNG,
     *  kernel cursors reset via Workload::setup. */
    void reset(Workload &wl, uint32_t chunk_ops);

    /** Drops all engine state; the next next() restarts at chunk 0. */
    void discard();

    /** True once reset() ran and discard() has not. */
    bool started() const { return started_; }

    /** Index of the chunk the next call to next() will produce. */
    uint64_t nextIndex() const { return nextIdx_; }

    /**
     * Generates the next full chunk (exactly @p chunk_ops ops) of
     * @p wl's canonical stream. Starts the engine on first use. The
     * same workload object and chunk size must be used for the life of
     * the engine (until discard()).
     */
    std::vector<MicroOp> next(Workload &wl, uint32_t chunk_ops);

  private:
    std::unique_ptr<FunctionalMemory> mem_;
    std::optional<Rng> rng_;
    std::optional<Emitter> em_;
    std::vector<MicroOp> buf_; ///< emitted, not yet chunked out
    uint64_t nextIdx_ = 0;
    bool started_ = false;
};

class ChunkStore
{
  public:
    using Chunk = std::vector<MicroOp>;
    using ChunkPtr = std::shared_ptr<const Chunk>;

    struct Config
    {
        /** In-memory tier budget; least-recently-used chunks are
         *  evicted past it. Never below one chunk. */
        size_t memBudgetBytes = size_t(256) << 20;
        /** On-disk tier directory; empty disables the disk tier. */
        std::string diskDir;
        /** Fault-injection plan for the disk path ("chunk-store"
         *  target); null disables injection. */
        const FaultPlan *plan = nullptr;
    };

    using Stats = BlobStore::Stats;

    /** Memory-tier-only store with the default budget. */
    ChunkStore();
    explicit ChunkStore(Config cfg);
    ~ChunkStore(); // out of line: Producer is incomplete here

    ChunkStore(const ChunkStore &) = delete;
    ChunkStore &operator=(const ChunkStore &) = delete;

    /**
     * Looks @p key up in the memory tier, then the disk tier. A disk
     * record that fails validation counts as corrupt, is deleted, and
     * the call reports a miss — the caller regenerates. Thread-safe.
     */
    ChunkPtr find(const ChunkKey &key);

    /**
     * Publishes a full chunk. First writer wins (every writer holds
     * identical bytes — generation is deterministic); returns the
     * resident chunk, which may outlive any later eviction. Write-
     * through to the disk tier when configured. Thread-safe.
     */
    ChunkPtr put(const ChunkKey &key, Chunk chunk);

    /**
     * Reads and fully validates @p key's disk record: exact size,
     * trailing FNV-1a checksum, magic, version, key echo, op ranges. An
     * unopenable path is a config error (plain miss); any content
     * defect is a trace-corrupt SimError. Public so tests can pin the
     * error taxonomy directly.
     */
    Expected<ChunkPtr> loadDiskChecked(const ChunkKey &key);

    /** Disk path a key maps to (valid only with a disk tier). */
    std::string diskPath(const ChunkKey &key) const;

    Stats stats() const { return blobs_.stats(); }
    size_t residentBytes() const { return blobs_.residentBytes(); }
    const std::string &diskDir() const { return blobs_.diskDir(); }

    /**
     * Attaches/detaches the thread pool the background producer may
     * borrow idle capacity from. The pool must outlive every producer
     * task it accepted; ProducerPoolGuard pairs the calls with the
     * pool's scope. Null detaches (producers finish their batch and
     * stop chaining).
     */
    void setProducerPool(ThreadPool *pool);

    /**
     * Consumer-progress hint: the stream consuming @p key's identity
     * is about to need chunk @p key.index of @p max_chunks total. If a
     * producer pool is attached and a worker is idle, a detached task
     * generates up to kProducerAheadChunks chunks ahead of the fastest
     * consumer so later refills become store hits. Never blocks; a
     * no-op without a pool. Chunk content is canonical, so producer
     * scheduling can never affect simulation results.
     */
    void kickProducer(const ChunkKey &key, uint64_t max_chunks);

    /** Producer lookahead window, in chunks, past the consumer. */
    static constexpr uint64_t kProducerAheadChunks = 8;
    /** Chunks one detached producer task generates before rechecking
     *  pool idleness (bounds time-to-drain at pool shutdown). */
    static constexpr uint64_t kProducerBatchChunks = 2;

    /**
     * The process-wide store, or null when disabled. Enabled by
     * CATCH_TRACE_STORE=1 (memory tier only) or CATCH_TRACE_CACHE=DIR
     * (memory + disk tiers); CATCH_TRACE_STORE_MB bounds the memory
     * tier (default 256). Off by default so single runs and existing
     * tests keep their exact legacy behaviour. First call caches the
     * environment (thread-safe magic static; reads follow the env.hh
     * startup contract — CLI/bench mains resolve it before spawning
     * workers).
     */
    static ChunkStore *global();

  private:
    struct Producer;

    static BlobStore::Key recordKey(const ChunkKey &key);
    void produceSome(Producer &st);

    BlobStore blobs_;

    std::atomic<ThreadPool *> pool_{nullptr};
    std::mutex producerMu_;
    std::unordered_map<std::string, std::unique_ptr<Producer>> producers_;
};

/**
 * RAII handoff of a ThreadPool's idle capacity to a store's producer
 * stage. Declare AFTER the pool: destruction order then detaches the
 * store before the pool destructor drains any in-flight producer
 * tasks, so no new task can be submitted to a dying pool. Null store
 * or pool makes the guard a no-op.
 */
class ProducerPoolGuard
{
  public:
    ProducerPoolGuard(ChunkStore *store, ThreadPool *pool)
        : store_(store)
    {
        if (store_)
            store_->setProducerPool(pool);
    }

    ~ProducerPoolGuard()
    {
        if (store_)
            store_->setProducerPool(nullptr);
    }

    ProducerPoolGuard(const ProducerPoolGuard &) = delete;
    ProducerPoolGuard &operator=(const ProducerPoolGuard &) = delete;

  private:
    ChunkStore *store_;
};

} // namespace catchsim

#endif // CATCHSIM_TRACE_CHUNK_STORE_HH_
