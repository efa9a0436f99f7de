#include "trace/chunk_store.hh"

#include <algorithm>
#include <utility>

#include "common/env.hh"
#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"

namespace catchsim
{

namespace
{

// Chunk-record magic, distinct from full-trace files ("CTSIM\0") so a
// misplaced file of either kind is rejected by the first six bytes.
constexpr char kChunkMagic[6] = {'C', 'T', 'C', 'H', 'K', '\0'};

} // namespace

// --- ChunkGenerator ----------------------------------------------------

void
ChunkGenerator::reset(Workload &wl, uint32_t chunk_ops)
{
    mem_ = std::make_unique<FunctionalMemory>();
    rng_.emplace(wl.seed());
    buf_.clear();
    // Unbounded op budget: kernels only ever observe done(), which
    // stays false, so the emitted stream is the canonical prefix
    // function of (kernel, seed) regardless of any consumer's total.
    em_.emplace(*mem_, buf_, /*limit=*/~size_t(0),
                /*reserve_hint=*/2 * size_t(chunk_ops));
    wl.setup(*mem_, *rng_);
    nextIdx_ = 0;
    started_ = true;
}

void
ChunkGenerator::discard()
{
    em_.reset();
    rng_.reset();
    mem_.reset();
    buf_.clear();
    buf_.shrink_to_fit();
    started_ = false;
    // The next chunk produced is chunk 0 again; callers that read
    // nextIndex() before calling next() must see that, not the index
    // the discarded engine had reached.
    nextIdx_ = 0;
}

std::vector<MicroOp>
ChunkGenerator::next(Workload &wl, uint32_t chunk_ops)
{
    if (!started_)
        reset(wl, chunk_ops);
    const size_t want = chunk_ops;
    while (buf_.size() < want) {
        const size_t before = em_->emitted();
        wl.run(*em_, *rng_);
        CATCHSIM_ASSERT(em_->emitted() > before,
                        "workload kernel made no forward progress");
    }
    std::vector<MicroOp> out(buf_.begin(),
                             buf_.begin() + static_cast<ptrdiff_t>(want));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(want));
    ++nextIdx_;
    return out;
}

// --- ChunkStore: producer state ----------------------------------------

/**
 * Per-(kernel, seed, chunkOps) background generation state. The
 * atomics publish consumer progress without locks; the engine itself
 * (workload instance + ChunkGenerator) is serialised by engineMu —
 * generation is sequential by nature, so one producer task at a time
 * advances it (`active` elects that task).
 */
struct ChunkStore::Producer
{
    std::string kernel;
    uint64_t seed = 0;
    uint32_t chunkOps = 0;
    std::atomic<uint64_t> consumerIndex{0}; ///< furthest consumer chunk
    std::atomic<uint64_t> maxChunks{0};     ///< furthest consumer's end
    std::atomic<bool> active{false};        ///< a task owns the engine
    std::mutex engineMu;
    bool broken = false; ///< kernel not instantiable; stay off
    std::unique_ptr<Workload> wl;
    ChunkGenerator gen;
};

// --- ChunkStore --------------------------------------------------------

ChunkStore::ChunkStore() : ChunkStore(Config()) {}

// Callers must detach any producer pool first (ProducerPoolGuard does);
// no task can then hold a reference into producers_.
ChunkStore::~ChunkStore() = default;

ChunkStore::ChunkStore(Config cfg)
    : blobs_([&cfg] {
          BlobStore::Config c;
          c.name = "chunk store";
          c.magic = kChunkMagic;
          c.version = kTraceFormatVersion;
          c.memBudgetBytes = cfg.memBudgetBytes;
          c.charge = [](const void *chunk, bool) {
              return static_cast<const Chunk *>(chunk)->size() *
                     sizeof(MicroOp);
          };
          c.plan = cfg.plan;
          c.faultKind = FaultKind::TraceCorrupt;
          c.faultTarget = "chunk-store";
          return c;
      }())
{
    if (cfg.diskDir.empty())
        return;
    if (auto disk = blobs_.openDisk(cfg.diskDir, /*exclusive=*/false);
        !disk.ok())
        warn(disk.error().message, " — disk tier disabled");
}

BlobStore::Key
ChunkStore::recordKey(const ChunkKey &key)
{
    // A full chunk's payload size is a pure function of the key, so it
    // bounds the record exactly.
    const uint64_t payload = uint64_t(key.chunkOps) * kTraceOpRecordBytes;
    return {key.kernel + '|' + std::to_string(key.seed) + '|' +
                std::to_string(key.chunkOps) + '|' +
                std::to_string(key.index),
            key.kernel + "-s" + std::to_string(key.seed) + "-c" +
                std::to_string(key.chunkOps) + "-v" +
                std::to_string(kTraceFormatVersion) + "-i" +
                std::to_string(key.index) + ".ctc",
            payload, payload};
}

std::string
ChunkStore::diskPath(const ChunkKey &key) const
{
    return blobs_.path(recordKey(key));
}

namespace
{

BlobStore::Decoder
chunkDecoder(uint32_t chunk_ops)
{
    return [chunk_ops](const uint8_t *in,
                       size_t) -> Expected<BlobStore::Value> {
        auto chunk = std::make_shared<ChunkStore::Chunk>(size_t(chunk_ops)); // catch-lint: allow(step-alloc) once per 64K-op chunk, not per cycle
        for (uint32_t i = 0; i < chunk_ops; ++i) {
            if (const char *defect = decodeOpRecord(
                    in + size_t(i) * kTraceOpRecordBytes, &(*chunk)[i]))
                return simError(ErrorCategory::TraceCorrupt, "op ", i,
                                ": ", defect);
        }
        return BlobStore::Value(std::move(chunk));
    };
}

} // namespace

ChunkStore::ChunkPtr
ChunkStore::find(const ChunkKey &key)
{
    return std::static_pointer_cast<const Chunk>(
        blobs_.find(recordKey(key), chunkDecoder(key.chunkOps)));
}

ChunkStore::ChunkPtr
ChunkStore::put(const ChunkKey &key, Chunk chunk)
{
    CATCHSIM_ASSERT(chunk.size() == key.chunkOps,
                    "chunk store only holds full chunks: got ",
                    chunk.size(), " ops for a ", key.chunkOps,
                    "-op key");
    auto c = std::make_shared<const Chunk>(std::move(chunk)); // catch-lint: allow(step-alloc) once per 64K-op chunk, not per cycle
    auto encode = [&c](std::vector<uint8_t> &out) {
        size_t at = out.size();
        out.resize(at + c->size() * kTraceOpRecordBytes); // catch-lint: allow(step-alloc) once per 64K-op chunk, not per cycle
        for (const MicroOp &op : *c) {
            encodeOpRecord(op, out.data() + at);
            at += kTraceOpRecordBytes;
        }
    };
    return std::static_pointer_cast<const Chunk>(
        blobs_.put(recordKey(key), c, encode));
}

Expected<ChunkStore::ChunkPtr>
ChunkStore::loadDiskChecked(const ChunkKey &key)
{
    auto loaded = blobs_.load(recordKey(key), chunkDecoder(key.chunkOps));
    if (!loaded.ok())
        return loaded.error();
    return std::static_pointer_cast<const Chunk>(std::move(loaded).value());
}

// --- producer stage ----------------------------------------------------

void
ChunkStore::setProducerPool(ThreadPool *pool)
{
    pool_.store(pool, std::memory_order_release);
}

void
ChunkStore::kickProducer(const ChunkKey &key, uint64_t max_chunks)
{
    ThreadPool *pool = pool_.load(std::memory_order_acquire);
    if (!pool)
        return;
    Producer *st = nullptr;
    {
        const std::string pk = key.kernel + '|' +
                               std::to_string(key.seed) + '|' +
                               std::to_string(key.chunkOps);
        std::lock_guard<std::mutex> lock(producerMu_);
        auto &slot = producers_[pk];
        if (!slot) {
            slot = std::make_unique<Producer>(); // catch-lint: allow(step-alloc) once per (kernel, seed) identity
            slot->kernel = key.kernel;
            slot->seed = key.seed;
            slot->chunkOps = key.chunkOps;
        }
        st = slot.get();
    }
    // Advance the published consumer frontier monotonically: several
    // streams of the same identity may progress at different rates and
    // the producer chases the furthest one.
    uint64_t cur = st->consumerIndex.load(std::memory_order_relaxed);
    while (cur < key.index &&
           !st->consumerIndex.compare_exchange_weak(cur, key.index)) {
    }
    cur = st->maxChunks.load(std::memory_order_relaxed);
    while (cur < max_chunks &&
           !st->maxChunks.compare_exchange_weak(cur, max_chunks)) {
    }
    if (st->active.exchange(true))
        return; // a task already owns the engine
    if (!pool->trySubmitDetached([this, st] { produceSome(*st); }))
        st->active.store(false); // no idle capacity; retry on next kick
}

void
ChunkStore::produceSome(Producer &st)
{
    bool more = false;
    {
        std::lock_guard<std::mutex> lock(st.engineMu);
        if (st.broken) {
            st.active.store(false);
            return;
        }
        if (!st.wl) {
            auto wl = findWorkload(st.kernel);
            if (!wl.ok() || wl.value()->seed() != st.seed) {
                // Not a suite kernel (custom test workload) or a seed
                // the suite would not produce: the producer cannot
                // regenerate this identity, so it stays off and the
                // consumer generates inline as before.
                st.broken = true;
                st.active.store(false);
                return;
            }
            st.wl = std::move(wl).value();
        }
        uint64_t produced = 0;
        while (produced < kProducerBatchChunks) {
            const uint64_t goal =
                std::min(st.consumerIndex.load(std::memory_order_relaxed) +
                             kProducerAheadChunks,
                         st.maxChunks.load(std::memory_order_relaxed));
            const uint64_t idx = st.gen.nextIndex();
            if (idx >= goal)
                break;
            put(ChunkKey{st.kernel, st.seed, st.chunkOps, idx},
                st.gen.next(*st.wl, st.chunkOps));
            ++produced;
        }
        more = st.gen.nextIndex() <
               std::min(st.consumerIndex.load(std::memory_order_relaxed) +
                            kProducerAheadChunks,
                        st.maxChunks.load(std::memory_order_relaxed));
    }
    if (more) {
        // Chain a fresh task instead of looping: between batches the
        // pool re-decides whether simulation work needs the worker.
        ThreadPool *pool = pool_.load(std::memory_order_acquire);
        if (pool && pool->trySubmitDetached([this, &st] { produceSome(st); }))
            return; // ownership passes to the chained task
    }
    st.active.store(false);
}

// --- process-wide store ------------------------------------------------

ChunkStore *
ChunkStore::global()
{
    // Leaked singleton (never destructed): detached producer tasks may
    // still publish chunks while static destructors would run.
    static ChunkStore *const store = []() -> ChunkStore * {
        const std::string dir = envString("CATCH_TRACE_CACHE");
        if (!envFlag("CATCH_TRACE_STORE") && dir.empty())
            return nullptr;
        Config cfg;
        cfg.memBudgetBytes = envU64("CATCH_TRACE_STORE_MB", 256) << 20;
        cfg.diskDir = dir;
        cfg.plan = &FaultPlan::global();
        return new ChunkStore(std::move(cfg)); // catch-lint: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
