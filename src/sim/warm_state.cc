#include "sim/warm_state.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/state_io.hh"
#include "trace/trace_io.hh"

namespace catchsim
{

namespace
{

// Snapshot-record magic, distinct from trace files ("CTSIM\0") and
// chunk records ("CTCHK\0") so a misplaced file of any kind is rejected
// by the first six bytes.
constexpr char kWarmStateMagic[6] = {'C', 'W', 'A', 'R', 'M', '\0'};

// Fixed prefix of a snapshot record before the kernel-name bytes:
// magic, u32 version, u64 seed, u64 boundary, u64 total, u64 chunk,
// u64 digest, u64 window index, u64 schedule digest, u32 name len.
constexpr uint64_t kWarmHeaderBytes =
    sizeof(kWarmStateMagic) + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4;

// After the name: u64 payload length, payload, u64 FNV-1a checksum.
// The payload itself is [u64 blob len][blob bytes][u64 page count]
// [(u64 page addr, 4096-byte raw page) x count], pages in strictly
// ascending address order. Raw pages keep the record memcpy-parseable:
// a restore allocates shared handles straight off the mapped buffer
// with no per-word decode.
constexpr uint64_t kWarmTrailerBytes = 8 + 8;

// Per-page cost inside the payload: address + raw page data.
constexpr uint64_t kPageRecordBytes =
    8 + sizeof(FunctionalMemory::Page);

void
putBytes(std::vector<uint8_t> &out, size_t at, const void *src, size_t n)
{
    std::memcpy(out.data() + at, src, n);
}

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

// --- warming-visible config digests -----------------------------------

namespace
{

/** FNV-1a of @p json salted with the format version, so bumping the
 *  version re-keys digests too. */
uint64_t
saltedDigest(const std::string &json)
{
    std::string salted = std::to_string(kWarmStateFormatVersion) + json;
    return fnv1a(salted.data(), salted.size());
}

} // namespace

/**
 * Hashes exactly the SimConfig fields tagged WarmVisible in the schema
 * (common/sim_config.hh). Everything else — cache latencies, oracle
 * latency adders and demotion, DRAM timing, core width/ROB/ports, the
 * sampling schedule — is warming-invisible by construction (warm fills
 * stamp readyAt 0 and the clock never advances during warming) and is
 * left out so timing resweeps share snapshots. The catch_analyze
 * warm-digest rule checks every config read on the warming call graph
 * against those tags.
 *
 * Only the global-warmup snapshot (windowIndex 0) uses this digest.
 * Window-boundary snapshots carry the FULL config digest instead
 * (worker_proto.hh configDigest): their state embeds detailed-window
 * execution, which every timing knob reaches.
 */
uint64_t
warmConfigDigest(const SimConfig &cfg)
{
    JsonWriter w(JsonWriter::Select::WarmVisible);
    w.open();
    forEachField(cfg, w);
    w.close();
    return saltedDigest(w.str());
}

/**
 * Everything the window-boundary placement depends on: every
 * SamplingConfig field. The per-period warming split (Weyl-staggered
 * pre/post) is a pure function of these and the period index, so two
 * runs with equal schedule digests place every detailed window — and
 * therefore every window-boundary snapshot — at the same instruction
 * positions.
 */
uint64_t
sampleScheduleDigest(const SamplingConfig &sc)
{
    JsonWriter w;
    w.open();
    forEachField(sc, w);
    w.close();
    return saltedDigest(w.str());
}

// --- WarmStateStore -----------------------------------------------------

WarmStateStore::WarmStateStore() : WarmStateStore(Config()) {}

WarmStateStore::~WarmStateStore() = default;

WarmStateStore::WarmStateStore(Config cfg)
    : cfg_(std::move(cfg))
{
    if (!cfg_.diskDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.diskDir, ec);
        if (ec) {
            warn("warm-state store: cannot create cache dir '",
                 cfg_.diskDir, "': ", ec.message(),
                 " — disk tier disabled");
            cfg_.diskDir.clear();
        }
    }
}

std::string
WarmStateStore::mapKey(const WarmStateKey &key)
{
    return key.kernel + '|' + std::to_string(key.seed) + '|' +
           std::to_string(key.boundaryOps) + '|' +
           std::to_string(key.totalOps) + '|' +
           std::to_string(key.chunkOps) + '|' +
           std::to_string(key.configDigest) + '|' +
           std::to_string(key.windowIndex) + '|' +
           std::to_string(key.scheduleDigest);
}

std::string
WarmStateStore::diskPath(const WarmStateKey &key) const
{
    return cfg_.diskDir + '/' + key.kernel + "-s" +
           std::to_string(key.seed) + "-b" +
           std::to_string(key.boundaryOps) + "-t" +
           std::to_string(key.totalOps) + "-c" +
           std::to_string(key.chunkOps) + "-d" + hex16(key.configDigest) +
           "-w" + std::to_string(key.windowIndex) + "-g" +
           hex16(key.scheduleDigest) + "-v" +
           std::to_string(kWarmStateFormatVersion) + ".cws";
}

WarmStateStore::SnapshotPtr
WarmStateStore::find(const WarmStateKey &key)
{
    const std::string mk = mapKey(key);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(mk);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.hits;
            if (key.windowIndex > 0)
                ++stats_.windowHits;
            return it->second->snap;
        }
    }
    if (!cfg_.diskDir.empty()) {
        auto loaded = loadDiskChecked(key);
        if (loaded.ok()) {
            SnapshotPtr snap = std::move(loaded).value();
            std::lock_guard<std::mutex> lock(mu_);
            auto it = map_.find(mk);
            if (it != map_.end()) {
                // A writer published while we read the file; serve the
                // resident copy (the bytes are identical either way).
                lru_.splice(lru_.begin(), lru_, it->second);
                snap = it->second->snap;
            } else {
                lru_.push_front(Entry{mk, snap}); // catch-lint: allow(step-alloc) once per restored snapshot, not per cycle
                map_[mk] = lru_.begin();
                chargeLocked(*snap);
                evictOverBudgetLocked();
            }
            ++stats_.hits;
            ++stats_.diskHits;
            if (key.windowIndex > 0)
                ++stats_.windowHits;
            return snap;
        }
        const SimError &e = loaded.error();
        if (e.category == ErrorCategory::TraceCorrupt) {
            // Contain, don't crash: drop the bad record so the slot is
            // republished from a fresh warm, and report a miss — the
            // caller re-warms deterministically.
            warn(e.message, " — dropping the snapshot and re-warming");
            std::remove(diskPath(key).c_str());
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    if (key.windowIndex > 0)
        ++stats_.windowMisses;
    return nullptr;
}

WarmStateStore::SnapshotPtr
WarmStateStore::put(const WarmStateKey &key, WarmSnapshot snap)
{
    const std::string mk = mapKey(key);
    SnapshotPtr s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(mk);
        if (it != map_.end()) {
            // First writer wins; every writer holds identical bytes.
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->snap;
        }
        s = std::make_shared<const WarmSnapshot>(std::move(snap)); // catch-lint: allow(step-alloc) once per published snapshot, not per cycle
        lru_.push_front(Entry{mk, s}); // catch-lint: allow(step-alloc) once per published snapshot, not per cycle
        map_[mk] = lru_.begin();
        chargeLocked(*s);
        ++stats_.puts;
        evictOverBudgetLocked();
    }
    if (!cfg_.diskDir.empty()) {
        auto w = writeDisk(key, *s);
        if (!w.ok())
            warn(w.error().message,
                 " — disk tier skipped for this snapshot");
    }
    return s;
}

void
WarmStateStore::remove(const WarmStateKey &key)
{
    const std::string mk = mapKey(key);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(mk);
        if (it != map_.end()) {
            releaseLocked(*it->second->snap);
            lru_.erase(it->second);
            map_.erase(it);
        }
    }
    if (!cfg_.diskDir.empty())
        std::remove(diskPath(key).c_str());
}

void
WarmStateStore::evictOverBudgetLocked()
{
    // Never evict below one resident snapshot: the entry just inserted
    // must survive long enough to be returned to its requester.
    while (residentBytes_ > cfg_.memBudgetBytes && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        releaseLocked(*victim.snap);
        map_.erase(victim.mapKey);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void
WarmStateStore::chargeLocked(const WarmSnapshot &snap)
{
    residentBytes_ += snap.bytes.size() + snap.pages.size() * sizeof(Addr);
    for (const auto &kv : snap.pages)
        if (++pageRefs_[kv.second.get()] == 1)
            residentBytes_ += sizeof(FunctionalMemory::Page);
}

void
WarmStateStore::releaseLocked(const WarmSnapshot &snap)
{
    residentBytes_ -= snap.bytes.size() + snap.pages.size() * sizeof(Addr);
    for (const auto &kv : snap.pages) {
        auto it = pageRefs_.find(kv.second.get());
        CATCHSIM_ASSERT(it != pageRefs_.end(),
                        "releasing a page the store never charged");
        if (--it->second == 0) {
            pageRefs_.erase(it);
            residentBytes_ -= sizeof(FunctionalMemory::Page);
        }
    }
}

Expected<void>
WarmStateStore::writeDisk(const WarmStateKey &key, const WarmSnapshot &snap)
{
    const std::string path = diskPath(key);
    {
        // Already persisted (by an earlier run or another worker racing
        // on the same identity): the bytes are canonical, keep them.
        FilePtr probe(std::fopen(path.c_str(), "rb"));
        if (probe)
            return {};
    }
    const uint64_t payload_len = 8 + snap.bytes.size() + 8 +
                                 snap.pages.size() * kPageRecordBytes;
    const uint64_t total = kWarmHeaderBytes + key.kernel.size() +
                           kWarmTrailerBytes + payload_len;
    std::vector<uint8_t> out(total);
    size_t at = 0;
    putBytes(out, at, kWarmStateMagic, sizeof(kWarmStateMagic));
    at += sizeof(kWarmStateMagic);
    const uint32_t version = kWarmStateFormatVersion;
    putBytes(out, at, &version, 4);
    at += 4;
    putBytes(out, at, &key.seed, 8);
    at += 8;
    putBytes(out, at, &key.boundaryOps, 8);
    at += 8;
    putBytes(out, at, &key.totalOps, 8);
    at += 8;
    putBytes(out, at, &key.chunkOps, 8);
    at += 8;
    putBytes(out, at, &key.configDigest, 8);
    at += 8;
    putBytes(out, at, &key.windowIndex, 8);
    at += 8;
    putBytes(out, at, &key.scheduleDigest, 8);
    at += 8;
    const uint32_t name_len = static_cast<uint32_t>(key.kernel.size());
    putBytes(out, at, &name_len, 4);
    at += 4;
    putBytes(out, at, key.kernel.data(), key.kernel.size());
    at += key.kernel.size();
    putBytes(out, at, &payload_len, 8);
    at += 8;
    const uint64_t blob_len = snap.bytes.size();
    putBytes(out, at, &blob_len, 8);
    at += 8;
    putBytes(out, at, snap.bytes.data(), snap.bytes.size());
    at += snap.bytes.size();
    const uint64_t page_count = snap.pages.size();
    putBytes(out, at, &page_count, 8);
    at += 8;
    for (const auto &kv : snap.pages) {
        putBytes(out, at, &kv.first, 8);
        at += 8;
        putBytes(out, at, kv.second->words, sizeof(FunctionalMemory::Page));
        at += sizeof(FunctionalMemory::Page);
    }
    const uint64_t sum = fnv1a(out.data(), at);
    putBytes(out, at, &sum, 8);
    at += 8;
    CATCHSIM_ASSERT(at == total, "snapshot record layout mismatch");

    // Write to a unique temp name, then rename: readers only ever see
    // complete, checksummed records, even across concurrent writers.
    const std::string tmp =
        path + ".tmp" +
        std::to_string(tmpSerial_.fetch_add(1, std::memory_order_relaxed));
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f)
        return simError(ErrorCategory::IoTransient,
                        "warm-state store: cannot open '", tmp,
                        "' for writing");
    if (std::fwrite(out.data(), 1, out.size(), f.get()) != out.size() ||
        std::fflush(f.get()) != 0) {
        f.reset();
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient,
                        "warm-state store: write to '", tmp, "' failed");
    }
    f.reset();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient,
                        "warm-state store: cannot rename '", tmp,
                        "' to '", path, "'");
    }
    return {};
}

Expected<WarmStateStore::SnapshotPtr>
WarmStateStore::loadDiskChecked(const WarmStateKey &key)
{
    const std::string path = diskPath(key);
    auto corrupt = [&path](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, "snapshot file '",
                        path, "': ", what...);
    };
    // Deterministic fault injection: the reserved "warm-state-store"
    // target corrupts every disk read, and "warm-state-window" only the
    // window-boundary (mid-campaign) ones, so CI can drive both
    // containment paths (drop + re-warm) without real bit flips.
    if (cfg_.plan &&
        cfg_.plan->shouldInject(FaultKind::StateCorrupt,
                                "warm-state-store"))
        return corrupt("injected warm-state corruption");
    if (key.windowIndex > 0 && cfg_.plan &&
        cfg_.plan->shouldInject(FaultKind::StateCorrupt,
                                "warm-state-window"))
        return corrupt("injected window-boundary corruption");

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return simError(ErrorCategory::Config, "no snapshot file '",
                        path, "'");
    // The payload length is variable (the page map grows with the
    // workload), so only a lower bound is known before the header is
    // read; the checksum still covers every byte before anything in
    // the record is trusted.
    const uint64_t least = kWarmHeaderBytes + key.kernel.size() +
                           kWarmTrailerBytes + 8 + 8;
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return simError(ErrorCategory::IoTransient, "cannot seek in '",
                        path, "'");
    const long told = std::ftell(f.get());
    if (told < 0)
        return simError(ErrorCategory::IoTransient, "cannot size '",
                        path, "'");
    if (static_cast<uint64_t>(told) < least)
        return corrupt(told, " bytes on disk, expected at least ", least,
                       " (truncated or foreign record)");
    std::rewind(f.get());
    std::vector<uint8_t> buf(static_cast<uint64_t>(told));
    if (std::fread(buf.data(), 1, buf.size(), f.get()) != buf.size())
        return corrupt("short read of ", buf.size(), " bytes");

    uint64_t sum = 0;
    std::memcpy(&sum, buf.data() + buf.size() - 8, 8);
    if (fnv1a(buf.data(), buf.size() - 8) != sum)
        return corrupt("FNV-1a checksum mismatch (bit flip?)");

    size_t at = 0;
    if (std::memcmp(buf.data(), kWarmStateMagic,
                    sizeof(kWarmStateMagic)) != 0)
        return corrupt("bad magic");
    at += sizeof(kWarmStateMagic);
    uint32_t version = 0;
    std::memcpy(&version, buf.data() + at, 4);
    at += 4;
    if (version != kWarmStateFormatVersion)
        return corrupt("unsupported version ", version, ", expected ",
                       kWarmStateFormatVersion);
    uint64_t seed = 0;
    std::memcpy(&seed, buf.data() + at, 8);
    at += 8;
    uint64_t boundary = 0;
    std::memcpy(&boundary, buf.data() + at, 8);
    at += 8;
    uint64_t total_ops = 0;
    std::memcpy(&total_ops, buf.data() + at, 8);
    at += 8;
    uint64_t chunk_ops = 0;
    std::memcpy(&chunk_ops, buf.data() + at, 8);
    at += 8;
    uint64_t digest = 0;
    std::memcpy(&digest, buf.data() + at, 8);
    at += 8;
    uint64_t window_index = 0;
    std::memcpy(&window_index, buf.data() + at, 8);
    at += 8;
    uint64_t schedule_digest = 0;
    std::memcpy(&schedule_digest, buf.data() + at, 8);
    at += 8;
    uint32_t name_len = 0;
    std::memcpy(&name_len, buf.data() + at, 4);
    at += 4;
    if (seed != key.seed || boundary != key.boundaryOps ||
        total_ops != key.totalOps || chunk_ops != key.chunkOps ||
        digest != key.configDigest || window_index != key.windowIndex ||
        schedule_digest != key.scheduleDigest ||
        name_len != key.kernel.size() ||
        std::memcmp(buf.data() + at, key.kernel.data(), name_len) != 0)
        return corrupt("header does not match the requested key");
    at += name_len;
    uint64_t payload_len = 0;
    std::memcpy(&payload_len, buf.data() + at, 8);
    at += 8;
    if (payload_len != buf.size() - at - 8)
        return corrupt("payload length ", payload_len,
                       " disagrees with the record size");
    const size_t payload_end = at + payload_len;

    uint64_t blob_len = 0;
    std::memcpy(&blob_len, buf.data() + at, 8);
    at += 8;
    if (blob_len > payload_end - at - 8)
        return corrupt("component blob length ", blob_len,
                       " overruns the payload");
    auto snap = std::make_shared<WarmSnapshot>(); // catch-lint: allow(step-alloc) once per restored snapshot, not per cycle
    snap->bytes.assign( // catch-lint: allow(step-alloc) once per restored snapshot
        reinterpret_cast<const char *>(buf.data()) + at, blob_len);
    at += blob_len;
    uint64_t page_count = 0;
    std::memcpy(&page_count, buf.data() + at, 8);
    at += 8;
    if (payload_end - at != page_count * kPageRecordBytes)
        return corrupt("page section of ", payload_end - at,
                       " bytes disagrees with page count ", page_count);
    snap->pages.reserve(page_count); // catch-lint: allow(step-alloc) sized once per restored snapshot
    Addr prev = 0;
    for (uint64_t i = 0; i < page_count; ++i) {
        Addr a = 0;
        std::memcpy(&a, buf.data() + at, 8);
        at += 8;
        if (i > 0 && a <= prev)
            return corrupt("page addresses are not strictly ascending");
        prev = a;
        auto p = std::make_shared<FunctionalMemory::Page>(); // catch-lint: allow(step-alloc) once per restored page, off the per-cycle path
        std::memcpy(p->words, buf.data() + at,
                    sizeof(FunctionalMemory::Page));
        at += sizeof(FunctionalMemory::Page);
        snap->pages.emplace_back(a, std::move(p)); // catch-lint: allow(step-alloc) fills the reservation above
    }

    return SnapshotPtr(std::move(snap));
}

WarmStateStore::Stats
WarmStateStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
WarmStateStore::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return residentBytes_;
}

// --- process-wide store ------------------------------------------------

WarmStateStore *
WarmStateStore::global()
{
    // Leaked singleton (never destructed), mirroring ChunkStore: the
    // store may still serve snapshots while static destructors run.
    static WarmStateStore *const store = []() -> WarmStateStore * {
        const std::string dir = envString("CATCH_WARM_STATE_CACHE");
        if (!envFlag("CATCH_WARM_STATE") && dir.empty())
            return nullptr;
        Config cfg;
        cfg.memBudgetBytes = envU64("CATCH_WARM_STATE_MB", 128) << 20;
        cfg.diskDir = dir;
        cfg.perWindow = envU64("CATCH_WARM_STATE_WINDOWS", 1) != 0;
        cfg.minWindowGapInstrs =
            envU64("CATCH_WARM_STATE_MIN_GAP", cfg.minWindowGapInstrs);
        cfg.maxWindowPages =
            envU64("CATCH_WARM_STATE_MAX_PAGES", cfg.maxWindowPages);
        cfg.plan = &FaultPlan::global();
        return new WarmStateStore(std::move(cfg)); // catch-lint: allow(raw-new-delete) intentionally leaked process singleton
    }();
    return store;
}

} // namespace catchsim
