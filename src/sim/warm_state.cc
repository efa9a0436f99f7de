#include "sim/warm_state.hh"

#include <cstdio>
#include <cstring>
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

// The record payload is [u64 blob len][blob bytes][u64 page count]
// [(u64 page addr, 4096-byte raw page) x count], pages in strictly
// ascending address order. Raw pages keep the record memcpy-parseable:
// a restore allocates shared handles straight off the read buffer with
// no per-word decode.
constexpr uint64_t kPageRecordBytes = 8 + sizeof(FunctionalMemory::Page);

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
readU64(const uint8_t *&at)
{
    uint64_t v = 0;
    std::memcpy(&v, at, 8);
    at += 8;
    return v;
}

Expected<BlobStore::Value>
decodeSnapshot(const uint8_t *in, size_t n)
{
    auto defect = [](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, what...);
    };
    const uint8_t *at = in;
    const uint8_t *const end = in + n;
    const uint64_t blob_len = readU64(at);
    if (blob_len > uint64_t(end - at) - 8)
        return defect("component blob length ", blob_len,
                      " overruns the payload");
    auto snap = std::make_shared<WarmSnapshot>(); // catch-lint: allow(step-alloc) once per restored snapshot, not per cycle
    snap->bytes.assign(reinterpret_cast<const char *>(at), blob_len); // catch-lint: allow(step-alloc) once per restored snapshot
    at += blob_len;
    // Divide rather than multiply: page_count is untrusted, and the
    // product can wrap back to the section size.
    const uint64_t page_count = readU64(at);
    const uint64_t section = uint64_t(end - at);
    if (section % kPageRecordBytes != 0 ||
        section / kPageRecordBytes != page_count)
        return defect("page section of ", section,
                      " bytes disagrees with page count ", page_count);
    snap->pages.reserve(page_count); // catch-lint: allow(step-alloc) sized once per restored snapshot
    for (uint64_t i = 0; i < page_count; ++i) {
        const Addr a = readU64(at);
        if (i > 0 && a <= snap->pages.back().first)
            return defect("page addresses are not strictly ascending");
        auto p = std::make_shared<FunctionalMemory::Page>(); // catch-lint: allow(step-alloc) once per restored page, off the per-cycle path
        std::memcpy(p->words, at, sizeof(FunctionalMemory::Page));
        at += sizeof(FunctionalMemory::Page);
        snap->pages.emplace_back(a, std::move(p)); // catch-lint: allow(step-alloc) fills the reservation above
    }
    return BlobStore::Value(std::move(snap));
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
    : minWindowGap_(cfg.minWindowGapInstrs),
      maxWindowPages_(cfg.maxWindowPages),
      blobs_([this, &cfg] {
          BlobStore::Config c;
          c.name = "warm-state store";
          c.magic = kWarmStateMagic;
          c.version = kWarmStateFormatVersion;
          c.memBudgetBytes = cfg.memBudgetBytes;
          c.charge = [this](const void *snap, bool admit) {
              return chargeLocked(*static_cast<const WarmSnapshot *>(snap),
                                  admit);
          };
          c.plan = cfg.plan;
          c.faultKind = FaultKind::StateCorrupt;
          c.faultTarget = "warm-state-store";
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
WarmStateStore::recordKey(const WarmStateKey &key)
{
    BlobStore::Key k;
    k.id = key.kernel + '|' + std::to_string(key.seed) + '|' +
           std::to_string(key.boundaryOps) + '|' +
           std::to_string(key.totalOps) + '|' +
           std::to_string(key.chunkOps) + '|' +
           std::to_string(key.configDigest) + '|' +
           std::to_string(key.windowIndex) + '|' +
           std::to_string(key.scheduleDigest);
    k.file = key.kernel + "-s" + std::to_string(key.seed) + "-b" +
             std::to_string(key.boundaryOps) + "-t" +
             std::to_string(key.totalOps) + "-c" +
             std::to_string(key.chunkOps) + "-d" +
             hex16(key.configDigest) + "-w" +
             std::to_string(key.windowIndex) + "-g" +
             hex16(key.scheduleDigest) + "-v" +
             std::to_string(kWarmStateFormatVersion) + ".cws";
    // The page map grows with the workload, so only a floor is known:
    // the blob length and page count words.
    k.minPayload = 8 + 8;
    // "warm-state-window" corrupts only window-boundary reads, so CI
    // drives the mid-campaign containment path while the global-warmup
    // restore still succeeds.
    if (key.windowIndex > 0)
        k.faultTarget = "warm-state-window";
    return k;
}

std::string
WarmStateStore::diskPath(const WarmStateKey &key) const
{
    return blobs_.path(recordKey(key));
}

WarmStateStore::SnapshotPtr
WarmStateStore::find(const WarmStateKey &key)
{
    auto snap = std::static_pointer_cast<const WarmSnapshot>(
        blobs_.find(recordKey(key), decodeSnapshot));
    if (key.windowIndex > 0)
        ++(snap ? windowHits_ : windowMisses_);
    return snap;
}

WarmStateStore::SnapshotPtr
WarmStateStore::put(const WarmStateKey &key, WarmSnapshot snap)
{
    auto s = std::make_shared<const WarmSnapshot>(std::move(snap)); // catch-lint: allow(step-alloc) once per published snapshot, not per cycle
    auto encode = [&s](std::vector<uint8_t> &out) {
        size_t at = out.size();
        out.resize(at + 8 + s->bytes.size() + 8 + // catch-lint: allow(step-alloc) once per published snapshot, not per cycle
                   s->pages.size() * kPageRecordBytes);
        auto put_u64 = [&](uint64_t v) {
            std::memcpy(out.data() + at, &v, 8);
            at += 8;
        };
        put_u64(s->bytes.size());
        std::memcpy(out.data() + at, s->bytes.data(), s->bytes.size());
        at += s->bytes.size();
        put_u64(s->pages.size());
        for (const auto &kv : s->pages) {
            put_u64(kv.first);
            std::memcpy(out.data() + at, kv.second->words,
                        sizeof(FunctionalMemory::Page));
            at += sizeof(FunctionalMemory::Page);
        }
    };
    return std::static_pointer_cast<const WarmSnapshot>(
        blobs_.put(recordKey(key), s, encode));
}

void
WarmStateStore::remove(const WarmStateKey &key)
{
    blobs_.remove(recordKey(key));
}

size_t
WarmStateStore::chargeLocked(const WarmSnapshot &snap, bool admit)
{
    size_t bytes = snap.bytes.size() + snap.pages.size() * sizeof(Addr);
    for (const auto &kv : snap.pages) {
        if (admit) {
            if (++pageRefs_[kv.second.get()] == 1)
                bytes += sizeof(FunctionalMemory::Page);
            continue;
        }
        auto it = pageRefs_.find(kv.second.get());
        CATCHSIM_ASSERT(it != pageRefs_.end(),
                        "releasing a page the store never charged");
        if (--it->second == 0) {
            pageRefs_.erase(it);
            bytes += sizeof(FunctionalMemory::Page);
        }
    }
    return bytes;
}

Expected<WarmStateStore::SnapshotPtr>
WarmStateStore::loadDiskChecked(const WarmStateKey &key)
{
    auto loaded = blobs_.load(recordKey(key), decodeSnapshot);
    if (!loaded.ok())
        return loaded.error();
    return std::static_pointer_cast<const WarmSnapshot>(
        std::move(loaded).value());
}

WarmStateStore::Stats
WarmStateStore::stats() const
{
    return Stats{blobs_.stats(), windowHits_.load(), windowMisses_.load()};
}

size_t
WarmStateStore::residentBytes() const
{
    return blobs_.residentBytes();
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
