/**
 * @file
 * The warmed-state store's correctness contract, pinned exhaustively:
 *
 *  1. Keying — warmConfigDigest() is invariant under every pure timing
 *     knob (that invariance is the whole speedup story: latency
 *     resweeps share snapshots) and sensitive to every warming-visible
 *     knob; snapshot blobs are a pure function of the key.
 *  2. Equivalence — full sampled campaigns are bitwise-identical with
 *     the store disabled, cold, warm, disk-backed or eviction-
 *     thrashing, at jobs 1/8/16. The store may only ever be a speed
 *     lever, never a correctness hazard; detailed mode and ineligible
 *     runs never consult it.
 *  3. LRU mechanics — exact-budget eviction order, find() recency
 *     touches, and the one-resident-snapshot floor.
 *  4. Disk-tier validation — every corruption mode (missing file,
 *     truncation, bit flip, version skew, key mismatch, injected)
 *     surfaces as the documented taxonomy, drops the bad record, and
 *     falls back to re-warming. Never a crash, never silently wrong.
 *  5. Component round trips — every warmed component's save → load →
 *     save is byte-identical through a freshly constructed instance,
 *     so a restore is indistinguishable from the warm it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/fault_inject.hh"
#include "common/state_io.hh"
#include "core/branch_predictor.hh"
#include "criticality/critical_table.hh"
#include "sim/configs.hh"
#include "sim/fast_forward.hh"
#include "sim/parallel_runner.hh"
#include "sim/warm_state.hh"
#include "sim_result_compare.hh"
#include "tact/tact.hh"
#include "trace/chunk_store.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

const FaultPlan kNoFaults;

/** Campaign workloads spanning every suite category. */
std::vector<std::string>
campaignNames()
{
    return {"mcf", "omnetpp", "hmmer", "hplinpack", "tpcc", "gobmk"};
}

/** A synthetic snapshot identity for LRU/disk unit tests. */
WarmStateKey
wkeyAt(uint64_t n)
{
    return WarmStateKey{"mcf", 7, kWarm, kInstr + kWarm,
                        TraceStream::kDefaultChunkOps, 0x1000 + n};
}

/** An arbitrary pseudo-random blob (content only matters on disk). */
std::string
dummyBlob(size_t bytes, uint8_t tag)
{
    std::string blob(bytes, '\0');
    uint64_t x = 0x9e3779b97f4a7c15ULL ^ tag;
    for (size_t i = 0; i < bytes; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        blob[i] = static_cast<char>(x);
    }
    return blob;
}

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

IsolationOptions
optsWithStores(ChunkStore *chunks, WarmStateStore *warm)
{
    IsolationOptions opts;
    opts.plan = &kNoFaults;
    opts.backoffMs = 0;
    opts.store = chunks;
    opts.warmStore = warm;
    return opts;
}

SimConfig
sampledCfg(SimConfig cfg)
{
    cfg.sampling.mode = SampleMode::Sampled;
    cfg.sampling.intervalInstrs = 5000;
    cfg.sampling.windowInstrs = 2000;
    cfg.sampling.warmupInstrs = 2000;
    return cfg;
}

/**
 * Store config with the window-eligibility gates disabled. The test
 * schedule above has a 1000-instruction slack — far below the default
 * minWindowGapInstrs floor, which exists because restoring a window
 * snapshot only pays off against long warming gaps. The functional
 * contract under test (bitwise equivalence, counter attribution,
 * record purity) must hold whenever windows memoize, so these tests
 * opt out of the profitability heuristic.
 */
WarmStateStore::Config
ungatedWindows()
{
    WarmStateStore::Config cfg;
    cfg.minWindowGapInstrs = 0;
    cfg.maxWindowPages = 0;
    return cfg;
}

/** FNV-1a golden over a whole campaign's serialized results. */
uint64_t
campaignHash(const std::vector<RunOutcome> &outcomes)
{
    uint64_t h = 1469598103934665603ULL;
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.ok()) << o.workload;
        const std::string json = o.result.toJson();
        h = fnv1a(json.data(), json.size(), h);
    }
    return h;
}

// ---------------------- Config digest ----------------------------

TEST(WarmConfigDigest, PureTimingKnobsShareTheDigest)
{
    // The headline property: a latency/bandwidth resweep — the bread
    // and butter of the paper's figures — must map every point onto
    // the same snapshot. Warming stamps fills with readyAt 0 and never
    // advances the clock, so none of these knobs can reach warm state.
    const SimConfig base = withCatch(baselineSkx());
    const uint64_t d = warmConfigDigest(base);

    SimConfig t = base;
    t.l1d.latency = 9;
    t.l2.latency = 30;
    t.llc.latency = 80;
    t.oracle.latAddL1 = 3;
    t.oracle.latAddLlc = 10;
    t.oracle.demote = DemoteMode::L1ToL2All;
    t.width = 2;
    t.robSize = 64;
    t.storeQueueSize = 16;
    t.fwdLatency = 1;
    t.aluPorts = 1;
    t.dram.tCas = 80;
    t.dram.controllerLat = 60;
    t.sampling.intervalInstrs = 777;
    t.sampling.windowInstrs = 333;
    t.name = "renamed";
    EXPECT_EQ(warmConfigDigest(t), d)
        << "a pure timing resweep must share the warmed snapshot";
}

TEST(WarmConfigDigest, WarmingVisibleKnobsReKeyTheDigest)
{
    const SimConfig base = withCatch(baselineSkx());
    const uint64_t d = warmConfigDigest(base);
    // Each mutation can reach tag/replacement/predictor/TACT state
    // during warming, so each must produce a distinct snapshot key.
    std::vector<std::pair<std::string, SimConfig>> variants;
    auto add = [&](const std::string &what, auto &&mutate) {
        SimConfig v = base;
        mutate(v);
        variants.emplace_back(what, v);
    };
    add("seed", [](SimConfig &v) { v.seed += 1; });
    add("llc ways", [](SimConfig &v) { v.llc.ways = 8; });
    add("l2 size", [](SimConfig &v) { v.l2.sizeBytes /= 2; });
    add("inclusion", [](SimConfig &v) {
        v.inclusion = InclusionPolicy::Inclusive;
    });
    add("stride prefetcher", [](SimConfig &v) {
        v.l1StridePrefetcher = false;
    });
    add("stream degree", [](SimConfig &v) { v.streamDegree = 2; });
    add("criticality table", [](SimConfig &v) {
        v.criticality.tableEntries *= 2;
    });
    add("tact cross", [](SimConfig &v) { v.tact.cross = false; });
    add("tact feeder depth", [](SimConfig &v) { v.tact.feederDepth += 1; });
    add("oracle prefetch", [](SimConfig &v) {
        v.oracle.oraclePrefetch = true;
    });
    for (const auto &[what, v] : variants)
        EXPECT_NE(warmConfigDigest(v), d) << what;
}

// ----------------------- LRU mechanics ---------------------------

TEST(WarmStateLru, FindMissesColdThenHitsAfterPut)
{
    WarmStateStore store;
    WarmStateKey key = wkeyAt(0);
    EXPECT_EQ(store.find(key), nullptr);
    auto put = store.put(key, dummyBlob(256, 1));
    ASSERT_NE(put, nullptr);
    auto hit = store.find(key);
    EXPECT_EQ(hit, put) << "the resident blob is shared, not copied";
    auto s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.puts, 1u);
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(store.residentBytes(), 256u);
}

TEST(WarmStateLru, FirstWriterWinsOnDuplicatePut)
{
    WarmStateStore store;
    WarmStateKey key = wkeyAt(0);
    auto first = store.put(key, dummyBlob(256, 1));
    auto second = store.put(key, dummyBlob(256, 1));
    EXPECT_EQ(first, second);
    EXPECT_EQ(store.stats().puts, 1u)
        << "duplicates are not re-published";
    EXPECT_EQ(store.residentBytes(), 256u);
}

TEST(WarmStateLru, EvictsLeastRecentlyUsedAtExactBudget)
{
    constexpr size_t blob_bytes = 256;
    WarmStateStore::Config cfg;
    cfg.memBudgetBytes = 3 * blob_bytes; // exactly three snapshots
    WarmStateStore store(cfg);

    store.put(wkeyAt(0), dummyBlob(blob_bytes, 0));
    store.put(wkeyAt(1), dummyBlob(blob_bytes, 1));
    store.put(wkeyAt(2), dummyBlob(blob_bytes, 2));
    EXPECT_EQ(store.stats().evictions, 0u)
        << "at budget is not over budget";
    EXPECT_EQ(store.residentBytes(), 3 * blob_bytes);

    // Touch snapshot 0: it becomes most-recent, 1 the LRU victim.
    EXPECT_NE(store.find(wkeyAt(0)), nullptr);
    store.put(wkeyAt(3), dummyBlob(blob_bytes, 3));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.residentBytes(), 3 * blob_bytes);
    EXPECT_EQ(store.find(wkeyAt(1)), nullptr)
        << "the least-recently-used snapshot is the victim";
    EXPECT_NE(store.find(wkeyAt(0)), nullptr);
    EXPECT_NE(store.find(wkeyAt(2)), nullptr);
    EXPECT_NE(store.find(wkeyAt(3)), nullptr);
}

TEST(WarmStateLru, BudgetFloorKeepsTheNewestSnapshotResident)
{
    WarmStateStore::Config cfg;
    cfg.memBudgetBytes = 1; // below a single snapshot
    WarmStateStore store(cfg);
    auto a = store.put(wkeyAt(0), dummyBlob(256, 0));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(store.residentBytes(), 256u)
        << "never evicted below one resident snapshot";
    auto b = store.put(wkeyAt(1), dummyBlob(256, 1));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.find(wkeyAt(0)), nullptr);
    // Shared ownership keeps an evicted-then-reheld snapshot valid.
    EXPECT_EQ(a->bytes.size(), 256u);
}

// ------------------------ Disk tier ------------------------------

/** Writes one checksummed record to @p dir and returns its path. */
std::string
writeOneRecord(const std::string &dir, const std::string &blob)
{
    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore writer(cfg);
    writer.put(wkeyAt(0), blob);
    return writer.diskPath(wkeyAt(0));
}

void
rewriteFile(const std::string &path, const std::vector<char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

std::vector<char>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    std::vector<char> bytes(static_cast<size_t>(std::ftell(f)));
    std::rewind(f);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
}

TEST(WarmStateDisk, RoundTripServesWarmStartAcrossStoreInstances)
{
    const std::string dir = freshDir("warm_state_roundtrip");
    const std::string blob = dummyBlob(4096, 5);
    std::string path = writeOneRecord(dir, blob);
    EXPECT_TRUE(std::filesystem::exists(path));

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore reader(cfg);
    auto loaded = reader.loadDiskChecked(wkeyAt(0));
    ASSERT_TRUE(loaded.ok())
        << (loaded.ok() ? "" : loaded.error().message);
    EXPECT_EQ(loaded.value()->bytes, blob);
    EXPECT_TRUE(loaded.value()->pages.empty());

    auto hit = reader.find(wkeyAt(0));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->bytes, blob);
    auto s = reader.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.corrupt, 0u);

    // Second find comes from the memory tier.
    ASSERT_NE(reader.find(wkeyAt(0)), nullptr);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    std::filesystem::remove_all(dir);
}

TEST(WarmStateDisk, UnwritableCacheDirDegradesToMemoryTier)
{
    // A path below a regular file cannot be created, even by root.
    const std::string blocker = freshDir("warm_state_blocker");
    rewriteFile(blocker, {'x'});
    WarmStateStore::Config cfg;
    cfg.diskDir = blocker + "/nested/cache";
    WarmStateStore store(cfg);
    EXPECT_TRUE(store.diskDir().empty())
        << "an uncreatable dir disables the disk tier, not the store";
    EXPECT_NE(store.put(wkeyAt(0), dummyBlob(64, 0)), nullptr);
    EXPECT_NE(store.find(wkeyAt(0)), nullptr);
}

TEST(WarmStateDisk, MissingFileIsAPlainMissNotCorruption)
{
    const std::string dir = freshDir("warm_state_missing");
    std::string path = writeOneRecord(dir, dummyBlob(512, 2));
    std::filesystem::remove(path);

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore store(cfg);
    auto loaded = store.loadDiskChecked(wkeyAt(0));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::Config)
        << "absence is a config-level miss, not data corruption";
    EXPECT_EQ(store.find(wkeyAt(0)), nullptr);
    auto s = store.stats();
    EXPECT_EQ(s.corrupt, 0u);
    EXPECT_EQ(s.misses, 1u);
    std::filesystem::remove_all(dir);
}

TEST(WarmStateDisk, TruncatedRecordIsCorruptAndDropped)
{
    const std::string dir = freshDir("warm_state_truncated");
    std::string path = writeOneRecord(dir, dummyBlob(512, 3));
    std::vector<char> bytes = readAll(path);
    // Below even the minimal (empty-payload) record size: the size
    // bound rejects it before any field is parsed. A milder
    // truncation is caught by the whole-record checksum instead —
    // that branch is pinned by the bit-flip test below.
    bytes.resize(10);
    rewriteFile(path, bytes);

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore store(cfg);
    auto loaded = store.loadDiskChecked(wkeyAt(0));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find("truncated or foreign"),
              std::string::npos)
        << loaded.error().message;

    EXPECT_EQ(store.find(wkeyAt(0)), nullptr)
        << "corruption reports a miss so the caller re-warms";
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the bad record is dropped so the slot can be rewritten";
    std::filesystem::remove_all(dir);
}

TEST(WarmStateDisk, BitFlipFailsTheChecksumAndIsDropped)
{
    const std::string dir = freshDir("warm_state_bitflip");
    std::string path = writeOneRecord(dir, dummyBlob(512, 4));
    std::vector<char> bytes = readAll(path);
    bytes[bytes.size() / 2] ^= 0x40; // one flipped bit mid-payload
    rewriteFile(path, bytes);

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore store(cfg);
    auto loaded = store.loadDiskChecked(wkeyAt(0));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find("FNV-1a checksum mismatch"),
              std::string::npos)
        << loaded.error().message;
    EXPECT_EQ(store.find(wkeyAt(0)), nullptr);
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    std::filesystem::remove_all(dir);
}

TEST(WarmStateDisk, VersionSkewIsCorruptNotMisparsed)
{
    // A record from a future format version must be refused by the
    // version gate, not fed to component loaders. The checksum is
    // recomputed over the doctored bytes so only the version differs.
    const std::string dir = freshDir("warm_state_version");
    std::string path = writeOneRecord(dir, dummyBlob(512, 5));
    std::vector<char> bytes = readAll(path);
    // u32 version sits right after the 6-byte magic.
    uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 6, 4);
    ASSERT_EQ(version, kWarmStateFormatVersion);
    version += 1;
    std::memcpy(bytes.data() + 6, &version, 4);
    const uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
    rewriteFile(path, bytes);

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore store(cfg);
    auto loaded = store.loadDiskChecked(wkeyAt(0));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find("unsupported version"),
              std::string::npos)
        << loaded.error().message;
    EXPECT_EQ(store.find(wkeyAt(0)), nullptr);
    EXPECT_EQ(store.stats().corrupt, 1u);
    std::filesystem::remove_all(dir);
}

TEST(WarmStateDisk, ForeignRecordAtTheWrongPathFailsTheKeyCheck)
{
    // A checksum-valid record renamed onto another key's path must be
    // rejected by the header/key cross-check, never restored as the
    // wrong warmed state.
    const std::string dir = freshDir("warm_state_foreign");
    std::string path0 = writeOneRecord(dir, dummyBlob(512, 6));

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore store(cfg);
    std::string path1 = store.diskPath(wkeyAt(1));
    std::filesystem::rename(path0, path1);

    auto loaded = store.loadDiskChecked(wkeyAt(1));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(
        loaded.error().message.find("does not match the requested key"),
        std::string::npos)
        << loaded.error().message;
    EXPECT_EQ(store.find(wkeyAt(1)), nullptr);
    EXPECT_EQ(store.stats().corrupt, 1u);
    std::filesystem::remove_all(dir);
}

TEST(WarmStateDisk, InjectedStateCorruptFaultTaxonomy)
{
    // The reserved "warm-state-store" injection target corrupts every
    // disk read deterministically; the taxonomy must be trace-corrupt.
    auto parsed = FaultPlan::parse("state-corrupt:warm-state-store");
    ASSERT_TRUE(parsed.ok());
    FaultPlan plan = std::move(parsed).value();
    const std::string dir = freshDir("warm_state_inject_taxonomy");
    std::string path = writeOneRecord(dir, dummyBlob(512, 7));
    ASSERT_TRUE(std::filesystem::exists(path));

    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    cfg.plan = &plan;
    WarmStateStore store(cfg);
    auto loaded = store.loadDiskChecked(wkeyAt(0));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find("injected"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// -------------------- Component round trips ----------------------

/**
 * save → load into a fresh instance → save must be byte-identical:
 * with that, a restored component is indistinguishable from the
 * warmed one it replaced, by induction over any later work.
 */
template <typename Warmed, typename Fresh>
void
expectRoundTrip(const Warmed &warmed, Fresh &fresh,
                const std::string &what)
{
    StateSink a;
    warmed.saveWarmState(a);
    EXPECT_GT(a.size(), 0u) << what;
    StateSource src(a.bytes());
    ASSERT_TRUE(fresh.loadWarmState(src)) << what;
    EXPECT_TRUE(src.exhausted())
        << what << ": loader must consume its whole section";
    StateSink b;
    fresh.saveWarmState(b);
    EXPECT_EQ(a.bytes(), b.bytes()) << what;
}

TEST(WarmStateComponents, EveryWarmedComponentRoundTripsByteIdentical)
{
    // A real warming pass over the full CATCH rig (store-backed
    // stream, criticality query wired into the hierarchy, TACT in
    // warming mode) leaves every component with nontrivial state; each
    // must then survive save → load → save bit-for-bit.
    const size_t total = kInstr + kWarm;
    SimConfig cfg = withCatch(baselineSkx());
    ChunkStore chunks;

    auto wl = makeWorkload("mcf");
    TraceStream stream(*wl, total, TraceStream::kDefaultChunkOps,
                       std::function<double()>(), &chunks);
    CacheHierarchy hierarchy(cfg);
    BranchPredictor predictor;
    CriticalTable table(cfg.criticality);
    hierarchy.setCriticalQuery(
        [&table](CoreId, Addr pc) { return table.isCritical(pc); });
    Tact tact(cfg.tact, 0, hierarchy,
              [&table](Addr pc) { return table.isCritical(pc); },
              stream.mem().get());
    tact.setWarming(true);
    FastForward ff(0, hierarchy, predictor, &tact);
    ff.bind(stream);

    // Seed the critical table so entries span confidence levels and
    // the warm pass sees live critical PCs through the query hook.
    for (int rep = 0; rep < 3; ++rep)
        for (Addr pc = 0x400000; pc < 0x400000 + 40 * 4; pc += 4)
            if (rep < 1 + static_cast<int>(pc % 3))
                table.record(pc);
    const size_t end = ff.warm(0, kWarm, 0);
    ASSERT_GT(end, 0u);
    table.tick(kWarm);

    // Fresh instances, constructed exactly like a restoring run would.
    auto wl2 = makeWorkload("mcf");
    TraceStream stream2(*wl2, total, TraceStream::kDefaultChunkOps,
                        std::function<double()>(), &chunks);
    CacheHierarchy hierarchy2(cfg);
    BranchPredictor predictor2;
    CriticalTable table2(cfg.criticality);
    Tact tact2(cfg.tact, 0, hierarchy2,
               [&table2](Addr pc) { return table2.isCritical(pc); },
               stream2.mem().get());
    FastForward ff2(0, hierarchy2, predictor2, &tact2);
    ff2.bind(stream2);

    // Snapshot order: the stream first (TACT's feeder reads its
    // functional memory), then the independent components. The stream
    // round-trips in two pieces: the frontier blob through the sink,
    // and the memory as a COW page image the restore adopts.
    {
        StateSink a;
        stream.saveWarmState(a);
        EXPECT_GT(a.size(), 0u) << "TraceStream";
        FunctionalMemory::PageImage pages = stream.mem()->snapshotPages();
        StateSource src(a.bytes());
        ASSERT_TRUE(stream2.loadWarmState(src, pages)) << "TraceStream";
        EXPECT_TRUE(src.exhausted())
            << "TraceStream: loader must consume its whole section";
        StateSink b;
        stream2.saveWarmState(b);
        EXPECT_EQ(a.bytes(), b.bytes()) << "TraceStream";
        // The adopted image serializes identically from both memories:
        // the restore shared pages, it did not reinterpret them.
        StateSink ma, mb;
        FunctionalMemory::savePages(pages, ma);
        FunctionalMemory::savePages(stream2.mem()->snapshotPages(), mb);
        EXPECT_EQ(ma.bytes(), mb.bytes()) << "TraceStream memory image";
    }
    expectRoundTrip(hierarchy, hierarchy2, "CacheHierarchy");
    expectRoundTrip(predictor, predictor2, "BranchPredictor");
    expectRoundTrip(table, table2, "CriticalTable");
    expectRoundTrip(tact, tact2, "Tact");
    expectRoundTrip(ff, ff2, "FastForward");

    // The restored table answers queries identically, stats included.
    EXPECT_EQ(table2.activeCount(), table.activeCount());
    EXPECT_EQ(table2.stats().queries, table.stats().queries);
    EXPECT_EQ(table2.stats().queryHits, table.stats().queryHits);
}

TEST(WarmStateComponents, GeometryMismatchRefusesTheLoad)
{
    // A snapshot taken from a differently shaped table must be refused
    // by the loader, not reinterpreted — the digest makes this key
    // collision impossible in production, but the loader is the last
    // line of defense against a format bug.
    SimConfig cfg = withCatch(baselineSkx());
    CriticalTable small(cfg.criticality);
    small.record(0x400000);
    StateSink sink;
    small.saveWarmState(sink);

    CriticalityConfig big_cfg = cfg.criticality;
    big_cfg.tableEntries *= 2;
    CriticalTable big(big_cfg);
    StateSource src(sink.bytes());
    EXPECT_FALSE(big.loadWarmState(src))
        << "a mis-sized snapshot must be rejected, not reinterpreted";
}

TEST(WarmStateComponents, SnapshotBlobIsAPureFunctionOfTheKey)
{
    // Two independent cold runs in separate processes-worth of state
    // must publish byte-identical records at the same deterministic
    // paths — the property that makes sharing a disk tier across
    // machines and runs sound. With per-window keys a single sampled
    // run publishes the global-warmup snapshot plus one record per
    // inter-window gap; every one of them must reproduce.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    std::vector<std::string> dirs;
    for (int rep = 0; rep < 2; ++rep) {
        const std::string dir =
            freshDir("warm_state_pure_" + std::to_string(rep));
        ChunkStore chunks;
        WarmStateStore::Config store_cfg = ungatedWindows();
        store_cfg.diskDir = dir;
        WarmStateStore warm(store_cfg);
        auto out = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                        optsWithStores(&chunks, &warm));
        ASSERT_TRUE(out[0].ok());
        EXPECT_GE(warm.stats().puts, 2u)
            << "expected the global snapshot plus window boundaries";
        dirs.push_back(dir);
    }
    std::vector<std::vector<std::filesystem::path>> records;
    for (const auto &dir : dirs) {
        std::vector<std::filesystem::path> files;
        for (const auto &e : std::filesystem::directory_iterator(dir))
            files.push_back(e.path());
        std::sort(files.begin(), files.end());
        ASSERT_GE(files.size(), 2u) << dir;
        records.push_back(std::move(files));
    }
    ASSERT_EQ(records[0].size(), records[1].size())
        << "both runs must publish the same snapshot set";
    for (size_t i = 0; i < records[0].size(); ++i) {
        EXPECT_EQ(records[0][i].filename(), records[1][i].filename())
            << "the record path is part of the deterministic contract";
        EXPECT_EQ(readAll(records[0][i]), readAll(records[1][i]))
            << records[0][i].filename()
            << ": independent warms must serialize bitwise-identical "
               "state";
    }
    for (const auto &dir : dirs)
        std::filesystem::remove_all(dir);
}

// ------------------ Campaign equivalence -------------------------

/**
 * The acceptance matrix: one fault-free baseline without stores, then
 * every warm-store state at every job count must hash to the same
 * campaign golden and compare bitwise-equal slot by slot.
 */
void
expectWarmStateEquivalence(const SimConfig &cfg)
{
    const std::vector<std::string> names = campaignNames();
    auto baseline = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                         optsWithStores(nullptr, nullptr));
    const uint64_t golden = campaignHash(baseline);

    const std::string dir =
        freshDir(std::string("warm_state_equiv_") + cfg.name);
    ChunkStore chunks; // warm-state eligibility needs a store-backed stream
    WarmStateStore::Config disk_cfg = ungatedWindows();
    disk_cfg.diskDir = dir;
    WarmStateStore warm(disk_cfg); // shared across job counts: stays warm
    WarmStateStore::Config tiny_cfg = ungatedWindows();
    tiny_cfg.memBudgetBytes = 1; // evicts after every insertion
    WarmStateStore evicting(tiny_cfg);

    for (unsigned jobs : {1u, 8u, 16u}) {
        SCOPED_TRACE(cfg.name + " jobs=" + std::to_string(jobs));

        auto off = runWorkloadsIsolated(cfg, names, kInstr, kWarm, jobs,
                                        optsWithStores(&chunks, nullptr));
        EXPECT_EQ(campaignHash(off), golden);

        WarmStateStore cold(ungatedWindows());
        auto with_cold =
            runWorkloadsIsolated(cfg, names, kInstr, kWarm, jobs,
                                 optsWithStores(&chunks, &cold));
        EXPECT_EQ(campaignHash(with_cold), golden);
        EXPECT_GT(cold.stats().puts, 0u);

        auto with_warm =
            runWorkloadsIsolated(cfg, names, kInstr, kWarm, jobs,
                                 optsWithStores(&chunks, &warm));
        EXPECT_EQ(campaignHash(with_warm), golden);

        auto thrash =
            runWorkloadsIsolated(cfg, names, kInstr, kWarm, jobs,
                                 optsWithStores(&chunks, &evicting));
        EXPECT_EQ(campaignHash(thrash), golden);

        for (size_t i = 0; i < names.size(); ++i) {
            expectBitwiseEqual(with_cold[i].result, baseline[i].result);
            expectBitwiseEqual(with_warm[i].result, baseline[i].result);
            expectBitwiseEqual(thrash[i].result, baseline[i].result);
        }
    }
    EXPECT_GT(warm.stats().hits, 0u) << "the warm store actually served";
    EXPECT_GT(evicting.stats().evictions, 0u)
        << "the tiny store actually thrashed";

    // A fresh store over the same dir starts with an empty memory
    // tier, so this pass proves the disk records themselves restore
    // to the same campaign golden.
    WarmStateStore reader(disk_cfg);
    auto from_disk = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 8,
                                          optsWithStores(&chunks, &reader));
    EXPECT_EQ(campaignHash(from_disk), golden);
    EXPECT_GT(reader.stats().diskHits, 0u)
        << "the disk tier actually served";
    EXPECT_EQ(reader.stats().corrupt, 0u);
    std::filesystem::remove_all(dir);
}

TEST(WarmStateEquivalence, SampledBaselineCampaigns)
{
    expectWarmStateEquivalence(sampledCfg(baselineSkx()));
}

TEST(WarmStateEquivalence, SampledCatchCampaigns)
{
    // The CATCH config warms the criticality table and every TACT
    // learner — the full snapshot surface.
    expectWarmStateEquivalence(sampledCfg(withCatch(baselineSkx())));
}

TEST(WarmStateEquivalence, IneligibleRunsNeverConsultTheStore)
{
    // Detailed mode has no warming boundary; a run without a chunk
    // store cannot restore its stream; a zero-warmup run has nothing
    // to memoize. Each must leave the store completely untouched.
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    WarmStateStore store;

    SimConfig detailed = withCatch(baselineSkx());
    auto d = runWorkloadsIsolated(detailed, names, kInstr, kWarm, 1,
                                  optsWithStores(&chunks, &store));
    ASSERT_TRUE(d[0].ok());

    SimConfig sampled = sampledCfg(withCatch(baselineSkx()));
    auto no_chunks = runWorkloadsIsolated(sampled, names, kInstr, kWarm,
                                          1,
                                          optsWithStores(nullptr, &store));
    ASSERT_TRUE(no_chunks[0].ok());

    auto no_warmup = runWorkloadsIsolated(sampled, names, kInstr, 0, 1,
                                          optsWithStores(&chunks, &store));
    ASSERT_TRUE(no_warmup[0].ok());

    auto s = store.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.puts, 0u);
}

TEST(WarmStateEquivalence, PerRunProfileCountersAttributeHitsAndMisses)
{
    // The profile counters are per-run, never campaign-cumulative: a
    // cold run then a warm run against the same store must report
    // miss-only then hit-only, with the snapshot footprint both times.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    WarmStateStore store(ungatedWindows());
    IsolationOptions opts = optsWithStores(&chunks, &store);
    opts.profile = true;

    auto cold = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1, opts);
    ASSERT_TRUE(cold[0].ok());
    ASSERT_TRUE(cold[0].profile.has_value());
    EXPECT_EQ(cold[0].profile->warmStateMisses, 1u);
    EXPECT_EQ(cold[0].profile->warmStateHits, 0u);
    EXPECT_GT(cold[0].profile->warmStateBytes, 0u);
    // Window-boundary attribution is split from the global counters:
    // the cold run misses (and publishes) every inter-window gap.
    EXPECT_GT(cold[0].profile->warmStateWindowMisses, 0u);
    EXPECT_EQ(cold[0].profile->warmStateWindowHits, 0u);
    EXPECT_GT(cold[0].profile->warmStateWindowBytes, 0u);

    auto warm = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1, opts);
    ASSERT_TRUE(warm[0].ok());
    ASSERT_TRUE(warm[0].profile.has_value());
    EXPECT_EQ(warm[0].profile->warmStateHits, 1u);
    EXPECT_EQ(warm[0].profile->warmStateMisses, 0u)
        << "a cumulative counter would still show the cold miss";
    EXPECT_EQ(warm[0].profile->warmStateBytes,
              cold[0].profile->warmStateBytes)
        << "hit and miss account the same snapshot";
    EXPECT_EQ(warm[0].profile->warmStateWindowHits,
              cold[0].profile->warmStateWindowMisses)
        << "every gap the cold run published must restore warm";
    EXPECT_EQ(warm[0].profile->warmStateWindowMisses, 0u);
    EXPECT_EQ(warm[0].profile->warmStateWindowBytes,
              cold[0].profile->warmStateWindowBytes);
    expectBitwiseEqual(warm[0].result, cold[0].result);
}

TEST(WarmStateEquivalence, EligibilityGatesSkipUnprofitableWindows)
{
    // A window restore costs a near-constant blob parse plus an
    // O(pages) map adoption, so it only pays against long warming
    // gaps over modest page maps. Both gates must leave results
    // bitwise-identical — they redirect the simulator to re-warm,
    // which derives the same state — while keeping window records
    // out of the store.
    SimConfig cfg = sampledCfg(withCatch(baselineSkx()));
    const std::vector<std::string> names = {"mcf"};
    ChunkStore chunks;
    auto baseline = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                         optsWithStores(&chunks, nullptr));
    const uint64_t golden = campaignHash(baseline);

    // Default config: the test schedule's 1000-instruction slack is
    // below the minWindowGapInstrs floor, so only the global-warmup
    // snapshot is published and no per-run window counter moves.
    {
        WarmStateStore gated;
        IsolationOptions opts = optsWithStores(&chunks, &gated);
        opts.profile = true;
        auto out = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                        opts);
        ASSERT_TRUE(out[0].ok());
        EXPECT_EQ(campaignHash(out), golden);
        ASSERT_TRUE(out[0].profile.has_value());
        EXPECT_EQ(out[0].profile->warmStateWindowHits, 0u);
        EXPECT_EQ(out[0].profile->warmStateWindowMisses, 0u);
        EXPECT_EQ(out[0].profile->warmStateWindowBytes, 0u);
        EXPECT_EQ(gated.stats().puts, 1u)
            << "a sub-floor slack must not publish window records";
        EXPECT_EQ(gated.stats().windowMisses, 0u);
    }

    // Page cap: with the slack floor lifted but a 1-page cap, mcf's
    // multi-thousand-page map disqualifies every gap.
    {
        WarmStateStore::Config capped = ungatedWindows();
        capped.maxWindowPages = 1;
        WarmStateStore store(capped);
        auto out = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 1,
                                        optsWithStores(&chunks, &store));
        ASSERT_TRUE(out[0].ok());
        EXPECT_EQ(campaignHash(out), golden);
        EXPECT_EQ(store.stats().puts, 1u)
            << "an over-cap page map must not publish window records";
        EXPECT_EQ(store.stats().windowMisses, 0u);
    }
}

// ---------------------- COW aliasing safety ----------------------

/** Serializes whatever `find(key)` currently holds, for before/after
 *  comparisons that prove restored runs never mutate the snapshot. */
std::string
snapshotImageBytes(WarmStateStore &store, const WarmStateKey &key)
{
    auto snap = store.find(key);
    EXPECT_NE(snap, nullptr);
    StateSink sink;
    FunctionalMemory::savePages(snap->pages, sink);
    return sink.take();
}

TEST(WarmStateCow, RestoredRunsNeverMutateTheResidentSnapshot)
{
    // Single-process multi-slot variant: several runs restore the same
    // resident snapshot concurrently-shared pages and then write to
    // them; the store's view (and each sibling's) must stay frozen.
    // Campaign equivalence implies this; the targeted variant pins the
    // sharing mechanics directly at the memory layer.
    FunctionalMemory warmed;
    for (Addr a = 0; a < 16 * kPageBytes; a += 64)
        warmed.write(a, a ^ 0x5aa5);

    WarmStateStore store;
    const WarmStateKey key = wkeyAt(0);
    store.put(key, WarmSnapshot{"blob", warmed.snapshotPages()});
    const std::string before = snapshotImageBytes(store, key);

    // The publisher's own later writes must clone, not leak through.
    warmed.write(0, 0xdead);

    // Two sibling slots restore the same snapshot and diverge.
    auto snap = store.find(key);
    ASSERT_NE(snap, nullptr);
    FunctionalMemory slot_a, slot_b;
    slot_a.restorePages(snap->pages);
    slot_b.restorePages(snap->pages);
    slot_a.write(0, 0x1111);
    slot_a.write(5 * kPageBytes, 0x2222);
    EXPECT_EQ(slot_b.read(0), 0u ^ 0x5aa5)
        << "a sibling slot's view must not see another slot's writes";
    EXPECT_EQ(slot_b.read(5 * kPageBytes), (5 * kPageBytes) ^ 0x5aa5);
    slot_b.write(0, 0x3333);
    EXPECT_EQ(slot_a.read(0), 0x1111u);

    EXPECT_EQ(snapshotImageBytes(store, key), before)
        << "the resident snapshot must be bitwise-frozen under "
           "publisher and restored-run writes";
}

TEST(WarmStateCow, DiskReplayedSnapshotIsIsolatedFromRestoredWrites)
{
    // Cross-process variant: a snapshot replayed from the disk tier by
    // a fresh store must also be isolated from a restored run's writes
    // (fresh pages allocated off the record, then COW-shared onward).
    const std::string dir = freshDir("warm_state_cow_disk");
    FunctionalMemory warmed;
    for (Addr a = 0; a < 8 * kPageBytes; a += 128)
        warmed.write(a, ~a);
    const WarmStateKey key = wkeyAt(3);
    {
        WarmStateStore::Config cfg;
        cfg.diskDir = dir;
        WarmStateStore writer(cfg);
        writer.put(key, WarmSnapshot{"blob", warmed.snapshotPages()});
    }
    WarmStateStore::Config cfg;
    cfg.diskDir = dir;
    WarmStateStore reader(cfg);
    const std::string before = snapshotImageBytes(reader, key);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    auto snap = reader.find(key);
    ASSERT_NE(snap, nullptr);
    FunctionalMemory run;
    run.restorePages(snap->pages);
    for (Addr a = 0; a < 8 * kPageBytes; a += kPageBytes)
        run.write(a, 0xfeed);
    EXPECT_EQ(snapshotImageBytes(reader, key), before)
        << "writes after a disk replay must clone, not mutate";
    std::filesystem::remove_all(dir);
}

TEST(WarmStateCow, ConcurrentRestoresOfOneSnapshotAreRaceFree)
{
    // TSan stress: many threads restore the same resident snapshot and
    // immediately write every page. Refcount traffic on the shared
    // handles and the clone-on-first-write path must be data-race free
    // (shared_ptr counts are atomic; a count of 1 proves exclusivity).
    constexpr size_t kPages = 32;
    FunctionalMemory warmed;
    for (Addr a = 0; a < kPages * kPageBytes; a += 8)
        warmed.write(a, a * 2654435761ULL);

    WarmStateStore store;
    const WarmStateKey key = wkeyAt(7);
    store.put(key, WarmSnapshot{"blob", warmed.snapshotPages()});
    const std::string before = snapshotImageBytes(store, key);

    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&store, &key, t]() {
            auto snap = store.find(key);
            ASSERT_NE(snap, nullptr);
            FunctionalMemory run;
            run.restorePages(snap->pages);
            for (Addr a = 0; a < kPages * kPageBytes; a += kPageBytes) {
                // Reads see the warmed values, writes stay private.
                ASSERT_EQ(run.read(a + 8), (a + 8) * 2654435761ULL);
                run.write(a, 0x1000u + static_cast<uint64_t>(t));
            }
            for (Addr a = 0; a < kPages * kPageBytes; a += kPageBytes)
                ASSERT_EQ(run.read(a), 0x1000u + static_cast<uint64_t>(t));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(snapshotImageBytes(store, key), before);
}

} // namespace
} // namespace catchsim
