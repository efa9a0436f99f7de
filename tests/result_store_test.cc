/**
 * @file
 * Tests for the incremental content-hashed result store
 * (sim/result_store.hh): successful runs round-trip bitwise through
 * put/find, the executor serves unchanged cells from the store and
 * counts hits/misses, a one-knob config change invalidates exactly the
 * cells it touches, corrupt records self-heal as misses, and a second
 * campaign pointed at a locked store fails fast with a config error.
 * A store is also how a campaign resumes: a rerun re-executes only the
 * runs that failed, in-process and supervised alike.
 *
 * This binary doubles as its own worker executable (main() dispatches
 * --worker to workerMain(), like the CLI), so the supervised resume
 * test can re-exec /proc/self/exe.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_inject.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "sim/supervisor.hh"
#include "sim/worker_proto.hh"
#include "sim_result_compare.hh"
#include "trace/suite.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

/** Fresh scratch directory per test; removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + "catchsim_" + name)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::unique_ptr<ResultStore>
mustOpen(const std::string &dir)
{
    auto s = ResultStore::open(dir);
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().message);
    return s.ok() ? std::move(s).value() : nullptr;
}

RunKey
keyFor(const SimConfig &cfg, const std::string &workload)
{
    auto wl = findWorkload(workload);
    EXPECT_TRUE(wl.ok()) << workload;
    return RunKey{workload, wl.ok() ? wl.value()->seed() : 0,
                  configDigest(cfg), kInstr, kWarm};
}

IsolationOptions
optsWith(ResultStore *store)
{
    IsolationOptions opts;
    opts.resultStore = store;
    opts.backoffMs = 0;
    return opts;
}

TEST(ResultStore, PutThenFindRoundTripsBitwise)
{
    ScratchDir dir("store_roundtrip");
    SimConfig cfg = baselineSkx();
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);

    auto ran = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(ran[0].ok());

    RunKey key = keyFor(cfg, "hmmer");
    EXPECT_FALSE(store->find(key).has_value());
    EXPECT_EQ(store->misses(), 1u);

    store->put(key, ran[0]);
    auto hit = store->find(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromStore);
    EXPECT_EQ(hit->status, RunStatus::Ok);
    EXPECT_EQ(hit->attempts, 1u);
    expectBitwiseEqual(ran[0].result, hit->result);
    EXPECT_EQ(store->hits(), 1u);
}

TEST(ResultStore, ExecutorResweepHitsUnchangedCellsOnly)
{
    ScratchDir dir("store_resweep");
    SimConfig cfg = baselineSkx();
    const std::vector<std::string> names = {"mcf", "hmmer"};

    // Campaign 1: cold store, every cell executes and persists.
    auto s1 = mustOpen(dir.path);
    ASSERT_NE(s1, nullptr);
    auto first = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                      optsWith(s1.get()));
    for (const auto &o : first) {
        ASSERT_TRUE(o.ok()) << o.workload;
        EXPECT_FALSE(o.fromStore);
        EXPECT_TRUE(o.storeMiss);
    }
    EXPECT_EQ(s1->misses(), names.size());
    CampaignSummary sum1 = summarizeOutcomes(first);
    EXPECT_EQ(sum1.storeMisses, names.size());
    EXPECT_EQ(sum1.storeHits, 0u);
    s1.reset(); // release the campaign lock

    // Campaign 2: identical config — every cell replays bitwise.
    auto s2 = mustOpen(dir.path);
    ASSERT_NE(s2, nullptr);
    auto second = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                       optsWith(s2.get()));
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(second[i].fromStore) << names[i];
        EXPECT_EQ(second[i].config, cfg.name);
        expectBitwiseEqual(first[i].result, second[i].result);
    }
    EXPECT_EQ(s2->hits(), names.size());
    CampaignSummary sum2 = summarizeOutcomes(second);
    EXPECT_EQ(sum2.storeHits, names.size());
    EXPECT_EQ(sum2.storeMisses, 0u);
    s2.reset();

    // Campaign 3: one knob changed — every cell is invalidated and
    // re-executes (the digest covers the whole SimConfig).
    SimConfig tweaked = cfg;
    tweaked.oracle.latAddLlc = 1;
    auto s3 = mustOpen(dir.path);
    ASSERT_NE(s3, nullptr);
    auto third = runWorkloadsIsolated(tweaked, names, kInstr, kWarm, 2,
                                      optsWith(s3.get()));
    for (const auto &o : third) {
        ASSERT_TRUE(o.ok());
        EXPECT_FALSE(o.fromStore) << o.workload
                                  << " must re-execute after the sweep";
    }
    EXPECT_EQ(s3->misses(), names.size());
}

TEST(ResultStore, RenamedConfigKeepsItsCells)
{
    // The digest hashes content, not the label: a renamed but otherwise
    // identical config replays from the store.
    SimConfig cfg = baselineSkx();
    SimConfig renamed = cfg;
    renamed.name = "relabelled";
    EXPECT_EQ(configDigest(cfg), configDigest(renamed));

    SimConfig tweaked = cfg;
    tweaked.llc.latency += 1;
    EXPECT_NE(configDigest(cfg), configDigest(tweaked));
}

TEST(ResultStore, KeyCoversTheWholeRunIdentity)
{
    SimConfig cfg = baselineSkx();
    RunKey key = keyFor(cfg, "hmmer");
    uint64_t base = key.hash();

    RunKey k = key;
    k.workload = "mcf";
    EXPECT_NE(k.hash(), base);
    k = key;
    k.workloadSeed ^= 1;
    EXPECT_NE(k.hash(), base);
    k = key;
    k.configDigest ^= 1;
    EXPECT_NE(k.hash(), base);
    k = key;
    k.instrs += 1;
    EXPECT_NE(k.hash(), base);
    k = key;
    k.warmup += 1;
    EXPECT_NE(k.hash(), base);
}

TEST(ResultStore, CorruptRecordsAreDeletedAndMiss)
{
    ScratchDir dir("store_corrupt");
    SimConfig cfg = baselineSkx();
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);

    auto ran = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(ran[0].ok());
    RunKey key = keyFor(cfg, "hmmer");
    store->put(key, ran[0]);
    ASSERT_TRUE(store->find(key).has_value());

    const std::string path =
        dir.path + "/" + [&] {
            char buf[20];
            std::snprintf(buf, sizeof(buf), "%016llx",
                          static_cast<unsigned long long>(key.hash()));
            return std::string(buf);
        }() + ".crs";
    ASSERT_TRUE(std::filesystem::exists(path));

    // Flip a record byte so the checksum no longer matches.
    {
        std::fstream f(path, std::ios::in | std::ios::out);
        ASSERT_TRUE(f.is_open());
        f.seekp(1);
        f.put('!');
    }
    EXPECT_FALSE(store->find(key).has_value());
    EXPECT_FALSE(std::filesystem::exists(path))
        << "corrupt record must self-heal by deletion";
    // And the miss is permanent until a fresh put.
    EXPECT_FALSE(store->find(key).has_value());
    store->put(key, ran[0]);
    EXPECT_TRUE(store->find(key).has_value());
}

TEST(ResultStore, TruncatedRecordIsAMiss)
{
    ScratchDir dir("store_truncated");
    SimConfig cfg = baselineSkx();
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);

    auto ran = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(ran[0].ok());
    RunKey key = keyFor(cfg, "hmmer");
    store->put(key, ran[0]);

    // Rewrite the file as a bare JSON line (no framing, no checksum): a
    // torn write or a record of the old format.
    std::string path;
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        if (e.path().extension() == ".crs")
            path = e.path().string();
    ASSERT_FALSE(path.empty());
    {
        std::ofstream f(path, std::ios::trunc);
        f << "{\"workload\":\"hmmer\"}";
    }
    EXPECT_FALSE(store->find(key).has_value());
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ResultStore, SecondCampaignOnALockedStoreFailsFast)
{
    ScratchDir dir("store_lock");
    auto first = mustOpen(dir.path);
    ASSERT_NE(first, nullptr);

    auto second = ResultStore::open(dir.path);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().category, ErrorCategory::Config);
    EXPECT_NE(second.error().message.find("locked"), std::string::npos);

    // Releasing the first campaign's lock frees the store.
    first.reset();
    auto third = ResultStore::open(dir.path);
    EXPECT_TRUE(third.ok());
}

TEST(ResultStore, UnwritableDirectoryIsAConfigError)
{
    ScratchDir dir("store_unwritable");
    ASSERT_TRUE(std::filesystem::create_directories(dir.path));
    std::string blocker = dir.path + "/blocker";
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    auto s = ResultStore::open(blocker + "/nested");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().category, ErrorCategory::Config);
}

/**
 * Resume through the store: a campaign with faults injected into some
 * runs stores only its successes, and a rerun without the faults
 * re-executes exactly the failed runs. Supervised workers take their
 * in-run faults from the inherited CATCH_FAULT_INJECT; in-process runs
 * take the same plan through IsolationOptions.
 */
TEST(ResultStore, ResumeReExecutesOnlyFailedRuns)
{
    const std::string spec =
        "trace-corrupt:mcf;exception:tpcc;io-transient:hmmer";
    const std::vector<std::string> names = {"mcf", "hmmer", "tpcc",
                                            "omnetpp"};
    const std::vector<bool> injected = {true, false, true, false};
    SimConfig cfg = withCatch(baselineSkx());
    auto faults = FaultPlan::parse(spec);
    ASSERT_TRUE(faults.ok());
    const FaultPlan no_faults;
    auto clean = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2);

    for (bool supervised : {false, true}) {
        SCOPED_TRACE(supervised ? "supervised" : "in-process");
        ScratchDir dir(supervised ? "store_resume_sup" : "store_resume");
        auto campaign = [&](ResultStore *store, bool faulty) {
            IsolationOptions opts = optsWith(store);
            opts.heartbeatMs = 50;
            if (!supervised) {
                opts.plan = faulty ? &faults.value() : &no_faults;
                return runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                            opts);
            }
            opts.plan = &no_faults;
            if (faulty)
                setenv("CATCH_FAULT_INJECT", spec.c_str(), 1);
            auto out = runWorkloadsSupervised(cfg, names, kInstr, kWarm,
                                              2, opts);
            unsetenv("CATCH_FAULT_INJECT");
            return out;
        };

        auto s1 = mustOpen(dir.path);
        ASSERT_NE(s1, nullptr);
        auto first = campaign(s1.get(), true);
        for (size_t i = 0; i < names.size(); ++i)
            EXPECT_EQ(first[i].ok(), !injected[i]) << names[i];
        EXPECT_EQ(first[1].status, RunStatus::Retried);
        EXPECT_EQ(s1->puts(), 2u) << "only successes are stored";
        s1.reset();

        auto s2 = mustOpen(dir.path);
        ASSERT_NE(s2, nullptr);
        auto second = campaign(s2.get(), false);
        for (size_t i = 0; i < names.size(); ++i) {
            ASSERT_TRUE(second[i].ok()) << names[i];
            EXPECT_EQ(second[i].fromStore, !injected[i])
                << names[i] << ": only failed runs may re-execute";
            EXPECT_EQ(second[i].storeMiss, injected[i]) << names[i];
            expectBitwiseEqual(clean[i].result, second[i].result);
        }
        EXPECT_EQ(second[1].status, RunStatus::Retried)
            << "a Retried status survives the round trip";
        EXPECT_EQ(s2->puts(), 2u) << "a store hit is not put again";
        CampaignSummary sum = summarizeOutcomes(second);
        EXPECT_EQ(sum.storeHits, 2u);
        EXPECT_EQ(sum.storeMisses, 2u);
        s2.reset();

        // Everything is stored now: a third run executes nothing.
        auto s3 = mustOpen(dir.path);
        ASSERT_NE(s3, nullptr);
        auto third = campaign(s3.get(), false);
        for (size_t i = 0; i < names.size(); ++i) {
            EXPECT_TRUE(third[i].fromStore) << names[i];
            expectBitwiseEqual(clean[i].result, third[i].result);
        }
        EXPECT_EQ(s3->puts(), 0u);
    }
}

} // namespace
} // namespace catchsim

/** Like the CLI, this binary serves --worker requests for the
 *  supervised tests; the dispatch runs before gtest sees the flag. */
int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return catchsim::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
