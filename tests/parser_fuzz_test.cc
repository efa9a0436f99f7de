/**
 * @file
 * Seeded mutation test over every parser of untrusted bytes:
 * parseJson, configFromJson, SimResult::fromJson, parseWorkerRequest,
 * parseWorkerResult, FrameDecoder, and the one record reader under the
 * chunk, warm-state and result stores (common/blob_store.hh). About
 * 10^4 byte flips, truncations and digit or length-field splices are
 * applied to valid documents and records; each parser must return
 * success or a typed error in its own category, never crash (the
 * asan+ubsan CI job runs this under the sanitizers). The seed is fixed,
 * so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/blob_store.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "sim/configs.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "sim/warm_state.hh"
#include "sim/worker_proto.hh"
#include "trace/chunk_store.hh"
#include "trace/suite.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kSeed = 20181;
constexpr int kMutationsPerDoc = 1500;

/** Number tokens that are valid JSON but no exact field value. */
const char *const kSplices[] = {
    "99999999999999999999999", "4294967296", "-1", "1e3", "0.5",
    "1e999", "-0", "18446744073709551616", "00", "1.", "--1", "1e",
};

/** A SimResult with every counter distinct and nonzero, the L2 and the
 *  sampling block present, so every schema field is in the document. */
SimResult
fullResult()
{
    SimResult r;
    r.workload = "mcf";
    r.config = "baseline-skx+tact";
    r.category = Category::Server;
    r.hasL2 = true;
    r.sampled = true;
    r.ipc = 1.25;
    r.core.instrs = 20000;
    r.core.cycles = 16000;
    r.hier.l1HitsBySource[3] = 7;
    r.l2.demandHits = 11;
    r.activeCriticalPcs = 5;
    r.energy.coreDynamic = 0.125;
    r.sample.windows = 3;
    r.sample.ipcVariance = 1e-3;
    return r;
}

RunOutcome
okOutcome()
{
    RunOutcome o;
    o.workload = "mcf";
    o.config = "baseline-skx";
    o.status = RunStatus::Ok;
    o.attempts = 2;
    o.result = fullResult();
    o.profile = RunProfile{};
    o.profile->peakRssBytes = 1 << 20;
    o.profile->traceGenSec = 0.25;
    return o;
}

RunOutcome
failedOutcome()
{
    RunOutcome o;
    o.workload = "milc";
    o.config = "baseline-skx";
    o.status = RunStatus::Failed;
    o.failure = RunFailure{
        SimError{ErrorCategory::TraceCorrupt, "bad \"chunk\""}, 1};
    return o;
}

std::string
mutate(std::string doc, Rng &rng)
{
    if (doc.empty())
        return doc;
    switch (rng.below(4)) {
      case 0: { // byte flip: a random byte, or one flipped bit
        size_t at = rng.below(doc.size());
        if (rng.below(2))
            doc[at] = static_cast<char>(rng.below(256));
        else
            doc[at] = static_cast<char>(doc[at] ^ (1 << rng.below(8)));
        return doc;
      }
      case 1: // truncation
        return doc.substr(0, rng.below(doc.size()));
      case 2: { // digit splice: replace one number token
        std::vector<size_t> starts;
        for (size_t i = 0; i < doc.size(); ++i)
            if (std::isdigit(static_cast<unsigned char>(doc[i])) &&
                (i == 0 || doc[i - 1] == ':' || doc[i - 1] == '[' ||
                 doc[i - 1] == ','))
                starts.push_back(i);
        if (starts.empty())
            return doc;
        size_t at = starts[rng.below(starts.size())];
        size_t end = doc.find_first_not_of("0123456789.eE+-", at);
        const char *splice =
            kSplices[rng.below(sizeof(kSplices) / sizeof(kSplices[0]))];
        return doc.replace(at, end - at, splice);
      }
      default: { // several flips at once
        for (int i = 0; i < 4; ++i)
            doc[rng.below(doc.size())] =
                static_cast<char>(rng.below(256));
        return doc;
      }
    }
}

/** Runs every parser the bytes could be fed to; typed errors only. */
void
feedAll(const std::string &bytes)
{
    auto doc = parseJson(bytes);
    if (!doc.ok()) {
        EXPECT_EQ(doc.error().category, ErrorCategory::TraceCorrupt);
    } else {
        auto cfg = configFromJson(doc.value());
        if (cfg.ok()) {
            (void)cfg.value().validate();
        } else {
            EXPECT_EQ(cfg.error().category, ErrorCategory::Config);
        }
        auto res = SimResult::fromJson(doc.value());
        if (res.ok()) {
            (void)res.value().toJson();
        } else {
            EXPECT_EQ(res.error().category, ErrorCategory::TraceCorrupt);
        }
    }
    auto req = parseWorkerRequest(bytes);
    if (!req.ok()) {
        EXPECT_EQ(req.error().category, ErrorCategory::Config);
    }
    auto out = parseWorkerResult(bytes);
    if (!out.ok()) {
        EXPECT_EQ(out.error().category, ErrorCategory::Crashed);
    }
}

std::string
frame(const std::string &payload)
{
    std::string wire(4, '\0');
    const uint32_t n = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        wire[i] = static_cast<char>((n >> (8 * i)) & 0xff);
    return wire + payload;
}

TEST(ParserFuzz, MutatedDocumentsGetTypedErrorsNeverCrashes)
{
    SimConfig sampled = withCatch(noL2(baselineSkx(), 9728));
    sampled.sampling.mode = SampleMode::Sampled;
    IsolationOptions opts;
    opts.profile = true;
    const std::vector<std::string> docs = {
        configToJson(withCatch(baselineSkx())),
        configToJson(sampled),
        fullResult().toJson(),
        buildWorkerRequest(sampled, "mcf", 20000, 5000, 2, opts),
        buildWorkerResult(okOutcome()),
        buildWorkerResult(failedOutcome()),
        heartbeatPayload(),
    };
    // The unmutated documents parse.
    EXPECT_TRUE(configFromJson(parseJson(docs[0]).value()).ok());
    EXPECT_TRUE(SimResult::fromJson(docs[2]).ok());
    EXPECT_TRUE(parseWorkerRequest(docs[3]).ok());
    EXPECT_TRUE(parseWorkerResult(docs[4]).ok());
    EXPECT_TRUE(parseWorkerResult(docs[5]).ok());

    Rng rng(kSeed);
    uint64_t parsed_ok = 0, total = 0;
    for (const std::string &doc : docs) {
        for (int i = 0; i < kMutationsPerDoc; ++i, ++total) {
            const std::string bytes = mutate(doc, rng);
            feedAll(bytes);
            parsed_ok += parseJson(bytes).ok();
            if (::testing::Test::HasFailure())
                FAIL() << "mutation " << i << " of a " << doc.size()
                       << "-byte document: " << bytes;
        }
    }
    // The mutations must exercise the field readers, not just the
    // tokenizer: many mutants are still well-formed JSON.
    EXPECT_GT(parsed_ok, total / 5);
}

TEST(ParserFuzz, MutatedFramesNeverDesyncTheDecoder)
{
    const std::string payload = buildWorkerResult(okOutcome());
    const std::string wire = frame(heartbeatPayload()) + frame(payload);
    Rng rng(kSeed + 1);
    for (int i = 0; i < 2000; ++i) {
        const std::string bytes = mutate(wire, rng);
        FrameDecoder d;
        // Feed in random-sized pieces; every complete frame goes to
        // the result parser, as in the supervisor's poll loop.
        size_t off = 0;
        int rc = 0;
        while (off < bytes.size() && rc >= 0) {
            size_t n = 1 + rng.below(64);
            n = std::min(n, bytes.size() - off);
            d.feed(bytes.data() + off, n);
            off += n;
            std::string out;
            while ((rc = d.next(&out)) == 1) {
                ASSERT_LE(out.size(), kMaxFrameBytes);
                if (!isHeartbeatFrame(out)) {
                    auto r = parseWorkerResult(out);
                    if (!r.ok()) {
                        EXPECT_EQ(r.error().category,
                                  ErrorCategory::Crashed);
                    }
                }
            }
        }
        if (rc < 0) {
            EXPECT_FALSE(d.error().empty());
        }
    }
}

// ------------------------ store records ------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** Offset of a record's u32 key length (after magic and version). */
constexpr size_t kKeyLenAt = 6 + 4;

/** Length-field values that sit at or just past a boundary. */
uint64_t
spliceValue(uint64_t len, Rng &rng)
{
    // len + 2^61 times a page record's 4104 bytes wraps back to the
    // real size, so a count checked by multiplying it passes.
    const uint64_t edges[] = {0,          1,          len - 1,
                              len + 1,    len * 2,    len + (1ULL << 61),
                              UINT32_MAX, UINT64_MAX, UINT64_MAX / 4096};
    return edges[rng.below(sizeof(edges) / sizeof(edges[0]))];
}

/**
 * One mutation of a framed record, with the FNV-1a trailer recomputed
 * afterwards so the reader gets past the checksum and its size, header
 * and length checks actually run. @p lengths lists the offsets of the
 * u64 length fields inside the payload.
 */
std::string
mutateRecord(std::string rec, const std::vector<size_t> &lengths, Rng &rng)
{
    uint32_t key_len = 0;
    std::memcpy(&key_len, rec.data() + kKeyLenAt, 4);
    switch (rng.below(3)) {
      case 0: { // one to four bit flips or random bytes, trailer excluded
        const int n = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < n; ++i) {
            const size_t at = rng.below(rec.size() - 8);
            rec[at] = rng.below(2)
                          ? static_cast<char>(rng.below(256))
                          : static_cast<char>(rec[at] ^ (1 << rng.below(8)));
        }
        break;
      }
      case 1: // truncation
        rec.resize(rng.below(rec.size()));
        break;
      default: { // splice a length field: key, payload or an inner one
        const size_t payload_len_at = kKeyLenAt + 4 + key_len;
        const size_t pick = rng.below(2 + lengths.size());
        if (pick == 0) {
            const auto v =
                static_cast<uint32_t>(spliceValue(key_len, rng));
            std::memcpy(rec.data() + kKeyLenAt, &v, 4);
            break;
        }
        const size_t at = pick == 1 ? payload_len_at
                                    : payload_len_at + 8 + lengths[pick - 2];
        uint64_t len = 0;
        std::memcpy(&len, rec.data() + at, 8);
        len = spliceValue(len, rng);
        std::memcpy(rec.data() + at, &len, 8);
        break;
      }
    }
    if (rec.size() >= 8) {
        const uint64_t sum = fnv1a(rec.data(), rec.size() - 8);
        std::memcpy(rec.data() + rec.size() - 8, &sum, 8);
    }
    return rec;
}

/** A valid record of one store and the reader that checks it. */
struct RecordCase
{
    const char *name;
    std::string path;
    std::vector<size_t> lengths; ///< inner u64 length-field offsets
    std::function<SimError *(SimError &)> load; ///< null on success
};

TEST(ParserFuzz, MutatedStoreRecordsGetTypedErrorsNeverCrashes)
{
    const std::string dir =
        ::testing::TempDir() + "catchsim_record_fuzz";
    std::filesystem::remove_all(dir);

    // Chunk record: 64 real ops of mcf.
    ChunkStore::Config ccfg;
    ccfg.diskDir = dir + "/chunks";
    ChunkStore chunks(ccfg);
    auto wl = makeWorkload("mcf");
    ChunkGenerator gen;
    const ChunkKey ckey{"mcf", wl->seed(), 64, 0};
    chunks.put(ckey, gen.next(*wl, 64));

    // Snapshot record: a component blob and two pages.
    WarmStateStore::Config wcfg;
    wcfg.diskDir = dir + "/snaps";
    WarmStateStore warm(wcfg);
    const WarmStateKey wkey{"mcf", 7, 1000, 5000, 64, 0xabc, 1, 0xdef};
    WarmSnapshot snap;
    snap.bytes = std::string(100, 'w');
    for (Addr a : {Addr(0x1000), Addr(0x3000)}) {
        auto page = std::make_shared<FunctionalMemory::Page>();
        page->words[0] = a;
        snap.pages.emplace_back(a, std::move(page));
    }
    warm.put(wkey, snap);

    // Result record.
    auto results = ResultStore::open(dir + "/results");
    ASSERT_TRUE(results.ok());
    const RunKey rkey{"mcf", wl->seed(), 42, 20000, 5000};
    results.value()->put(rkey, okOutcome());

    // A bare record: the framing alone, payload handed back verbatim.
    BlobStore::Config bcfg;
    bcfg.name = "fuzz store";
    bcfg.magic = "CFUZZ";
    bcfg.version = 1;
    BlobStore raw(bcfg);
    ASSERT_TRUE(raw.openDisk(dir + "/raw", false).ok());
    const BlobStore::Key bkey{"fuzz-key", "fuzz.rec"};
    const BlobStore::Decoder verbatim = [](const uint8_t *p, size_t n)
        -> Expected<BlobStore::Value> {
        return BlobStore::Value(std::make_shared<std::string>(
            reinterpret_cast<const char *>(p), n));
    };
    raw.put(bkey, nullptr, [](std::vector<uint8_t> &out) {
        const char payload[] = "payload bytes";
        out.insert(out.end(), payload, payload + sizeof(payload));
    });

    auto typed = [](auto loaded, SimError &err) -> SimError * {
        if (loaded.ok())
            return nullptr;
        err = loaded.error();
        return &err;
    };
    const std::vector<RecordCase> cases = {
        {"chunk", chunks.diskPath(ckey), {},
         [&](SimError &e) { return typed(chunks.loadDiskChecked(ckey), e); }},
        // Inner lengths: the blob length, then the page count.
        {"snapshot", warm.diskPath(wkey), {0, 8 + snap.bytes.size()},
         [&](SimError &e) { return typed(warm.loadDiskChecked(wkey), e); }},
        {"result", results.value()->dir() + "/" + [&] {
             char buf[24];
             std::snprintf(buf, sizeof(buf), "%016llx.crs",
                           static_cast<unsigned long long>(rkey.hash()));
             return std::string(buf);
         }(), {},
         [&](SimError &e) {
             return typed(results.value()->loadDiskChecked(rkey), e);
         }},
        {"raw", raw.path(bkey), {},
         [&](SimError &e) { return typed(raw.load(bkey, verbatim), e); }},
    };

    Rng rng(kSeed + 2);
    for (const RecordCase &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string valid = readFile(c.path);
        ASSERT_FALSE(valid.empty());
        SimError err;
        ASSERT_EQ(c.load(err), nullptr) << "the unmutated record loads";
        uint64_t loaded = 0, rejected = 0;
        for (int i = 0; i < kMutationsPerDoc; ++i) {
            const std::string bytes = mutateRecord(valid, c.lengths, rng);
            writeFile(c.path, bytes);
            if (SimError *e = c.load(err)) {
                ++rejected;
                EXPECT_EQ(e->category, ErrorCategory::TraceCorrupt)
                    << e->message;
                EXPECT_EQ(e->message.find("checksum"), std::string::npos)
                    << "the recomputed trailer must get past the "
                       "checksum: "
                    << e->message;
            } else {
                ++loaded;
            }
            if (::testing::Test::HasFailure())
                FAIL() << "mutation " << i << " of the " << c.name
                       << " record";
        }
        // Both outcomes occur: the readers past the framing (op
        // records, page maps, JSON) run on mutants too.
        EXPECT_GT(rejected, 0u);
        EXPECT_GT(loaded, 0u);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace catchsim
