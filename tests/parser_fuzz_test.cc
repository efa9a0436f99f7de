/**
 * @file
 * Seeded mutation test over every parser of untrusted JSON bytes:
 * parseJson, configFromJson, SimResult::fromJson, parseWorkerRequest,
 * parseWorkerResult and FrameDecoder. About 10^4 byte flips,
 * truncations and digit splices are applied to valid documents; each
 * parser must return success or a typed error in its own category,
 * never crash (the asan+ubsan CI job runs this under the sanitizers).
 * The seed is fixed, so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "sim/worker_proto.hh"

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

} // namespace
} // namespace catchsim
