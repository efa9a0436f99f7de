#include "sim/result_store.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json.hh"
#include "sim/worker_proto.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"

namespace catchsim
{

namespace
{

constexpr char kResultMagic[6] = {'C', 'R', 'S', 'L', 'T', '\0'};
/** Bump whenever the payload layout changes. */
constexpr uint32_t kResultRecordVersion = 1;

void
hashU64(uint64_t v, uint64_t &h)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    h = fnv1a(bytes, sizeof(bytes), h);
}

BlobStore::Key
recordKey(const RunKey &key)
{
    JsonWriter id;
    id.open();
    forEachField(key, id);
    id.close();
    char file[24];
    std::snprintf(file, sizeof(file), "%016" PRIx64 ".crs", key.hash());
    return {id.str(), file};
}

Expected<BlobStore::Value>
decodeOutcome(const uint8_t *in, size_t n)
{
    auto defect = [](const char *why) {
        return simError(ErrorCategory::TraceCorrupt, why);
    };
    auto parsed =
        parseJson(std::string(reinterpret_cast<const char *>(in), n));
    if (!parsed.ok())
        return defect("unparsable record");
    JsonReader r(parsed.value(), ErrorCategory::TraceCorrupt,
                 "result-store record");
    auto out = std::make_shared<RunOutcome>();
    r.field("status", out->status);
    r.field("attempts", out->attempts);
    const JsonValue *result = r.raw("result", JsonValue::Kind::Object);
    if (r.error())
        return defect("record with missing or malformed keys");
    if (!out->ok())
        return defect("record with a non-success status");
    auto sim = SimResult::fromJson(*result);
    if (!sim.ok())
        return defect("record with a corrupt result payload");
    out->attempts = std::max(1u, out->attempts);
    out->fromStore = true;
    out->result = std::move(sim).value();
    return BlobStore::Value(std::move(out));
}

/** A decoded record as the outcome of @p key's run. */
RunOutcome
outcomeOf(const RunKey &key, const BlobStore::Value &record)
{
    RunOutcome out = *static_cast<const RunOutcome *>(record.get());
    out.workload = key.workload;
    return out;
}

} // namespace

uint64_t
RunKey::hash() const
{
    uint64_t h = fnv1a(workload.data(), workload.size());
    hashU64(workloadSeed, h);
    hashU64(configDigest, h);
    hashU64(instrs, h);
    hashU64(warmup, h);
    hashU64(kTraceFormatVersion, h);
    return h;
}

ResultStore::ResultStore()
    : blobs_([] {
          BlobStore::Config c;
          c.name = "result store";
          c.magic = kResultMagic;
          c.version = kResultRecordVersion;
          c.memoryTier = false;
          return c;
      }())
{
}

ResultStore::~ResultStore() = default;

Expected<std::unique_ptr<ResultStore>>
ResultStore::open(const std::string &dir)
{
    // make_unique cannot reach the private ctor.
    std::unique_ptr<ResultStore> s(new ResultStore); // catch-lint: allow(raw-new-delete)
    if (auto disk = s->blobs_.openDisk(dir, /*exclusive=*/true); !disk.ok())
        return disk.error();
    return s;
}

std::optional<RunOutcome>
ResultStore::find(const RunKey &key)
{
    auto hit = blobs_.find(recordKey(key), decodeOutcome);
    if (!hit)
        return std::nullopt;
    return outcomeOf(key, hit);
}

Expected<RunOutcome>
ResultStore::loadDiskChecked(const RunKey &key) const
{
    auto loaded = blobs_.load(recordKey(key), decodeOutcome);
    if (!loaded.ok())
        return loaded.error();
    return outcomeOf(key, loaded.value());
}

void
ResultStore::put(const RunKey &key, const RunOutcome &out)
{
    CATCHSIM_ASSERT(out.ok(), "only successful outcomes are stored");
    blobs_.put(recordKey(key), nullptr, [&out](std::vector<uint8_t> &bytes) {
        JsonWriter w;
        w.open();
        w.field("status", out.status);
        w.field("attempts", out.attempts);
        w.rawField("result", out.result.toJson());
        w.close();
        bytes.insert(bytes.end(), w.str().begin(), w.str().end());
    });
}

StorePlan::StorePlan(ResultStore *store, const SimConfig &cfg,
                     const std::vector<std::string> &names,
                     uint64_t instrs, uint64_t warmup,
                     std::vector<RunOutcome> &outcomes,
                     const std::function<void(const RunOutcome &)> &progress)
    : store_(store), keys_(names.size())
{
    // The key depends only on the run's identity, so the config digest
    // is shared by every slot of the campaign.
    const uint64_t cfg_digest = store ? configDigest(cfg) : 0;
    for (size_t i = 0; i < names.size(); ++i) {
        if (store) {
            if (auto wl = findWorkload(names[i]); wl.ok())
                keys_[i] = RunKey{names[i], wl.value()->seed(), cfg_digest,
                                  instrs, warmup};
            if (keys_[i]) {
                if (auto hit = store->find(*keys_[i])) {
                    outcomes[i] = std::move(*hit);
                    outcomes[i].config = cfg.name;
                    if (progress)
                        progress(outcomes[i]);
                    continue;
                }
            }
        }
        pending_.push_back(i);
    }
}

void
StorePlan::commit(size_t idx, RunOutcome &out) const
{
    if (!store_)
        return;
    out.storeMiss = true;
    if (keys_[idx] && out.ok())
        store_->put(*keys_[idx], out);
}

} // namespace catchsim
