#include "sim/result_store.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "trace/trace_io.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace catchsim
{

namespace
{

void
hashU64(uint64_t v, uint64_t &h)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    h = fnv1a(bytes, sizeof(bytes), h);
}

std::string
hex16(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
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

ResultStore::~ResultStore()
{
    if (lockFd_ >= 0)
        ::close(lockFd_); // releases the flock
}

Expected<std::unique_ptr<ResultStore>>
ResultStore::open(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return simError(ErrorCategory::Config, "cannot create result-"
                        "store directory '", dir, "': ", ec.message());

    // make_unique cannot reach the private ctor.
    std::unique_ptr<ResultStore> s(new ResultStore); // catch-lint: allow(raw-new-delete)
    s->dir_ = dir;

    std::string lock_path = dir + "/lock";
    s->lockFd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                        0644);
    if (s->lockFd_ < 0)
        return simError(ErrorCategory::Config, "cannot open result-"
                        "store lock '", lock_path, "' (errno ", errno,
                        ")");
    if (::flock(s->lockFd_, LOCK_EX | LOCK_NB) != 0)
        return simError(ErrorCategory::Config, "result store '", dir,
                        "' is locked by another campaign");
    return s;
}

std::string
ResultStore::pathFor(const RunKey &key) const
{
    return dir_ + "/" + hex16(key.hash()) + ".json";
}

std::optional<RunOutcome>
ResultStore::find(const RunKey &key)
{
    const std::string path = pathFor(key);
    auto miss = [&](const char *why) -> std::optional<RunOutcome> {
        if (why) {
            warn("result store '", path, "': ", why,
                 "; deleting the record");
            std::remove(path.c_str());
        }
        std::lock_guard<std::mutex> guard(mu_);
        ++misses_;
        return std::nullopt;
    };

    std::ifstream in(path);
    if (!in.is_open())
        return miss(nullptr); // plain absence: the common cold miss
    std::string record, checksum;
    if (!std::getline(in, record) || !std::getline(in, checksum))
        return miss("truncated record");
    if (checksum != hex16(fnv1a(record.data(), record.size())))
        return miss("checksum mismatch (torn write or bit flip?)");

    auto parsed = parseJson(record);
    if (!parsed.ok())
        return miss("unparsable record");
    JsonReader r(parsed.value(), ErrorCategory::TraceCorrupt,
                 "result-store record");
    RunKey stored;
    RunOutcome out;
    forEachField(stored, r);
    r.field("status", out.status);
    r.field("attempts", out.attempts);
    const JsonValue *result = r.raw("result", JsonValue::Kind::Object);
    if (r.error())
        return miss("record with missing or malformed keys");
    // Hash-collision / stale-rename guard: the record must describe
    // exactly the key that was asked for.
    if (!(stored == key))
        return miss("record for a different key (hash collision?)");
    if (!out.ok())
        return miss("record with a non-success status");
    auto sim = SimResult::fromJson(*result);
    if (!sim.ok())
        return miss("record with a corrupt result payload");

    out.workload = key.workload;
    out.attempts = std::max(1u, out.attempts);
    out.fromStore = true;
    out.result = std::move(sim).value();
    std::lock_guard<std::mutex> guard(mu_);
    ++hits_;
    return out;
}

void
ResultStore::put(const RunKey &key, const RunOutcome &out)
{
    CATCHSIM_ASSERT(out.ok(), "only successful outcomes are stored");
    JsonWriter w;
    w.open();
    forEachField(key, w);
    w.field("status", out.status);
    w.field("attempts", out.attempts);
    w.rawField("result", out.result.toJson());
    w.close();

    const std::string &record = w.str();
    std::string body = record + "\n" +
                       hex16(fnv1a(record.data(), record.size())) + "\n";

    uint64_t serial;
    {
        std::lock_guard<std::mutex> guard(mu_);
        serial = ++tmpSerial_;
    }
    const std::string path = pathFor(key);
    // Unique tmp per write: concurrent puts (pool threads in-process,
    // or a supervisor racing nobody but itself across campaigns) never
    // scribble on each other; rename() is the atomic commit.
    const std::string tmp =
        path + ".tmp." + std::to_string(serial) + "." +
        std::to_string(static_cast<uint64_t>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        warn("result store: cannot open '", tmp, "' for writing; "
             "record for '", key.workload, "' not persisted");
        return;
    }
    size_t n = std::fwrite(body.data(), 1, body.size(), f);
    bool bad = n != body.size() || std::ferror(f) != 0;
    if (std::fclose(f) != 0)
        bad = true;
    if (bad || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        warn("result store: failed writing '", path, "'; record for '",
             key.workload, "' not persisted");
    }
}

uint64_t
ResultStore::hits() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return hits_;
}

uint64_t
ResultStore::misses() const
{
    std::lock_guard<std::mutex> guard(mu_);
    return misses_;
}

} // namespace catchsim
