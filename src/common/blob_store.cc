#include "common/blob_store.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/bitutil.hh"
#include "common/logging.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace catchsim
{

namespace
{

constexpr size_t kMagicBytes = 6;

/** Record bytes around the key and the payload: magic, u32 version,
 *  u32 key length, u64 payload length, u64 checksum. */
constexpr uint64_t kFrameBytes = kMagicBytes + 4 + 4 + 8 + 8;

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
appendBytes(std::vector<uint8_t> &out, const void *src, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(src);
    out.insert(out.end(), p, p + n); // catch-lint: allow(step-alloc) once per committed record, not per cycle
}

template <typename T>
T
readAt(const std::vector<uint8_t> &buf, size_t &at)
{
    T v;
    std::memcpy(&v, buf.data() + at, sizeof(T));
    at += sizeof(T);
    return v;
}

} // namespace

BlobStore::BlobStore(Config cfg) : cfg_(std::move(cfg)) {}

BlobStore::~BlobStore()
{
    if (lockFd_ >= 0)
        ::close(lockFd_); // releases the flock
}

Expected<void>
BlobStore::openDisk(const std::string &dir, bool exclusive)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return simError(ErrorCategory::Config, cfg_.name,
                        ": cannot create directory '", dir, "': ",
                        ec.message());
    if (exclusive) {
        const std::string lock = dir + "/lock";
        const int fd =
            ::open(lock.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd < 0)
            return simError(ErrorCategory::Config, cfg_.name,
                            ": cannot open lock '", lock, "' (errno ",
                            errno, ")");
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            ::close(fd);
            return simError(ErrorCategory::Config, cfg_.name, " '", dir,
                            "' is locked by another campaign");
        }
        lockFd_ = fd;
    }
    dir_ = dir;
    return {};
}

BlobStore::Value
BlobStore::lookupLocked(const std::string &id)
{
    auto it = map_.find(id);
    if (it == map_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
}

BlobStore::Value
BlobStore::admitLocked(const std::string &id, Value value)
{
    // A writer may have published while the caller read the disk; serve
    // the resident copy then (every writer holds identical bytes).
    if (Value resident = lookupLocked(id))
        return resident;
    lru_.push_front(Entry{id, value}); // catch-lint: allow(step-alloc) once per resident value, not per cycle
    map_[id] = lru_.begin();
    if (cfg_.charge)
        residentBytes_ += cfg_.charge(value.get(), true);
    // Never evict the newest entry: it must survive long enough to be
    // returned to its requester.
    while (residentBytes_ > cfg_.memBudgetBytes && lru_.size() > 1) {
        eraseLocked(std::prev(lru_.end()));
        ++stats_.evictions;
    }
    return value;
}

void
BlobStore::eraseLocked(std::list<Entry>::iterator it)
{
    if (cfg_.charge)
        residentBytes_ -= cfg_.charge(it->value.get(), false);
    map_.erase(it->id);
    lru_.erase(it);
}

BlobStore::Value
BlobStore::find(const Key &key, const Decoder &decode)
{
    if (cfg_.memoryTier) {
        std::lock_guard<std::mutex> lock(mu_);
        if (Value v = lookupLocked(key.id)) {
            ++stats_.hits;
            return v;
        }
    }
    if (!dir_.empty()) {
        auto loaded = load(key, decode);
        if (loaded.ok()) {
            Value v = std::move(loaded).value();
            std::lock_guard<std::mutex> lock(mu_);
            if (cfg_.memoryTier)
                v = admitLocked(key.id, std::move(v));
            ++stats_.hits;
            ++stats_.diskHits;
            return v;
        }
        if (loaded.error().category == ErrorCategory::TraceCorrupt) {
            // Contain, don't crash: drop the bad record so the slot is
            // rewritten from regenerated bytes, and report a miss.
            warn(loaded.error().message,
                 " — deleting the record and reporting a miss");
            std::remove(path(key).c_str());
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return nullptr;
}

BlobStore::Value
BlobStore::put(const Key &key, Value value, const Encoder &encode)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (cfg_.memoryTier) {
            if (Value resident = lookupLocked(key.id))
                return resident; // first writer wins
            value = admitLocked(key.id, std::move(value));
        }
        ++stats_.puts;
    }
    if (!dir_.empty()) {
        auto w = commit(key, encode);
        if (!w.ok())
            warn(w.error().message, " — record not persisted");
    }
    return value;
}

void
BlobStore::remove(const Key &key)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key.id);
        if (it != map_.end())
            eraseLocked(it->second);
    }
    if (!dir_.empty())
        std::remove(path(key).c_str());
}

Expected<void>
BlobStore::commit(const Key &key, const Encoder &encode)
{
    const std::string file = path(key);
    {
        // Already persisted (by an earlier run or another worker racing
        // on the same key): the bytes are canonical, keep them.
        FilePtr probe(std::fopen(file.c_str(), "rb"));
        if (probe)
            return {};
    }
    std::vector<uint8_t> out;
    appendBytes(out, cfg_.magic, kMagicBytes);
    appendBytes(out, &cfg_.version, 4);
    const auto id_len = static_cast<uint32_t>(key.id.size());
    appendBytes(out, &id_len, 4);
    appendBytes(out, key.id.data(), key.id.size());
    const size_t len_at = out.size();
    const uint64_t unknown_len = 0;
    appendBytes(out, &unknown_len, 8); // patched below
    encode(out);
    const uint64_t payload_len = out.size() - len_at - 8;
    std::memcpy(out.data() + len_at, &payload_len, 8);
    const uint64_t sum = fnv1a(out.data(), out.size());
    appendBytes(out, &sum, 8);

    // Unique temp name per process and write, then rename: readers only
    // ever see complete, checksummed records, even across processes.
    const std::string tmp =
        file + ".tmp" + std::to_string(::getpid()) + "." +
        std::to_string(tmpSerial_.fetch_add(1, std::memory_order_relaxed));
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f)
        return simError(ErrorCategory::IoTransient, cfg_.name,
                        ": cannot open '", tmp, "' for writing");
    const bool written =
        std::fwrite(out.data(), 1, out.size(), f.get()) == out.size() &&
        std::fclose(f.release()) == 0;
    if (!written || std::rename(tmp.c_str(), file.c_str()) != 0) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, cfg_.name,
                        ": cannot write '", file, "'");
    }
    return {};
}

Expected<BlobStore::Value>
BlobStore::load(const Key &key, const Decoder &decode) const
{
    const std::string file = path(key);
    auto corrupt = [&](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, cfg_.name,
                        " record '", file, "': ", what...);
    };
    // Deterministic fault injection: the configured targets corrupt
    // every matching read, so CI drives the containment path (delete +
    // regenerate) without manufacturing real bit flips.
    if (cfg_.plan)
        for (const char *target : {cfg_.faultTarget, key.faultTarget})
            if (target && cfg_.plan->shouldInject(cfg_.faultKind, target))
                return corrupt("injected ", target, " corruption");

    FilePtr f(std::fopen(file.c_str(), "rb"));
    if (!f)
        return simError(ErrorCategory::Config, "no ", cfg_.name,
                        " record '", file, "'");
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return simError(ErrorCategory::IoTransient, "cannot seek in '",
                        file, "'");
    const long told = std::ftell(f.get());
    if (told < 0)
        return simError(ErrorCategory::IoTransient, "cannot size '", file,
                        "'");
    // The key bounds the record's size before anything in the file is
    // trusted, and so bounds the read buffer.
    const auto size = static_cast<uint64_t>(told);
    const uint64_t frame = kFrameBytes + key.id.size();
    if (size < frame + key.minPayload)
        return corrupt(size, " bytes on disk, expected at least ",
                       frame + key.minPayload,
                       " (truncated or foreign record)");
    if (size - frame > key.maxPayload)
        return corrupt(size, " bytes on disk, expected at most ",
                       frame + key.maxPayload,
                       " (truncated or foreign record)");
    std::rewind(f.get());
    std::vector<uint8_t> buf(size);
    if (std::fread(buf.data(), 1, buf.size(), f.get()) != buf.size())
        return corrupt("short read of ", size, " bytes");

    size_t at = buf.size() - 8;
    if (fnv1a(buf.data(), at) != readAt<uint64_t>(buf, at))
        return corrupt("FNV-1a checksum mismatch (bit flip?)");
    if (std::memcmp(buf.data(), cfg_.magic, kMagicBytes) != 0)
        return corrupt("bad magic");
    at = kMagicBytes;
    const auto version = readAt<uint32_t>(buf, at);
    if (version != cfg_.version)
        return corrupt("unsupported version ", version, ", expected ",
                       cfg_.version);
    const auto id_len = readAt<uint32_t>(buf, at);
    if (id_len != key.id.size() ||
        std::memcmp(buf.data() + at, key.id.data(), id_len) != 0)
        return corrupt("header does not match the requested key");
    at += id_len;
    const auto payload_len = readAt<uint64_t>(buf, at);
    if (payload_len != size - frame)
        return corrupt("payload length ", payload_len,
                       " disagrees with the record size");
    auto value = decode(buf.data() + at, payload_len);
    if (!value.ok())
        return corrupt(value.error().message);
    return value;
}

BlobStore::Stats
BlobStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
BlobStore::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return residentBytes_;
}

} // namespace catchsim
