/**
 * @file
 * BlobStore: the record machinery shared by the chunk, warm-state and
 * result stores. Each of those is a thin codec on top: it maps its key
 * to a BlobStore::Key and its value to payload bytes; everything else
 * lives here once.
 *
 * Memory tier. A mutex-guarded LRU of immutable shared values under a
 * byte budget. It never evicts the newest entry, so a value just
 * inserted survives long enough to be returned to its requester. Each
 * value's cost comes from the codec's charge hook, which runs under the
 * store lock (the warm-state codec uses it to count copy-on-write pages
 * shared between snapshots once).
 *
 * Disk tier. One file per key, framed as
 *
 *   magic[6] | u32 version | u32 key length | key | u64 payload length
 *   | payload | u64 FNV-1a of every preceding byte
 *
 * The key echo is the codec's canonical key string, so a record renamed
 * onto another key's path is refused. A record is read whole with a
 * size bound from its key, and its checksum is verified before any
 * field is trusted; then magic, version, key echo and payload length
 * are checked in that order, and only then does the codec decode the
 * payload. Old-format files fail one of these checks.
 *
 * Commits probe for an existing record first (every writer of a key
 * holds the same bytes), then write a unique temp file and rename it
 * into place, so readers only ever see complete records, even across
 * processes sharing the directory.
 *
 * Corruption. A read that fails validation (or an injected fault on the
 * configured target) warns, deletes the record, counts it as corrupt
 * and reports a miss: the caller regenerates. A missing file is a plain
 * miss.
 *
 * Locking. openDisk(dir, exclusive=true) takes a non-blocking flock on
 * <dir>/lock for the store's lifetime; only the result store asks for
 * it. Chunk and snapshot directories stay shareable across workers.
 */

#ifndef CATCHSIM_COMMON_BLOB_STORE_HH_
#define CATCHSIM_COMMON_BLOB_STORE_HH_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "common/fault_inject.hh"

namespace catchsim
{

class BlobStore
{
  public:
    /** A resident value; codecs cast it back to their own type. */
    using Value = std::shared_ptr<const void>;
    /** Turns a validated payload into a value, or a defect message
     *  (any error; it is reported as trace-corrupt). */
    using Decoder =
        std::function<Expected<Value>(const uint8_t *payload, size_t n)>;
    /** Appends a value's payload bytes to @p out. */
    using Encoder = std::function<void(std::vector<uint8_t> &out)>;
    /** Bytes a value adds to the memory tier when it enters
     *  (admit = true), or removes when it leaves (admit = false). */
    using Charge = std::function<size_t(const void *value, bool admit)>;

    /** How one record is addressed and bounded. */
    struct Key
    {
        std::string id;   ///< canonical key: memory-tier key, key echo
        std::string file; ///< record file name under the disk dir
        /** Payload size bounds; a record outside them is truncated or
         *  foreign, and is refused before it is read. */
        uint64_t minPayload = 0;
        uint64_t maxPayload = UINT64_MAX;
        /** A second injection target for this record only (null:
         *  none), on top of Config::faultTarget. */
        const char *faultTarget = nullptr;
    };

    struct Config
    {
        std::string name; ///< "chunk store", ...; prefixes messages
        const char *magic = nullptr; ///< 6 bytes, distinct per codec
        uint32_t version = 0;
        /** Off: find() and put() go straight to the disk tier. */
        bool memoryTier = true;
        size_t memBudgetBytes = 0;
        Charge charge;
        /** Injection plan for disk reads; null disables injection. */
        const FaultPlan *plan = nullptr;
        FaultKind faultKind = FaultKind::TraceCorrupt;
        const char *faultTarget = nullptr; ///< every disk read
    };

    /** Monotonic counters; a snapshot is taken under the store lock. */
    struct Stats
    {
        uint64_t hits = 0;      ///< find() served from memory or disk
        uint64_t misses = 0;    ///< find() found nothing servable
        uint64_t diskHits = 0;  ///< subset of hits loaded from disk
        uint64_t evictions = 0; ///< values dropped by the LRU budget
        uint64_t corrupt = 0;   ///< disk records rejected by validation
        uint64_t puts = 0;      ///< values published (deduplicated)
    };

    explicit BlobStore(Config cfg);
    ~BlobStore(); // releases the directory lock

    BlobStore(const BlobStore &) = delete;
    BlobStore &operator=(const BlobStore &) = delete;

    /**
     * Attaches the disk tier at @p dir, creating it if needed; with
     * @p exclusive, also takes the directory lock. On failure a config
     * SimError names the cause and the store stays memory-only.
     */
    Expected<void> openDisk(const std::string &dir, bool exclusive);

    /** Disk tier directory; empty when there is none. */
    const std::string &diskDir() const { return dir_; }

    /** Path of @p key's record (meaningful only with a disk tier). */
    std::string path(const Key &key) const { return dir_ + '/' + key.file; }

    /**
     * The memory tier's value for @p key, else the decoded disk record
     * (then made resident), else null. A corrupt record is handled as
     * described in the file comment. Thread-safe.
     */
    Value find(const Key &key, const Decoder &decode);

    /**
     * Publishes @p value. First writer wins: a resident value for the
     * key is returned instead and nothing is written. Otherwise the
     * record is committed to the disk tier (write errors warn; the
     * value is still served) and @p value is returned. Thread-safe.
     */
    Value put(const Key &key, Value value, const Encoder &encode);

    /** Drops @p key from both tiers. */
    void remove(const Key &key);

    /**
     * Reads and fully validates @p key's disk record. An unopenable
     * file is a config error (plain miss); any content defect is a
     * trace-corrupt SimError. Does not touch the counters.
     */
    Expected<Value> load(const Key &key, const Decoder &decode) const;

    Stats stats() const;
    size_t residentBytes() const;

  private:
    struct Entry
    {
        std::string id;
        Value value;
    };

    Value lookupLocked(const std::string &id);
    Value admitLocked(const std::string &id, Value value);
    void eraseLocked(std::list<Entry>::iterator it);
    Expected<void> commit(const Key &key, const Encoder &encode);

    Config cfg_;
    std::string dir_;
    int lockFd_ = -1;

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map_;
    size_t residentBytes_ = 0;
    Stats stats_;
    std::atomic<uint64_t> tmpSerial_{0}; ///< unique temp-file suffixes
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_BLOB_STORE_HH_
