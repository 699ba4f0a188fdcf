/**
 * @file
 * Durable content-addressed result cache: the cheapest simulated
 * cycle is the one never re-simulated. Every finished matrix cell's
 * resultToJson line is stored under a 64-bit FNV key folded from the
 * cell's full identity — configFingerprint (every result-identity
 * field of the SimConfig field registry, sim/config_fields.hh), the
 * workload's program-identity hash, the program iteration count, and
 * the result-schema version — so a later batch
 * or daemon spec that names the same cell adopts the result instead
 * of re-simulating it, bit-identically (the payload round-trips
 * through the same %.17g serialization resume checkpoints use).
 *
 * A shared on-disk cache is only a win if it is crash-safe, so every
 * entry defends itself:
 *
 *  - Writes are atomic: the entry is written to tmp/ and rename(2)d
 *    into place, so readers never observe a half-written file and a
 *    crash mid-put leaves at worst an orphaned temp file.
 *  - Every entry carries a self-describing JSON header (magic,
 *    format + result-schema versions, key, payload length, FNV-1a
 *    payload checksum) on its first line; the payload is the second.
 *  - Every read is verified. A mismatch of any header field or the
 *    checksum moves the entry to quarantine/ with a .reason
 *    diagnostic and reports a miss — the caller re-simulates and the
 *    next put self-heals the slot. Corruption can cost time, never
 *    correctness.
 *  - Concurrent mlpwin_batch / mlpwind processes share one cache
 *    safely: mutating operations hold an advisory flock(2) on
 *    <dir>/.lock (shared for put/quarantine, exclusive for
 *    fsck/gc/clear), and lookups rely on rename atomicity.
 *  - A missing, unwritable, or full cache directory degrades to
 *    cache-off with a single warning; it never fails the run.
 *
 * Layout under the cache directory:
 *
 *   objects/<hh>/<16-hex-key>.entry   (hh = first two key digits)
 *   quarantine/<16-hex-key>.entry     + <16-hex-key>.reason
 *   tmp/                              in-flight writes
 *   .lock                             flock coordination file
 */

#ifndef MLPWIN_CACHE_RESULT_CACHE_HH
#define MLPWIN_CACHE_RESULT_CACHE_HH

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace mlpwin
{
namespace cache
{

/**
 * Version of the SimResult JSON schema stored in cache payloads.
 * Bump whenever resultToJson's field set or the key's composition
 * changes; old entries then read as stale and re-simulate instead of
 * replaying a result that is missing fields downstream code expects.
 */
constexpr std::uint32_t kResultSchemaVersion = 3;

/** FNV-1a fold of an ordered tuple of 64-bit identity parts. */
std::uint64_t foldKey(std::initializer_list<std::uint64_t> parts);

/** FNV-1a over raw bytes (payload checksums, name identity). */
std::uint64_t fnv1a(const void *data, std::size_t len);

/** Monotonic counters; see stats(). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeFailures = 0;
    std::uint64_t quarantined = 0;
};

/** See file comment. */
class ResultCache
{
  public:
    static constexpr std::uint32_t kFormatVersion = 1;

    /**
     * Open (creating if needed) the cache rooted at `dir`. On any
     * setup failure the cache comes up disabled — one warning, all
     * operations no-ops — rather than failing the caller's run.
     */
    explicit ResultCache(const std::string &dir);

    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /**
     * Verified lookup. On a hit, `payload_out` receives exactly the
     * bytes put() stored (one resultToJson line). An entry that
     * fails verification is quarantined and reported as a miss.
     */
    bool get(std::uint64_t key, std::string &payload_out);

    /**
     * Atomically store one entry. `workload` / `model` / the two
     * identity hashes are recorded in the header for quarantine
     * triage and `cachectl ls`; they are not part of the address.
     * The first write failure (ENOSPC, permissions) disables the
     * cache for the rest of the run with a single warning.
     *
     * @return true when the entry landed (entryPath(key) exists).
     */
    bool put(std::uint64_t key, const std::string &payload,
             const std::string &workload, const std::string &model,
             std::uint64_t config_fp, std::uint64_t program_hash);

    /**
     * Move an entry into quarantine/ with a .reason diagnostic, e.g.
     * when a checksum-valid payload still fails to parse. No-op if
     * the entry does not exist.
     */
    void quarantine(std::uint64_t key, const std::string &reason);

    /** Absolute path the entry for `key` lives at (hit or not). */
    std::string entryPath(std::uint64_t key) const;

    CacheStats stats() const;

    // --- offline maintenance (mlpwin_cachectl) ------------------------

    struct FsckReport
    {
        std::size_t scanned = 0;
        std::size_t ok = 0;
        std::size_t quarantined = 0;
    };

    /**
     * Verify every entry in place (exclusive lock); corrupt ones are
     * quarantined exactly as a failed get() would.
     */
    FsckReport fsck();

    struct EntryInfo
    {
        std::uint64_t key = 0;
        std::string workload;
        std::string model;
        std::uint64_t bytes = 0;
        /** Seconds since epoch of the entry file's mtime. */
        std::int64_t mtime = 0;
    };

    /** Enumerate entries, oldest first (header parse best-effort). */
    std::vector<EntryInfo> list();

    struct GcReport
    {
        std::size_t scanned = 0;
        std::size_t removed = 0;
        std::uint64_t bytesBefore = 0;
        std::uint64_t bytesAfter = 0;
    };

    /**
     * Delete oldest entries (by mtime) until the objects/ payload
     * total is within `max_bytes`; also sweeps orphaned tmp files.
     *
     * @param dry_run Plan only: compute the same report and victim
     *        list a real pass would, but delete nothing (the object
     *        store is left byte-identical, tmp files included).
     * @param victims When non-null, receives the entries a real pass
     *        would delete, in eviction (oldest-first) order.
     */
    GcReport gc(std::uint64_t max_bytes, bool dry_run = false,
                std::vector<EntryInfo> *victims = nullptr);

    /** Remove every entry, quarantined file, and temp file. */
    std::size_t clear();

    // --- deterministic corruption (fault injection) -------------------
    // Used by the bitflip/trunc/staleschema --inject kinds so CI can
    // prove quarantine + re-simulation. Each returns false if the
    // file could not be rewritten.

    /** Flip one bit in the middle of the payload line. */
    static bool corruptBitflip(const std::string &entry_path);
    /** Truncate the file mid-payload (simulated torn write). */
    static bool corruptTruncate(const std::string &entry_path);
    /** Rewrite the header claiming an older result schema. */
    static bool corruptStaleSchema(const std::string &entry_path);

  private:
    bool verifyEntry(const std::string &path, std::uint64_t key,
                     std::string *payload_out, std::string *why);
    void quarantineLocked(const std::string &path, std::uint64_t key,
                          const std::string &reason);
    void disable(const char *op, const std::string &detail);

    std::string dir_;
    bool enabled_ = false;
    mutable std::mutex mutex_;
    CacheStats stats_;
    bool warnedStore_ = false;
};

} // namespace cache
} // namespace mlpwin

#endif // MLPWIN_CACHE_RESULT_CACHE_HH
