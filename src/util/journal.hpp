#pragma once
// Append-only, checksummed, crash-safe record log.
//
// A Journal persists (key, value) string records for runs that must
// survive process death.  Appends arrive in batches (JournalBatch): the
// caller formats a batch's records off the lock, and append_batch()
// writes them with a single write() of whole, fully formatted records, so
// a crash can only ever produce a *truncated tail*, never an interleaved
// or half-updated interior.  On open the file is replayed record by
// record; the first malformed or checksum-failing record marks the torn
// tail, which is truncated away so the file is again a clean sequence of
// records before any new append.  Later records for the same key win
// (append-only update semantics); compact() rewrites the latest record
// per key into a temporary file and renames it over the journal
// atomically, so even a crash mid-compaction leaves either the old or the
// new file, both valid.
//
// Record format (text, greppable):
//
//   J1 <crc32-hex> <key-bytes> <value-bytes>\n<key><value>\n
//
// where crc32 covers the concatenated key+value payload.  Keys and
// values are arbitrary bytes except that keys must not be empty;
// embedded newlines are fine because the header carries exact lengths.
//
// In memory, the latest value per key lives in a KeyIndex.  Keys are
// split at their last ':' and each distinct prefix (for checkpoint item
// keys, "<op>:<backend>:<fp>:<wl-bits>:", shared by every item of a
// probe) is stored once; an append-only arena holds a prefix id, the
// suffix and the value bytes of every record, found through a table of
// 8-byte slots (arena position plus a digest tag).  find() returns a view
// into that arena, which no later append moves or rewrites.
//
// Durability: appends are written to the fd immediately (they survive
// process death -- SIGKILL, OOM kill, abort -- without any flush).
// fsync only narrows the *kernel*-crash / power-loss window, so it is
// batched by time, not by record count: at most one fsync per
// JournalOptions::fsync_interval_s (plus on flush()/close), bounding
// both the exposure window and the overhead on sweeps whose items are
// cheaper than an fsync.  fsync_every adds a count-based trigger on top,
// checked after each batch; fsync_every = 1 with one record per batch
// gives per-record durability.  The append that finds a sync due claims
// it under the lock and runs the fsync after releasing it, so other
// workers' appends and lookups never wait on the disk; a separate sync
// mutex keeps compact() and close() from swapping or closing the fd
// while that fsync runs.
//
// Thread safety: append()/append_batch()/flush()/compact() are
// serialized and safe to call from pool workers -- a compaction racing
// concurrent appends lands every record in either the old or the new
// file, never torn across both (the daemon compacts its request journal
// while the executor appends).  find()/size()/for_each() take a shared
// lock, so lookups from many workers proceed in parallel.  open/replay
// are owner-thread operations.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mtcmos::util {

/// Standard reflected CRC-32 (IEEE 802.3), chained from `seed`:
/// crc32(b, crc32(a)) == crc32(a + b).
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

struct JournalOptions {
  /// Max seconds between fsyncs while appending; 0 disables the timer.
  /// A kernel crash or power loss can lose at most this much of the most
  /// recent work (process death alone loses nothing).
  double fsync_interval_s = 0.5;
  std::size_t fsync_every = 0;  ///< also fsync every N records; 0 = timer only
};

/// A journaled value, or null when the key is absent.  It views bytes in
/// the journal's append-only arena, which later appends never move or
/// rewrite, so it stays valid and unchanged until the journal is reopened
/// or destroyed.
class JournalValue {
 public:
  JournalValue() = default;
  explicit JournalValue(std::string_view value) : value_(value), found_(true) {}

  explicit operator bool() const { return found_; }
  friend bool operator==(const JournalValue& v, std::nullptr_t) { return !v.found_; }
  const std::string_view& operator*() const { return value_; }
  const std::string_view* operator->() const { return &value_; }

 private:
  std::string_view value_;
  bool found_ = false;
};

/// The latest value per key.  put() splits the key at its last ':' (a
/// key without one has the empty prefix) and interns the prefix, so a
/// prefix shared by many keys is stored once.  Each record becomes one
/// arena entry -- prefix id, suffix size and value size as varints, then
/// the suffix and value bytes -- in append-only blocks of 8-byte units
/// mapped from the OS.  An open-addressing table of 8-byte slots maps each key to its latest
/// entry: a slot packs the entry's 40-bit arena position with a 24-bit
/// tag, the top bits of the key's 64-bit digest.  A lookup is a hit only
/// once the full key matches (same prefix bytes, same suffix bytes), so
/// keys whose digests collide stay distinct.  Superseded values stay in
/// the arena until clear().  Not synchronized (Journal guards it with its
/// lock).
class KeyIndex {
 public:
  using Digest = std::uint64_t (*)(std::string_view key);
  static std::uint64_t default_digest(std::string_view key);

  /// `digest` is replaceable so tests can force collisions.
  explicit KeyIndex(Digest digest = default_digest) : digest_(digest) {}

  void put(std::string_view key, std::string_view value);
  JournalValue get(std::string_view key) const;
  std::size_t size() const { return size_; }
  /// Visit the latest value per key (unspecified order).  The key view
  /// is rebuilt into a scratch buffer and is valid only during the call.
  void for_each(const std::function<void(std::string_view, std::string_view)>& fn) const;
  void clear();
  /// Bytes held: arena blocks, slot table and prefix table.
  std::size_t memory_bytes() const;

 private:
  struct Entry {
    std::uint32_t prefix;
    std::string_view suffix;
    std::string_view value;
  };
  /// Zero-filled pages mapped straight from the OS, faulted in by the
  /// mapping call itself rather than one page at a time, and unmapped on
  /// release: a cleared or destroyed index hands its memory back at once
  /// instead of to malloc's per-thread arenas, where the next index (built
  /// by other worker threads) may not reuse it.
  struct Unmap {
    std::size_t bytes;
    void operator()(std::uint64_t* units) const;
  };
  using Pages = std::unique_ptr<std::uint64_t[], Unmap>;
  static Pages map_pages(std::size_t units);

  std::size_t slot_count() const { return slots_ ? std::size_t{1} << slot_bits_ : 0; }

  Entry entry_at(std::uint64_t slot) const;
  /// Room for `bytes` at the arena's next 8-byte unit; sets its position.
  char* allocate(std::size_t bytes, std::uint64_t& pos);
  std::uint32_t intern(std::string_view prefix);
  /// Append one entry; returns its position + 1 (a slot's low bits).
  std::uint64_t store(std::uint32_t prefix, std::string_view suffix, std::string_view value);
  std::size_t probe(std::uint64_t digest, std::string_view prefix, std::string_view suffix) const;
  void grow();

  Digest digest_;
  Pages slots_;  ///< 2^slot_bits_ slots, at most half full; 0 = empty
  unsigned slot_bits_ = 0;
  std::size_t size_ = 0;
  std::vector<Pages> blocks_;                ///< arena, in 8-byte units
  std::size_t block_used_ = 0;               ///< units used in blocks_.back()
  std::size_t block_units_ = 0;              ///< units in blocks_.back()
  std::size_t arena_units_ = 0;              ///< units mapped over all blocks
  std::vector<std::string_view> prefixes_;   ///< by id; bytes live in the arena
  std::vector<std::uint32_t> prefix_slots_;  ///< open addressing; id + 1, 0 = empty
  std::uint32_t last_prefix_ = 0;            ///< put()'s one-entry intern cache
};

/// Records formatted off the journal's lock for one append_batch():
/// value bytes, J1 header and CRC, each record byte-identical to
/// format_journal_record.  Each record carries the fault-injection scope
/// its append is checked under.
class JournalBatch {
 public:
  /// Format one record.  Throws std::invalid_argument on an empty key.
  void add(std::string_view key, std::string_view value, std::int64_t scope);
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

 private:
  friend class Journal;
  struct Record {
    std::size_t end;  ///< one past the record's trailing newline in bytes_
    std::size_t key_size;
    std::size_t value_size;
    std::int64_t scope;
  };
  std::string bytes_;
  std::vector<Record> records_;
};

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent) and replay `path`.  A torn tail -- the
  /// unfinished record a crash mid-append leaves behind -- is detected by
  /// length/checksum and truncated away.  Throws std::runtime_error on
  /// I/O errors (unreadable directory, permission).
  void open(const std::string& path, JournalOptions options = {});
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Append one record: a batch of one under the current fault-injection
  /// scope.  Throws std::runtime_error if the write fails (disk full).
  void append(std::string_view key, std::string_view value);

  /// Append a batch with one write() and one index update under the
  /// lock; fsync per the options.  The kJournalAppend fault site fires
  /// once per record, under that record's scope; a fault there writes
  /// only the records before it, then throws.
  void append_batch(const JournalBatch& batch);

  /// fsync the fd: waits out an fsync in flight, then syncs whatever it
  /// did not cover (no-op when nothing was appended since).
  void flush();

  /// Close the fd (flushing first).  Replayed state stays queryable.
  void close();

  /// Latest value for `key`, or null (replayed + appended records).
  JournalValue find(std::string_view key) const;
  std::size_t size() const;  ///< distinct keys
  /// Records replayed from disk at open() (resume diagnostics).
  std::size_t replayed_records() const { return replayed_records_; }
  /// Bytes of torn tail discarded at open() (0 for a clean file).
  std::size_t truncated_bytes() const { return truncated_bytes_; }

  /// Visit the latest record per key (unspecified order).
  void for_each(const std::function<void(const std::string&, const std::string&)>& fn) const;

  /// Rewrite the journal as one record per key (latest value), via a
  /// temporary file + atomic rename, then reopen for append.
  void compact();

 private:
  /// Claim every pending record under `lock` (held on entry, released
  /// on return) and fsync them outside it, holding only sync_mutex_.
  void sync(std::unique_lock<std::shared_mutex>& lock);

  std::string path_;
  JournalOptions options_;
  int fd_ = -1;
  mutable std::shared_mutex mutex_;
  /// Held for each fsync; compact() and close() take it (after mutex_)
  /// before they swap or close fd_.
  std::mutex sync_mutex_;
  KeyIndex index_;
  std::size_t appended_since_sync_ = 0;
  std::chrono::steady_clock::time_point last_sync_ = {};
  std::size_t replayed_records_ = 0;
  std::size_t truncated_bytes_ = 0;
};

/// One formatted record (append() writes exactly this).  Exposed so tests
/// can compute offsets when simulating torn tails.
std::string format_journal_record(std::string_view key, std::string_view value);

/// Merge every record of the journal file at `source_path` into `dest`
/// (latest value per key; keys whose latest value already matches in
/// `dest` are not re-appended).  `skip`, when set, drops matching keys
/// entirely -- the sharded sweep supervisor uses it to exclude worker
/// heartbeat records from the merged campaign journal.  The source is
/// replayed with the same torn-tail truncation as open(), so a journal
/// left behind by a SIGKILLed worker merges cleanly.  Keys are visited
/// in sorted order, making the merged file's contents deterministic.
/// Returns the number of records appended to `dest`.  Throws
/// std::runtime_error if the source cannot be read.
std::size_t merge_journal_file(Journal& dest, const std::string& source_path,
                               const std::function<bool(const std::string& key)>& skip = {});

}  // namespace mtcmos::util
