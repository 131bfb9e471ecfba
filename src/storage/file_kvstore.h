// FileKvStore: the paper's "local file version" of the index store (§VII-A),
// kept as an append-only log of segments inside one file (log-structured
// in the sense of Rosenblum & Ousterhout's LFS).
//
// Layout: the file is a sequence of segments, one per Flush:
//   [header][value 0]...[value K-1][meta block][footer]
//   header: fixed64 segment magic | fixed64 segment length (header through
//           footer) | fixed32 masked crc32c of those 16 bytes
//   values: the raw values of the segment's puts, in key order
//   meta:   varint put count, then per put <length-prefixed key><varint64
//           file offset of the value><varint32 value length>; varint
//           tombstone count, then per tombstone <length-prefixed key>
//   footer: fixed64 meta length | fixed32 masked crc32c of the meta block |
//           fixed64 segment magic
// A key's live entry is the one its newest segment names; a tombstone there
// deletes it. The meta blocks play the paper's "meta table" role: Open
// replays them into one in-memory sorted key -> (offset, length) index, and
// each Scan becomes one binary search + one positional read per value.
//
// Writes (Put/Delete/DeleteRange) are staged in memory. Flush appends one
// segment holding only the staged writes, fdatasyncs it, and publishes a
// new immutable index generation: O(staged) bytes written, O(keys) memory.
// Readers pin the generation they started on (it holds the fd and the
// index), so Get and Scan stay correct while later Flushes and compactions
// run. Gets see staged writes immediately; Scans only see flushed state.
//
// Torn tail: a last segment shorter than its header's declared length is an
// interrupted Flush, and so is a tail that reads as zeros from a segment
// start, or from the last segment's footer, to the end of the file (a power
// cut can leave a grown file whose new blocks were never written). Open
// drops it (the store opens at the previous Flush's state) and the file is
// truncated before the next append. Any other segment whose header, footer
// or meta checksum fails is Corruption, including a last one whose footer
// reached the disk but whose values or meta did not: such a store does not
// open until the damaged tail is cut off.
//
// Compaction: each overwrite or delete leaves dead bytes behind (the
// shadowed value and meta entry, tombstones, segment framing). When dead
// bytes exceed 1/32 of the live size, Flush rewrites the live entries in key
// order into `<path>.tmp` as a single segment, fdatasyncs it, renames it
// over the store and fsyncs the directory. Compaction is the only
// whole-file write; a failed one leaves the log intact and is retried at
// the next Flush. Open removes a stale `<path>.tmp`. A file in the older
// single-generation format (entries, meta block, footer) opens as one
// segment and is compacted into the log format by its first Flush.
//
// Thread-safety: any number of concurrent readers, including across a
// Flush or compaction. Writers (including Flush and Compact) require
// external serialization against each other.
#ifndef KVMATCH_STORAGE_FILE_KVSTORE_H_
#define KVMATCH_STORAGE_FILE_KVSTORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kvstore.h"

namespace kvmatch {

class FileKvStore : public KvStore {
 public:
  /// Opens (or prepares to create) the store at `path`. If the file exists
  /// its segments are replayed; otherwise the store starts empty and
  /// becomes durable at Flush().
  static Result<std::unique_ptr<FileKvStore>> Open(const std::string& path);

  ~FileKvStore() override = default;

  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  Status DeleteRange(std::string_view start_key,
                     std::string_view end_key) override;
  Status Apply(const WriteBatch& batch) override;
  std::unique_ptr<ScanIterator> Scan(std::string_view start_key,
                                     std::string_view end_key) const override;
  size_t ApproximateCount() const override;
  Status Flush() override;
  void FillGauges(
      std::vector<std::pair<std::string, uint64_t>>* gauges) const override;

  /// Rewrites the flushed state as one segment without dead bytes (staged
  /// writes stay staged). Flush calls it when dead bytes pass the trigger;
  /// a writer, so externally serialized like Flush.
  Status Compact();

  /// Total bytes of the on-disk log (0 before first Flush).
  uint64_t FileBytes() const;

 private:
  struct IndexEntry {
    std::string_view key;  // points into one of Generation::metas
    uint64_t offset;       // byte offset of the value within the file
    uint32_t value_len;
  };

  /// One open file (inode). Generations share it across appends; a
  /// compaction's rename installs a new one, and the replaced file's fd
  /// closes when the last generation pinning it goes away.
  struct File {
    ~File();
    /// Positional read (thread-safe; no shared file position).
    Status ReadAt(uint64_t offset, size_t len, char* buf) const;

    std::string path;
    int fd = -1;
  };

  /// One immutable published state. Readers hold it by shared_ptr.
  struct Generation {
    std::shared_ptr<const File> file;  // null until the first Flush
    // Meta blocks of the segments the index keys point into.
    std::vector<std::shared_ptr<const std::string>> metas;
    std::vector<IndexEntry> index;  // sorted by key
    uint64_t file_bytes = 0;        // end of the last whole segment
    uint64_t live_bytes = 0;        // live values plus their meta records
    uint64_t segments = 0;

    /// Bytes a compaction would drop: the file minus what a one-segment
    /// rewrite of the live entries takes.
    uint64_t DeadBytes() const;
  };

  explicit FileKvStore(std::string path) : path_(std::move(path)) {}

  /// Replays the log in `file` (or the older single-generation format)
  /// into the initial generation; sets file_end_ past any torn tail.
  Status Load(std::shared_ptr<const File> file, uint64_t size);
  /// The generation `base` plus one `seg_len`-byte segment whose meta
  /// block is `meta` (index keys point into it).
  static Result<std::shared_ptr<Generation>> ApplySegment(
      const Generation& base, std::shared_ptr<const std::string> meta,
      uint64_t seg_len);
  Status AppendSegment(const std::string& segment);
  std::shared_ptr<const Generation> CurrentState() const;
  /// Stages tombstones for every key in [start_key, end_key) visible in
  /// `state` or pending_. Caller must hold mu_.
  void StageRangeTombstonesLocked(const Generation& state,
                                  std::string_view start_key,
                                  std::string_view end_key);

  std::string path_;
  mutable std::mutex mu_;  // guards state_ (pointer swap) and pending_
  std::shared_ptr<const Generation> state_;
  // Staged writes: a value (Put) or a tombstone (Delete/DeleteRange).
  std::map<std::string, std::optional<std::string>> pending_;

  // Writer-side state (serialized with the other writers).
  std::shared_ptr<File> file_;  // the current file, opened for appends
  uint64_t file_end_ = 0;       // where the next segment goes
  bool tail_dirty_ = false;     // bytes past file_end_ must be truncated
  bool legacy_ = false;         // older format: compact before appending
  std::atomic<uint64_t> compactions_{0};

  friend class FileScanIterator;
};

}  // namespace kvmatch

#endif  // KVMATCH_STORAGE_FILE_KVSTORE_H_
