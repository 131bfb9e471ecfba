// KvStore: the storage abstraction KV-index is built on (paper §IV-A, §VII).
//
// The paper's only requirement on the backing store is a sorted "scan"
// operation with start/end keys (Table II lists local files, HDFS, HBase,
// LevelDB, Cassandra). We mirror that: any KvStore provides Put/Get plus an
// ordered iterator over a key range, and the index/matching layers are
// agnostic to which implementation they run on.
//
// Write-path contract (the online-ingest extension beyond the paper):
// Delete/DeleteRange remove keys without leaving tombstoned data visible to
// scans, and Apply(WriteBatch) installs a group of writes atomically with
// respect to scans — a Scan never observes a strict prefix of a batch.
// Scan visibility may be deferred: a store whose writes stage until Flush
// (FileKvStore) exposes the batch to scans only at the next Flush, still
// all-at-once. After a Flush, every backend agrees: Get and Scan reflect
// exactly the surviving writes, with nothing deleted reappearing.
// FileKvStore's Flush is also its durability point: it appends the staged
// writes as one segment of its single-file log and fdatasyncs it, writing
// O(staged) bytes (see file_kvstore.h for the segment format, the
// torn-tail rule and the compaction trigger).
//
// Thread-safety contract: every implementation supports any number of
// concurrent readers (Get/Scan/ApproximateCount), including readers that
// overlap writes. Writers (Put/Delete/DeleteRange/Apply/Flush) require
// external serialization against each other — the Catalog's ingest path
// provides it — but never against readers. ScanIterators remain valid for
// their whole lifetime even if the store is mutated after they were
// created (snapshot semantics).
#ifndef KVMATCH_STORAGE_KVSTORE_H_
#define KVMATCH_STORAGE_KVSTORE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kvmatch {

/// Ordered iterator over a key range. Usage:
///   for (auto it = store.Scan(a, b); it->Valid(); it->Next()) ...
class ScanIterator {
 public:
  virtual ~ScanIterator() = default;

  virtual bool Valid() const = 0;
  virtual void Next() = 0;
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
  /// Non-OK if the underlying read failed (e.g. checksum mismatch).
  virtual Status status() const = 0;
};

/// Iterator over an owned, already-sorted vector of (key, value) pairs —
/// the snapshot a synchronized store copies out under its lock so the
/// iterator stays valid (and consistent) however the store is mutated
/// afterwards. Shared by MemKvStore scans and MiniKv's memtable source.
class VectorScanIterator : public ScanIterator {
 public:
  explicit VectorScanIterator(
      std::vector<std::pair<std::string, std::string>> entries)
      : entries_(std::move(entries)) {}

  bool Valid() const override { return pos_ < entries_.size(); }
  void Next() override { ++pos_; }
  std::string_view key() const override { return entries_[pos_].first; }
  std::string_view value() const override { return entries_[pos_].second; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  size_t pos_ = 0;
};

/// An ordered group of writes applied atomically by KvStore::Apply: a
/// concurrent Scan sees either none of the batch or all of it. Ops replay
/// in insertion order, so a Put after a Delete of the same key wins.
class WriteBatch {
 public:
  struct Op {
    enum Kind { kPut, kDelete, kDeleteRange };
    Kind kind;
    std::string key;    // start key for kDeleteRange
    std::string value;  // end key for kDeleteRange
  };

  void Put(std::string_view key, std::string_view value) {
    ops_.push_back({Op::kPut, std::string(key), std::string(value)});
  }
  void Delete(std::string_view key) {
    ops_.push_back({Op::kDelete, std::string(key), ""});
  }
  /// Deletes [start_key, end_key); empty end_key means "to the end".
  void DeleteRange(std::string_view start_key, std::string_view end_key) {
    ops_.push_back({Op::kDeleteRange, std::string(start_key),
                    std::string(end_key)});
  }

  const std::vector<Op>& ops() const { return ops_; }
  size_t num_ops() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  void Clear() { ops_.clear(); }

  /// Approximate encoded bytes of the batch (for chunking heuristics).
  uint64_t ApproximateBytes() const;

 private:
  std::vector<Op> ops_;
};

/// Smallest key strictly greater than every key with prefix `prefix`, in
/// the format Scan/DeleteRange expect as an end key. Empty result means
/// "to the end of the store" (prefix was empty or all-0xff).
std::string PrefixUpperBound(std::string_view prefix);

/// Abstract sorted key-value store.
class KvStore {
 public:
  virtual ~KvStore() = default;

  /// Inserts or overwrites: after Put returns, Get(key) yields `value`
  /// regardless of any previous Put/Delete of the same key. (FileKvStore
  /// defers scan visibility and durability to Flush; Get sees staged
  /// writes immediately.)
  virtual Status Put(std::string_view key, std::string_view value) = 0;
  virtual Status Get(std::string_view key, std::string* value) const = 0;

  /// Removes `key`. Deleting an absent key is OK (idempotent). Deleted
  /// keys never reappear in Get results, nor in Scan results once any
  /// deferred staging has been Flushed (see the class comment).
  virtual Status Delete(std::string_view key) = 0;

  /// Deletes every key in [start_key, end_key); empty end_key means "to
  /// the end". The default implementation scans the range and deletes the
  /// keys one by one; backends may override with something cheaper.
  virtual Status DeleteRange(std::string_view start_key,
                             std::string_view end_key);

  /// Applies `batch` atomically with respect to Scan (see WriteBatch).
  virtual Status Apply(const WriteBatch& batch);

  /// Ordered scan of keys in [start_key, end_key). An empty end_key means
  /// "until the end of the store".
  virtual std::unique_ptr<ScanIterator> Scan(std::string_view start_key,
                                             std::string_view end_key)
      const = 0;

  /// Number of entries, when cheaply known.
  virtual size_t ApproximateCount() const = 0;

  /// Flushes buffered writes to durable storage (no-op where meaningless).
  virtual Status Flush() { return Status::OK(); }

  /// Appends backend-specific gauges as (name, value) pairs — entry
  /// counts, file bytes, LSM table counts, compaction totals. Names must
  /// be Prometheus-metric-safe ([a-z0-9_]); the stats exposition prefixes
  /// them with "kvmatch_storage_". Default: no gauges.
  virtual void FillGauges(
      std::vector<std::pair<std::string, uint64_t>>* gauges) const {
    (void)gauges;
  }
  /// The FillGauges value named `name`, if the backend reports one.
  std::optional<uint64_t> Gauge(std::string_view name) const;

 protected:
  /// Shared default-Apply body: replays ops through the virtual write
  /// methods. Backends wrap it in their write lock for atomicity.
  Status ReplayBatch(const WriteBatch& batch);
};

}  // namespace kvmatch

#endif  // KVMATCH_STORAGE_KVSTORE_H_
