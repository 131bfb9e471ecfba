#include "storage/file_kvstore.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/coding.h"
#include "common/crc32c.h"

namespace kvmatch {

namespace {

constexpr uint64_t kSegmentMagic = 0x4b564d5345474c31ull;  // "KVMSEGL1"
constexpr size_t kHeaderSize = 8 /*magic*/ + 8 /*length*/ + 4 /*crc*/;
constexpr size_t kFooterSize = 8 /*meta len*/ + 4 /*crc*/ + 8 /*magic*/;
// The older single-generation format: [entries][meta][footer], where the
// footer is <meta offset><meta len><meta crc><magic>.
constexpr uint64_t kLegacyMagic = 0x4b564d4649445831ull;  // "KVMFIDX1"
constexpr size_t kLegacyFooterSize = 8 + 8 + 4 + 8;
// Compaction runs once dead bytes exceed 1/kDeadRatio of the live size.
constexpr uint64_t kDeadRatio = 32;
// Compaction streams values out through a buffer of about this size.
constexpr size_t kCompactionBuffer = 1 << 20;

size_t VarintLength(uint64_t v) {
  size_t len = 1;
  while (v >= 128) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Bytes of one entry's value plus its meta record.
template <typename Entry>
uint64_t EntryBytes(const Entry& e) {
  return e.value_len + VarintLength(e.key.size()) + e.key.size() +
         VarintLength(e.offset) + VarintLength(e.value_len);
}

std::string MagicBytes() {
  std::string out;
  PutFixed64(&out, kSegmentMagic);
  return out;
}

void EncodeHeader(uint64_t segment_len, char* out) {
  std::string header;
  PutFixed64(&header, kSegmentMagic);
  PutFixed64(&header, segment_len);
  PutFixed32(&header, crc32c::Mask(crc32c::Value(header.data(), 16)));
  std::memcpy(out, header.data(), kHeaderSize);
}

void AppendFooter(std::string* out, std::string_view meta) {
  PutFixed64(out, meta.size());
  PutFixed32(out, crc32c::Mask(crc32c::Value(meta)));
  PutFixed64(out, kSegmentMagic);
}

Status WriteAt(int fd, uint64_t offset, std::string_view data,
               const std::string& path) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(path + ": write failed: " +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// fsyncs the directory holding `path`, so a create or rename there
/// survives power loss.
Status SyncDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open directory " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync of directory " + dir + " failed");
  return Status::OK();
}

}  // namespace

FileKvStore::File::~File() {
  if (fd >= 0) ::close(fd);
}

Status FileKvStore::File::ReadAt(uint64_t offset, size_t len,
                                 char* buf) const {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, buf + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(path + ": pread failed");
    }
    if (n == 0) return Status::IOError(path + ": short value read");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Iterates a pinned generation's index entries in [begin, end), reading
// values lazily; the shared_ptr keeps the fd and the keys alive.
class FileScanIterator : public ScanIterator {
 public:
  FileScanIterator(std::shared_ptr<const FileKvStore::Generation> state,
                   size_t begin, size_t end)
      : state_(std::move(state)), idx_(begin), end_(end) {
    ReadCurrent();
  }

  bool Valid() const override { return idx_ < end_ && status_.ok(); }
  void Next() override {
    ++idx_;
    ReadCurrent();
  }
  std::string_view key() const override { return state_->index[idx_].key; }
  std::string_view value() const override { return value_; }
  Status status() const override { return status_; }

 private:
  void ReadCurrent() {
    if (idx_ >= end_) return;
    const auto& e = state_->index[idx_];
    value_.resize(e.value_len);
    status_ = state_->file->ReadAt(e.offset, e.value_len, value_.data());
  }

  std::shared_ptr<const FileKvStore::Generation> state_;
  size_t idx_;
  size_t end_;
  std::string value_;
  Status status_;
};

namespace {

template <typename Index>
auto LowerBound(const Index& index, std::string_view key) {
  return std::lower_bound(
      index.begin(), index.end(), key,
      [](const auto& e, std::string_view k) { return e.key < k; });
}

}  // namespace

Result<std::unique_ptr<FileKvStore>> FileKvStore::Open(
    const std::string& path) {
  auto store = std::unique_ptr<FileKvStore>(new FileKvStore(path));
  // A leftover from a compaction that died before its rename.
  ::unlink((path + ".tmp").c_str());

  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0 && (errno == EACCES || errno == EROFS)) {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // read-only use
  }
  if (fd < 0) {
    if (errno != ENOENT) return Status::IOError("cannot open " + path);
    store->state_ = std::make_shared<Generation>();
    return store;
  }
  auto file = std::make_shared<File>();
  file->path = path;
  file->fd = fd;
  struct stat st_buf;
  if (::fstat(fd, &st_buf) != 0) {
    return Status::IOError(path + ": fstat failed");
  }
  KVMATCH_RETURN_NOT_OK(
      store->Load(file, static_cast<uint64_t>(st_buf.st_size)));
  store->file_ = std::move(file);
  return store;
}

Status FileKvStore::Load(std::shared_ptr<const File> file, uint64_t size) {
  auto gen = std::make_shared<Generation>();
  gen->file = file;
  const std::string magic = MagicBytes();
  char header[kHeaderSize];
  const size_t probe = static_cast<size_t>(std::min<uint64_t>(size, 8));
  KVMATCH_RETURN_NOT_OK(file->ReadAt(0, probe, header));
  // Whether bytes [from, size) are all zero: room an interrupted Flush
  // grew the file by whose data never reached the disk (a power cut can
  // leave that on filesystems that allocate before they write). That
  // Flush was never acknowledged, so this is a torn tail too.
  auto zero_tail = [&](uint64_t from, bool* zero) -> Status {
    char buf[4096];
    *zero = false;
    for (uint64_t at = from; at < size;) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(size - at, sizeof(buf)));
      KVMATCH_RETURN_NOT_OK(file->ReadAt(at, n, buf));
      if (std::any_of(buf, buf + n, [](char c) { return c != 0; })) {
        return Status::OK();
      }
      at += n;
    }
    *zero = true;
    return Status::OK();
  };
  bool zero = false;
  KVMATCH_RETURN_NOT_OK(zero_tail(0, &zero));
  if (zero) {  // the first Flush, torn
    state_ = std::move(gen);
    file_end_ = 0;
    tail_dirty_ = size > 0;
    return Status::OK();
  }

  if (size >= kLegacyFooterSize && std::memcmp(header, magic.data(), 8) != 0) {
    // Older single-generation file: one segment whose meta block is the
    // put section alone.
    char footer[kLegacyFooterSize];
    KVMATCH_RETURN_NOT_OK(file->ReadAt(size - kLegacyFooterSize,
                                       kLegacyFooterSize, footer));
    if (DecodeFixed64(footer + 20) != kLegacyMagic) {
      return Status::Corruption(file->path + ": bad magic");
    }
    const uint64_t meta_off = DecodeFixed64(footer);
    const uint64_t meta_len = DecodeFixed64(footer + 8);
    if (meta_off + meta_len > size - kLegacyFooterSize) {
      return Status::Corruption(file->path + ": bad meta extent");
    }
    auto meta = std::make_shared<std::string>(meta_len, '\0');
    KVMATCH_RETURN_NOT_OK(file->ReadAt(meta_off, meta_len, meta->data()));
    if (crc32c::Value(*meta) != crc32c::Unmask(DecodeFixed32(footer + 16))) {
      return Status::Corruption(file->path + ": meta checksum mismatch");
    }
    PutVarint64(meta.get(), 0);  // no tombstones
    auto next = ApplySegment(*gen, std::move(meta), size);
    if (!next.ok()) return next.status();
    state_ = std::move(next).value();
    file_end_ = size;
    legacy_ = true;
    return Status::OK();
  }

  uint64_t pos = 0;
  while (pos < size) {
    const size_t have =
        static_cast<size_t>(std::min<uint64_t>(size - pos, kHeaderSize));
    KVMATCH_RETURN_NOT_OK(file->ReadAt(pos, have, header));
    if (std::memcmp(header, magic.data(), std::min<size_t>(have, 8)) != 0) {
      KVMATCH_RETURN_NOT_OK(zero_tail(pos, &zero));
      if (zero) break;
      return Status::Corruption(file->path + ": bad segment magic at " +
                                std::to_string(pos));
    }
    if (have < kHeaderSize) break;  // torn header
    if (crc32c::Value(header, 16) !=
        crc32c::Unmask(DecodeFixed32(header + 16))) {
      return Status::Corruption(file->path + ": segment header checksum "
                                "mismatch at " + std::to_string(pos));
    }
    const uint64_t seg_len = DecodeFixed64(header + 8);
    if (seg_len < kHeaderSize + kFooterSize) {
      return Status::Corruption(file->path + ": segment too short");
    }
    if (seg_len > size - pos) break;  // torn tail: an interrupted Flush

    char footer[kFooterSize];
    KVMATCH_RETURN_NOT_OK(
        file->ReadAt(pos + seg_len - kFooterSize, kFooterSize, footer));
    const uint64_t meta_len = DecodeFixed64(footer);
    if (DecodeFixed64(footer + 12) != kSegmentMagic ||
        meta_len > seg_len - kHeaderSize - kFooterSize) {
      // A last segment whose footer never reached the disk.
      KVMATCH_RETURN_NOT_OK(zero_tail(pos + seg_len - kFooterSize, &zero));
      if (zero) break;
      return Status::Corruption(file->path + ": bad segment footer at " +
                                std::to_string(pos));
    }
    auto meta = std::make_shared<std::string>(meta_len, '\0');
    KVMATCH_RETURN_NOT_OK(file->ReadAt(pos + seg_len - kFooterSize - meta_len,
                                       meta_len, meta->data()));
    if (crc32c::Value(*meta) != crc32c::Unmask(DecodeFixed32(footer + 8))) {
      return Status::Corruption(file->path + ": meta checksum mismatch");
    }
    auto next = ApplySegment(*gen, std::move(meta), seg_len);
    if (!next.ok()) return next.status();
    gen = std::move(next).value();
    pos += seg_len;
  }
  state_ = std::move(gen);
  file_end_ = pos;
  tail_dirty_ = pos < size;
  return Status::OK();
}

Result<std::shared_ptr<FileKvStore::Generation>> FileKvStore::ApplySegment(
    const Generation& base, std::shared_ptr<const std::string> meta,
    uint64_t seg_len) {
  // Both sections are written in strictly increasing key order.
  std::vector<IndexEntry> puts;
  std::vector<std::string_view> tombstones;
  std::string_view in(*meta);
  uint64_t count;
  if (!GetVarint64(&in, &count)) return Status::Corruption("meta count");
  puts.reserve(std::min<uint64_t>(count, in.size()));
  for (uint64_t i = 0; i < count; ++i) {
    IndexEntry e;
    if (!GetLengthPrefixed(&in, &e.key) || !GetVarint64(&in, &e.offset) ||
        !GetVarint32(&in, &e.value_len)) {
      return Status::Corruption("meta entry truncated");
    }
    if (!puts.empty() && puts.back().key >= e.key) {
      return Status::Corruption("meta keys out of order");
    }
    puts.push_back(e);
  }
  if (!GetVarint64(&in, &count)) return Status::Corruption("tombstone count");
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view key;
    if (!GetLengthPrefixed(&in, &key)) {
      return Status::Corruption("tombstone truncated");
    }
    if (!tombstones.empty() && tombstones.back() >= key) {
      return Status::Corruption("tombstones out of order");
    }
    tombstones.push_back(key);
  }

  auto gen = std::make_shared<Generation>();
  gen->file = base.file;
  gen->metas = base.metas;
  gen->metas.push_back(std::move(meta));
  gen->file_bytes = base.file_bytes + seg_len;
  gen->segments = base.segments + 1;
  uint64_t live = base.live_bytes;
  auto& out = gen->index;
  out.reserve(base.index.size() + puts.size());
  const auto& old = base.index;
  size_t i = 0, j = 0, t = 0;
  while (i < old.size() || j < puts.size()) {
    if (j == puts.size() || (i < old.size() && old[i].key < puts[j].key)) {
      while (t < tombstones.size() && tombstones[t] < old[i].key) ++t;
      if (t < tombstones.size() && tombstones[t] == old[i].key) {
        live -= EntryBytes(old[i]);
      } else {
        out.push_back(old[i]);
      }
      ++i;
      continue;
    }
    if (i < old.size() && old[i].key == puts[j].key) {
      live -= EntryBytes(old[i]);  // shadowed
      ++i;
    }
    live += EntryBytes(puts[j]);
    out.push_back(puts[j]);
    ++j;
  }
  gen->live_bytes = live;
  return gen;
}

uint64_t FileKvStore::Generation::DeadBytes() const {
  const uint64_t compacted = live_bytes + kHeaderSize + kFooterSize +
                             VarintLength(index.size()) + 1;
  return file_bytes > compacted ? file_bytes - compacted : 0;
}

std::shared_ptr<const FileKvStore::Generation> FileKvStore::CurrentState()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

Status FileKvStore::Put(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[std::string(key)] = std::string(value);
  return Status::OK();
}

Status FileKvStore::Delete(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[std::string(key)] = std::nullopt;
  return Status::OK();
}

void FileKvStore::StageRangeTombstonesLocked(const Generation& state,
                                             std::string_view start_key,
                                             std::string_view end_key) {
  auto lower = LowerBound(state.index, start_key);
  auto upper =
      end_key.empty() ? state.index.end() : LowerBound(state.index, end_key);
  for (auto it = lower; it != upper; ++it) {
    pending_[std::string(it->key)] = std::nullopt;
  }
  // Staged-but-unflushed keys in the range die too (they are visible to
  // Get and would otherwise resurface at Flush).
  auto pit = pending_.lower_bound(std::string(start_key));
  auto pend = end_key.empty() ? pending_.end()
                              : pending_.lower_bound(std::string(end_key));
  for (; pit != pend; ++pit) pit->second = std::nullopt;
}

Status FileKvStore::DeleteRange(std::string_view start_key,
                                std::string_view end_key) {
  std::lock_guard<std::mutex> lock(mu_);
  StageRangeTombstonesLocked(*state_, start_key, end_key);
  return Status::OK();
}

Status FileKvStore::Apply(const WriteBatch& batch) {
  // Stage the whole batch under one lock; visibility to scans happens
  // atomically at Flush via the state swap.
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& op : batch.ops()) {
    switch (op.kind) {
      case WriteBatch::Op::kPut:
        pending_[op.key] = op.value;
        break;
      case WriteBatch::Op::kDelete:
        pending_[op.key] = std::nullopt;
        break;
      case WriteBatch::Op::kDeleteRange:
        StageRangeTombstonesLocked(*state_, op.key, op.value);
        break;
    }
  }
  return Status::OK();
}

Status FileKvStore::Get(std::string_view key, std::string* value) const {
  std::shared_ptr<const Generation> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto pit = pending_.find(std::string(key));
    if (pit != pending_.end()) {
      if (!pit->second.has_value()) return Status::NotFound();
      *value = *pit->second;
      return Status::OK();
    }
    state = state_;
  }
  auto it = LowerBound(state->index, key);
  if (it == state->index.end() || it->key != key) return Status::NotFound();
  value->resize(it->value_len);
  return state->file->ReadAt(it->offset, it->value_len, value->data());
}

std::unique_ptr<ScanIterator> FileKvStore::Scan(std::string_view start_key,
                                                std::string_view end_key)
    const {
  std::shared_ptr<const Generation> state = CurrentState();
  const auto& index = state->index;
  const auto lower = LowerBound(index, start_key);
  const auto upper = end_key.empty() ? index.end() : LowerBound(index, end_key);
  const size_t begin_idx = static_cast<size_t>(lower - index.begin());
  const size_t end_idx = static_cast<size_t>(upper - index.begin());
  return std::make_unique<FileScanIterator>(std::move(state), begin_idx,
                                            end_idx);
}

size_t FileKvStore::ApproximateCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->index.size() + pending_.size();
}

Status FileKvStore::Flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
  }
  if (legacy_) KVMATCH_RETURN_NOT_OK(Compact());
  const std::shared_ptr<const Generation> base = CurrentState();

  // Writers are externally serialized, so pending_ cannot change while we
  // read it here without the lock (readers only read it, under mu_).
  auto meta = std::make_shared<std::string>();
  std::string segment(kHeaderSize, '\0');
  std::vector<std::string_view> tombstones;
  uint64_t puts = 0;
  for (const auto& [key, value] : pending_) puts += value.has_value();
  PutVarint64(meta.get(), puts);
  for (const auto& [key, value] : pending_) {
    if (value.has_value()) {
      PutLengthPrefixed(meta.get(), key);
      PutVarint64(meta.get(), file_end_ + segment.size());
      PutVarint32(meta.get(), static_cast<uint32_t>(value->size()));
      segment.append(*value);
    } else {
      // A tombstone only has to reach the disk if it shadows a key.
      auto it = LowerBound(base->index, key);
      if (it != base->index.end() && it->key == key) {
        tombstones.push_back(key);
      }
    }
  }
  if (puts > 0 || !tombstones.empty()) {
    PutVarint64(meta.get(), tombstones.size());
    for (std::string_view key : tombstones) PutLengthPrefixed(meta.get(), key);
    segment.append(*meta);
    AppendFooter(&segment, *meta);
    EncodeHeader(segment.size(), segment.data());
    auto next = ApplySegment(*base, std::move(meta), segment.size());
    if (!next.ok()) return next.status();
    KVMATCH_RETURN_NOT_OK(AppendSegment(segment));
    (*next)->file = file_;
    std::lock_guard<std::mutex> lock(mu_);
    state_ = std::move(next).value();
    pending_.clear();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.clear();  // only tombstones of keys the log never had
  }

  const std::shared_ptr<const Generation> now = CurrentState();
  const uint64_t dead = now->DeadBytes();
  if (dead * kDeadRatio > now->file_bytes - dead) {
    // The appended segment is already durable, so a failed compaction
    // (say, no room for the copy) does not fail this Flush; the log stays
    // as it is and the next Flush tries again.
    (void)Compact();
  }
  return Status::OK();
}

Status FileKvStore::AppendSegment(const std::string& segment) {
  if (file_ == nullptr) {
    auto file = std::make_shared<File>();
    file->path = path_;
    file->fd =
        ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (file->fd < 0) return Status::IOError("cannot create " + path_);
    KVMATCH_RETURN_NOT_OK(SyncDir(path_));
    file_ = std::move(file);
    file_end_ = 0;
    tail_dirty_ = false;
  }
  if (tail_dirty_) {
    if (::ftruncate(file_->fd, static_cast<off_t>(file_end_)) != 0) {
      return Status::IOError(path_ + ": truncating the torn tail failed");
    }
    tail_dirty_ = false;
  }
  // Until the segment is whole and durable, what lies past file_end_ is a
  // torn tail to be cut before the next attempt.
  tail_dirty_ = true;
  KVMATCH_RETURN_NOT_OK(WriteAt(file_->fd, file_end_, segment, path_));
  if (::fdatasync(file_->fd) != 0) {
    return Status::IOError(path_ + ": fdatasync failed");
  }
  tail_dirty_ = false;
  file_end_ += segment.size();
  return Status::OK();
}

Status FileKvStore::Compact() {
  const std::shared_ptr<const Generation> base = CurrentState();
  if (base->file == nullptr) return Status::OK();  // nothing on disk yet

  // The meta block first: with values laid out in key order right after
  // the header, every offset is known before a byte is read.
  auto meta = std::make_shared<std::string>();
  PutVarint64(meta.get(), base->index.size());
  uint64_t offset = kHeaderSize;
  for (const auto& e : base->index) {
    PutLengthPrefixed(meta.get(), e.key);
    PutVarint64(meta.get(), offset);
    PutVarint32(meta.get(), e.value_len);
    offset += e.value_len;
  }
  PutVarint64(meta.get(), 0);  // no tombstones
  const uint64_t seg_len = offset + meta->size() + kFooterSize;
  auto next = ApplySegment(Generation{}, meta, seg_len);
  if (!next.ok()) return next.status();

  // Stream the live values in key order into the replacement file.
  const std::string tmp_path = path_ + ".tmp";
  auto file = std::make_shared<File>();
  file->path = path_;
  file->fd =
      ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (file->fd < 0) return Status::IOError("cannot create " + tmp_path);
  Status st = [&]() -> Status {
    std::string buf(kHeaderSize, '\0');
    EncodeHeader(seg_len, buf.data());
    uint64_t written = 0;
    const auto drain = [&]() -> Status {
      KVMATCH_RETURN_NOT_OK(WriteAt(file->fd, written, buf, tmp_path));
      written += buf.size();
      buf.clear();
      return Status::OK();
    };
    for (const auto& e : base->index) {
      const size_t at = buf.size();
      buf.resize(at + e.value_len);
      KVMATCH_RETURN_NOT_OK(
          base->file->ReadAt(e.offset, e.value_len, buf.data() + at));
      if (buf.size() >= kCompactionBuffer) KVMATCH_RETURN_NOT_OK(drain());
    }
    buf.append(*meta);
    AppendFooter(&buf, *meta);
    KVMATCH_RETURN_NOT_OK(drain());
    if (::fdatasync(file->fd) != 0) {
      return Status::IOError(tmp_path + ": fdatasync failed");
    }
    if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
      return Status::IOError("rename " + tmp_path + " over " + path_ +
                             " failed");
    }
    return Status::OK();
  }();
  if (!st.ok()) {
    ::unlink(tmp_path.c_str());
    return st;
  }

  // The rename is done: the path now names the compacted file, so it
  // becomes the one appends go to whatever the directory sync says.
  (*next)->file = file;
  file_ = std::move(file);
  file_end_ = seg_len;
  tail_dirty_ = false;
  legacy_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = std::move(next).value();
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return SyncDir(path_);
}

void FileKvStore::FillGauges(
    std::vector<std::pair<std::string, uint64_t>>* gauges) const {
  const std::shared_ptr<const Generation> state = CurrentState();
  gauges->emplace_back("entries", ApproximateCount());
  gauges->emplace_back("file_bytes", state->file_bytes);
  gauges->emplace_back("segments", state->segments);
  gauges->emplace_back("dead_bytes", state->DeadBytes());
  gauges->emplace_back("compactions_total",
                       compactions_.load(std::memory_order_relaxed));
}

uint64_t FileKvStore::FileBytes() const { return CurrentState()->file_bytes; }

}  // namespace kvmatch
