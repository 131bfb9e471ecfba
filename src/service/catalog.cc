#include "service/catalog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/coding.h"
#include "common/event_log.h"
#include "service/service_stats.h"
#include "ts/series_store.h"

namespace kvmatch {

namespace {

/// Sorts before "catalog/" ('!' < '/'), so directory scans never see it.
constexpr const char* kNextEpochKey = "catalog!next-epoch";

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string EncodeLayout(const Session::Options& o, uint64_t epoch) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu %zu %.17g %zu %zu %llu", o.wu,
                o.levels, o.width, o.row_cache_rows, o.series_chunk,
                static_cast<unsigned long long>(epoch));
  return buf;
}

bool DecodeLayout(const std::string& in, Session::Options* o,
                  uint64_t* epoch) {
  unsigned long long e = 0;
  const int fields =
      std::sscanf(in.c_str(), "%zu %zu %lf %zu %zu %llu", &o->wu, &o->levels,
                  &o->width, &o->row_cache_rows, &o->series_chunk, &e);
  if (fields < 5) return false;
  *epoch = e;  // 5-field rows (pre-epoch format) read as epoch 0
  return true;
}

/// The commit journal's intent record: everything recovery needs to roll
/// the commit back (delete the new epoch, trim appended tail chunks) or
/// forward (purge the superseded generation).
struct JournalRecord {
  uint64_t epoch = 0;        // the epoch being committed
  std::string data_ns;       // shared chunk namespace the epoch writes
  bool has_prior = false;    // false for CreateSeries
  uint64_t prior_epoch = 0;
  std::string prior_data_ns;
  uint64_t prior_length = 0;  // committed points before this commit
};

constexpr uint32_t kJournalVersion = 1;

std::string EncodeJournal(const JournalRecord& rec) {
  std::string out;
  PutVarint32(&out, kJournalVersion);
  PutVarint64(&out, rec.epoch);
  PutLengthPrefixed(&out, rec.data_ns);
  PutVarint32(&out, rec.has_prior ? 1 : 0);
  PutVarint64(&out, rec.prior_epoch);
  PutLengthPrefixed(&out, rec.prior_data_ns);
  PutVarint64(&out, rec.prior_length);
  return out;
}

bool DecodeJournal(std::string_view in, JournalRecord* rec) {
  uint32_t version = 0, has_prior = 0;
  std::string_view data_ns, prior_data_ns;
  if (!GetVarint32(&in, &version) || version != kJournalVersion ||
      !GetVarint64(&in, &rec->epoch) ||
      !GetLengthPrefixed(&in, &data_ns) ||
      !GetVarint32(&in, &has_prior) ||
      !GetVarint64(&in, &rec->prior_epoch) ||
      !GetLengthPrefixed(&in, &prior_data_ns) ||
      !GetVarint64(&in, &rec->prior_length)) {
    return false;
  }
  rec->data_ns = std::string(data_ns);
  rec->has_prior = has_prior != 0;
  rec->prior_data_ns = std::string(prior_data_ns);
  return true;
}

}  // namespace

Catalog::Catalog(KvStore* store) : Catalog(store, Options()) {}

Catalog::Catalog(KvStore* store, Options options)
    : store_(store),
      options_(options),
      store_write_mu_(std::make_shared<std::mutex>()) {
  // Instrument before any I/O so recovery scans and journal replays are
  // counted too. Every NsHandle holds the wrapper as keepalive: a purge
  // triggered by a pinned Session released after the catalog died still
  // goes through a live object.
  if (options_.instrument_storage) {
    instrumented_ = std::make_shared<InstrumentedKvStore>(store);
    store_ = instrumented_.get();
  }
  // Never reuse an epoch or data-generation number, even across drops and
  // process restarts: a recreated series must not collide with keys of a
  // dying generation.
  std::string next;
  if (store_->Get(kNextEpochKey, &next).ok()) {
    next_epoch_ =
        static_cast<uint64_t>(std::strtoull(next.c_str(), nullptr, 10));
  }

  // Crash recovery first: journaled half-commits are rolled back or
  // forward before any directory row is trusted.
  RecoverJournals();

  // Directory rows live under "catalog/"; '0' is '/' + 1, so this scan
  // covers exactly the "catalog/<name>" range.
  for (auto it = store_->Scan("catalog/", "catalog0"); it->Valid();
       it->Next()) {
    const std::string name(it->key().substr(std::string("catalog/").size()));
    DirEntry entry;
    entry.layout = options_.session;
    if (!DecodeLayout(std::string(it->value()), &entry.layout,
                      &entry.epoch)) {
      continue;
    }
    next_epoch_ = std::max(next_epoch_, entry.epoch + 1);
    // The epoch header tells us the committed length and which shared
    // data generation the epoch reads (legacy epochs keep their chunks
    // under the epoch namespace itself and read back the same way).
    const std::string epoch_data = SeriesNs(name, entry.epoch) + "data/";
    if (auto header = SeriesStore::Open(store_, epoch_data); header.ok()) {
      entry.length = header->size();
      entry.data_ns = header->data_ns();
    } else {
      entry.data_ns = epoch_data;
    }

    auto data_handle = std::make_shared<NsHandle>();
    data_handle->store = store_;
    data_handle->keepalive = instrumented_;
    data_handle->write_mu = store_write_mu_;
    data_handle->prefix = entry.data_ns;
    data_handle->refs = 1;  // the current epoch
    auto handle = std::make_shared<NsHandle>();
    handle->store = store_;
    handle->keepalive = instrumented_;
    handle->write_mu = store_write_mu_;
    handle->prefix = SeriesNs(name, entry.epoch);
    handle->parent = data_handle;
    data_handles_.emplace(name, std::move(data_handle));
    handles_.emplace(name, std::move(handle));
    directory_.emplace(name, std::move(entry));
  }

  // With the directory restored, anything else under series/ is debris
  // from a crashed drop or a pre-journal failure.
  SweepOrphans();
}

Catalog::~Catalog() {
  std::lock_guard<std::mutex> write_lock(*store_write_mu_);
  (void)store_->Flush();
}

void Catalog::SetStatsRegistry(StatsRegistry* stats) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  stats_ = stats;
  if (stats == nullptr) return;
  // One registry snapshot should cover the whole write path: the store's
  // per-op stats and the event journal's counters ride along.
  if (instrumented_ != nullptr) stats->AttachStorage(instrumented_->stats());
  if (options_.event_log != nullptr) stats->AttachEventLog(options_.event_log);
}

// ---- Crash recovery (constructor only; no concurrency yet) ----

void Catalog::RecoverJournals() {
  std::vector<std::pair<std::string, std::string>> journals;
  for (auto it = store_->Scan("journal/", "journal0"); it->Valid();
       it->Next()) {
    journals.emplace_back(
        std::string(it->key().substr(std::string("journal/").size())),
        std::string(it->value()));
  }
  if (journals.empty()) return;

  for (const auto& [name, raw] : journals) {
    WriteBatch fix;
    JournalRecord rec;
    if (!DecodeJournal(raw, &rec)) {
      // Undecodable intent record: drop it and let the orphan sweep
      // reconcile the namespaces against the directory.
      fix.Delete(JournalKey(name));
      (void)store_->Apply(fix);
      continue;
    }
    next_epoch_ = std::max(next_epoch_, rec.epoch + 1);

    // The directory row is the commit point: if it names the journaled
    // epoch, the flip became durable and we finish the commit; otherwise
    // the epoch never happened and we unwind it.
    std::string dir_raw;
    Session::Options layout = options_.session;
    uint64_t dir_epoch = 0;
    const bool committed =
        store_->Get(DirectoryKey(name), &dir_raw).ok() &&
        DecodeLayout(dir_raw, &layout, &dir_epoch) &&
        dir_epoch == rec.epoch;

    if (committed) {
      // Roll forward: the retire-and-purge the crashed process never ran.
      if (rec.has_prior) {
        const std::string prior_ns = SeriesNs(name, rec.prior_epoch);
        fix.DeleteRange(prior_ns, PrefixUpperBound(prior_ns));
        if (rec.prior_data_ns != rec.data_ns) {
          fix.DeleteRange(rec.prior_data_ns,
                          PrefixUpperBound(rec.prior_data_ns));
        }
      }
      ++recovery_.epochs_rolled_forward;
      if (options_.event_log != nullptr) {
        options_.event_log->Emit(Event{kEventRecoveryRollforward, name}
                                     .Num("epoch", rec.epoch)
                                     .Num("prior_epoch", rec.prior_epoch));
      }
    } else {
      // Roll back: delete the half-written epoch; for an in-place append,
      // trim the tail chunks past the previously committed length (the
      // grown partial chunk is harmless — readers stop at their length).
      const std::string epoch_ns = SeriesNs(name, rec.epoch);
      fix.DeleteRange(epoch_ns, PrefixUpperBound(epoch_ns));
      if (!rec.has_prior || rec.prior_data_ns != rec.data_ns) {
        fix.DeleteRange(rec.data_ns, PrefixUpperBound(rec.data_ns));
      } else {
        fix.DeleteRange(
            SeriesStore::ChunkKey(rec.data_ns, rec.prior_length),
            PrefixUpperBound(rec.data_ns + "c"));
      }
      ++recovery_.epochs_rolled_back;
      if (options_.event_log != nullptr) {
        options_.event_log->Emit(Event{kEventRecoveryRollback, name}
                                     .Num("epoch", rec.epoch)
                                     .Num("prior_length", rec.prior_length));
      }
    }
    // Burn the journaled epoch number durably, even on rollback.
    fix.Put(kNextEpochKey, std::to_string(next_epoch_));
    fix.Delete(JournalKey(name));
    (void)store_->Apply(fix);
  }
  (void)store_->Flush();
}

void Catalog::SweepOrphans() {
  constexpr std::string_view kSeriesPrefix = "series/";
  std::vector<std::string> doomed;
  std::string last_child;
  for (auto it = store_->Scan(kSeriesPrefix,
                              PrefixUpperBound(kSeriesPrefix));
       it->Valid(); it->Next()) {
    const std::string key(it->key());
    const size_t name_end = key.find('/', kSeriesPrefix.size());
    if (name_end == std::string::npos) continue;
    const size_t child_end = key.find('/', name_end + 1);
    if (child_end == std::string::npos) continue;
    std::string child_prefix = key.substr(0, child_end + 1);
    if (child_prefix == last_child) continue;  // scan is ordered
    last_child = child_prefix;

    const std::string name =
        key.substr(kSeriesPrefix.size(), name_end - kSeriesPrefix.size());
    const std::string child =
        key.substr(name_end + 1, child_end - name_end - 1);
    // Epoch-counter safety net: never hand out a number that could
    // collide with keys we are about to (or failed to) delete.
    if (child.size() > 1 && (child[0] == 'e' || child[0] == 'd')) {
      next_epoch_ = std::max(
          next_epoch_,
          static_cast<uint64_t>(
              std::strtoull(child.c_str() + 1, nullptr, 10)) + 1);
    }

    bool valid = false;
    auto dit = directory_.find(name);
    if (dit != directory_.end()) {
      valid = child_prefix == SeriesNs(name, dit->second.epoch) ||
              child_prefix == dit->second.data_ns;
    }
    if (!valid) doomed.push_back(std::move(child_prefix));
  }
  for (const auto& prefix : doomed) {
    (void)store_->DeleteRange(prefix, PrefixUpperBound(prefix));
    ++recovery_.orphans_swept;
    if (options_.event_log != nullptr) {
      options_.event_log->Emit(
          Event{kEventOrphanSweep}.Str("prefix", prefix));
    }
  }
  if (!doomed.empty()) (void)store_->Flush();
}

// ---- Namespace lifecycle ----

void Catalog::PurgeNs(const std::shared_ptr<NsHandle>& handle) {
  // Serialized against ingest commits: purges run on whichever thread
  // drops the last reference, and the store requires one writer at a
  // time. Staged only: the next commit's Flush (or the catalog's
  // shutdown Flush) makes it durable, so a query thread dropping the last
  // pin never pays an fdatasync or a compaction. Best-effort — a purge
  // lost to a failure or a crash only leaks dead keys, which the next
  // open's orphan sweep reclaims.
  std::lock_guard<std::mutex> write_lock(*handle->write_mu);
  (void)handle->store->DeleteRange(handle->prefix,
                                   PrefixUpperBound(handle->prefix));
}

void Catalog::ReleaseNs(std::shared_ptr<NsHandle> handle) {
  while (handle != nullptr) {
    bool purge = false;
    {
      std::lock_guard<std::mutex> lock(handle->mu);
      handle->refs -= 1;
      purge = handle->retired && handle->refs == 0 && !handle->purged;
      if (purge) handle->purged = true;
    }
    if (!purge) return;
    PurgeNs(handle);
    // A purged epoch can no longer reach its data generation: release it.
    handle = handle->parent;
  }
}

void Catalog::RetireNs(const std::shared_ptr<NsHandle>& handle) {
  bool purge = false;
  {
    std::lock_guard<std::mutex> lock(handle->mu);
    handle->retired = true;
    purge = handle->refs == 0 && !handle->purged;
    if (purge) handle->purged = true;
  }
  if (!purge) return;  // the last reference's release will purge
  PurgeNs(handle);
  if (handle->parent != nullptr) ReleaseNs(handle->parent);
}

void Catalog::AddNsRef(const std::shared_ptr<NsHandle>& handle) {
  std::lock_guard<std::mutex> lock(handle->mu);
  handle->refs += 1;
}

std::shared_ptr<const Session> Catalog::WrapSession(
    std::shared_ptr<NsHandle> handle, std::unique_ptr<Session> session) {
  AddNsRef(handle);
  return std::shared_ptr<const Session>(
      session.release(), [handle](const Session* s) {
        delete s;
        ReleaseNs(handle);
      });
}

void Catalog::RetireOpenEntryLocked(const std::string& name) {
  auto it = open_.find(name);
  if (it == open_.end()) return;
  const Session& session = *it->second.session;
  const uint64_t series_bytes = session.SeriesBytes();
  retired_.push_back({it->second.session, name, session.buffer(),
                      series_bytes, it->second.bytes - series_bytes});
  open_bytes_ -= it->second.bytes;
  open_.erase(it);
}

// ---- Write path ----

Status Catalog::CommitEpochLocked(const std::string& name,
                                  SeriesIngestor* ingestor, CommitKind kind,
                                  std::span<const double> values) {
  const uint64_t appended_points = values.size();
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  const auto commit_t0 = Clock::now();

  Session::Options layout;
  bool existed = false;
  uint64_t prior_epoch = 0;
  uint64_t prior_length = 0;
  std::string prior_data_ns;
  // The live epoch's cached session, which an append extends in place.
  std::shared_ptr<const Session> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto dir = directory_.find(name);
    existed = dir != directory_.end();
    layout = existed ? dir->second.layout : options_.session;
    if (existed) {
      prior_epoch = dir->second.epoch;
      prior_length = dir->second.length;
      prior_data_ns = dir->second.data_ns;
    }
    auto open = open_.find(name);
    if (kind == CommitKind::kAppend && open != open_.end()) {
      base = open->second.session;
    }
  }

  const uint64_t epoch = next_epoch_++;
  const std::string ns = SeriesNs(name, epoch);
  // Appends extend the existing data generation in place; creates and
  // replaces start a fresh one. Legacy (pre-delta-commit) epochs keep
  // their chunks inside the epoch namespace, which the next epoch must
  // not share — migrate them to a shared generation on first append.
  bool new_datagen = kind != CommitKind::kAppend;
  if (!new_datagen && prior_data_ns == SeriesNs(name, prior_epoch) + "data/") {
    new_datagen = true;
  }
  const std::string data_ns =
      new_datagen ? DataGenNs(name, epoch) : prior_data_ns;
  const uint64_t from_offset = new_datagen ? 0 : prior_length;

  JournalRecord rec;
  rec.epoch = epoch;
  rec.data_ns = data_ns;
  rec.has_prior = existed;
  rec.prior_epoch = prior_epoch;
  rec.prior_data_ns = prior_data_ns;
  rec.prior_length = prior_length;

  uint64_t batches = 0;
  CommitBreakdown breakdown;
  double journal_ms = 0.0;
  double flip_ms = 0.0;
  double flush_ms = 0.0;
  {
    std::lock_guard<std::mutex> write_lock(*store_write_mu_);
    // Intent first: every backend persists staged writes in order, so the
    // journal row is durable no later than any byte of the epoch it
    // describes — a crash mid-commit always leaves the intent behind.
    const auto journal_t0 = Clock::now();
    Status st = store_->Put(JournalKey(name), EncodeJournal(rec));
    journal_ms = ms_since(journal_t0);
    if (st.ok()) st = ingestor->Commit(store_, ns, data_ns, from_offset,
                                       &batches, &breakdown);
    if (st.ok()) {
      // The flip: one atomic batch makes the new epoch the durable truth.
      const auto flip_t0 = Clock::now();
      WriteBatch flip;
      flip.Put(DirectoryKey(name), EncodeLayout(layout, epoch));
      flip.Put(kNextEpochKey, std::to_string(next_epoch_));
      st = store_->Apply(flip);
      if (st.ok()) {
        const auto flush_t0 = Clock::now();
        st = store_->Flush();
        flush_ms = ms_since(flush_t0);
      }
      flip_ms = ms_since(flip_t0);
    }
    if (!st.ok()) {
      // Abandon the half-written epoch. The rollback must also unwind the
      // flip: on stores that stage writes until Flush, the directory row
      // may still be pending and would otherwise ride out on a later
      // successful Flush, durably pointing at the purged namespace.
      WriteBatch rollback;
      rollback.DeleteRange(ns, PrefixUpperBound(ns));
      if (new_datagen) {
        rollback.DeleteRange(data_ns, PrefixUpperBound(data_ns));
      } else {
        // In-place append: trim the tail chunks past the committed
        // length; the grown partial chunk stays (readers stop at their
        // header's length, and the next append rewrites it).
        rollback.DeleteRange(SeriesStore::ChunkKey(data_ns, prior_length),
                             PrefixUpperBound(data_ns + "c"));
      }
      if (existed) {
        rollback.Put(DirectoryKey(name),
                     EncodeLayout(layout, prior_epoch));
      } else {
        rollback.Delete(DirectoryKey(name));
      }
      // Never roll the epoch counter back: burning epoch numbers is safe,
      // reusing them is not.
      rollback.Put(kNextEpochKey, std::to_string(next_epoch_));
      rollback.Delete(JournalKey(name));
      (void)store_->Apply(rollback);
      (void)store_->Flush();
      return st;
    }
    // Commit is durable: clear the intent. Best-effort — a lingering
    // journal is re-processed at the next open as an idempotent
    // roll-forward.
    (void)store_->Delete(JournalKey(name));
  }
  ingestor->TrimCommitted();

  // Install: the new epoch's session comes from the values in hand —
  // the live session extended by the appended tail, or the series a
  // create/replace was given. Only an append whose live session was
  // evicted reads the series back from the store.
  const auto install_t0 = Clock::now();
  Result<std::unique_ptr<Session>> session =
      kind != CommitKind::kAppend ? Session::OpenWithSeries(store_, ns,
                                                            layout, values)
      : base != nullptr           ? base->Extend(store_, ns, layout, values)
                                  : Session::Open(store_, ns, layout);
  base.reset();
  if (!session.ok()) return session.status();

  std::shared_ptr<NsHandle> old_handle;
  std::shared_ptr<NsHandle> old_data_handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = handles_.find(name);
    if (hit != handles_.end()) old_handle = hit->second;

    std::shared_ptr<NsHandle> data_handle;
    if (new_datagen) {
      auto dhit = data_handles_.find(name);
      if (dhit != data_handles_.end()) old_data_handle = dhit->second;
      data_handle = std::make_shared<NsHandle>();
      data_handle->store = store_;
      data_handle->keepalive = instrumented_;
      data_handle->write_mu = store_write_mu_;
      data_handle->prefix = data_ns;
      data_handle->refs = 1;  // this epoch
      data_handles_[name] = data_handle;
    } else {
      data_handle = data_handles_.at(name);
      AddNsRef(data_handle);  // the new epoch's reference
    }

    auto handle = std::make_shared<NsHandle>();
    handle->store = store_;
    handle->keepalive = instrumented_;
    handle->write_mu = store_write_mu_;
    handle->prefix = ns;
    handle->parent = std::move(data_handle);
    handles_[name] = handle;
    directory_[name] = {layout, epoch, ingestor->size(), data_ns};

    // The previous generation leaves the open cache but stays accounted
    // (and alive) until its pinned readers finish.
    RetireOpenEntryLocked(name);
    CacheLocked(name,
                WrapSession(std::move(handle), std::move(session).value()));
  }
  const double install_ms = ms_since(install_t0);
  // Outside mu_: retiring may purge inline. The superseded data
  // generation is retired first — the old epoch still holds a reference,
  // so its keys survive until that epoch (and its readers) are gone.
  const auto retire_t0 = Clock::now();
  if (old_data_handle != nullptr) RetireNs(old_data_handle);
  if (old_handle != nullptr) RetireNs(old_handle);
  const double retire_ms = ms_since(retire_t0);

  const double total_ms = ms_since(commit_t0);
  const char* kind_name = kind == CommitKind::kCreate    ? "create"
                          : kind == CommitKind::kAppend ? "append"
                                                        : "replace";
  if (stats_ != nullptr) {
    stats_->RecordIngest(name, appended_points, batches);
    stats_->RecordEpochInstalled(name, epoch);
    if (old_handle != nullptr) stats_->RecordEpochRetired();

    CommitRecord record;
    record.kind = kind_name;
    record.total_ms = total_ms;
    record.journal_ms = journal_ms;
    record.data_ms = breakdown.data_ms;
    record.index_ms = breakdown.index_ms;
    record.header_ms = breakdown.header_ms;
    record.flip_ms = flip_ms;
    record.flush_ms = flush_ms;
    record.install_ms = install_ms;
    record.retire_ms = retire_ms;
    record.chunk_rows = breakdown.chunk_rows;
    record.index_rows = breakdown.index_rows;
    record.bytes_written = breakdown.bytes_written;
    record.batches = batches;
    stats_->RecordCommit(record);
  }

  const bool slow = options_.slow_commit_ms > 0.0 &&
                    total_ms >= options_.slow_commit_ms;
  if (slow && stats_ != nullptr) stats_->RecordSlowCommit();
  if (options_.event_log != nullptr) {
    options_.event_log->Emit(Event{kEventEpochCommit, name}
                                 .Str("kind", kind_name)
                                 .Num("epoch", epoch)
                                 .Num("points", appended_points)
                                 .Num("batches", batches)
                                 .Num("chunk_rows", breakdown.chunk_rows)
                                 .Num("index_rows", breakdown.index_rows)
                                 .Num("bytes", breakdown.bytes_written)
                                 .FNum("total_ms", total_ms)
                                 .FNum("journal_ms", journal_ms)
                                 .FNum("data_ms", breakdown.data_ms)
                                 .FNum("index_ms", breakdown.index_ms)
                                 .FNum("header_ms", breakdown.header_ms)
                                 .FNum("flip_ms", flip_ms)
                                 .FNum("flush_ms", flush_ms)
                                 .FNum("install_ms", install_ms)
                                 .FNum("retire_ms", retire_ms));
    if (slow) {
      options_.event_log->Emit(
          Event{kEventSlowCommit, name}
              .Str("kind", kind_name)
              .Num("epoch", epoch)
              .FNum("total_ms", total_ms)
              .FNum("threshold_ms", options_.slow_commit_ms));
    }
  }
  return Status::OK();
}

Status Catalog::CreateSeries(const std::string& name, TimeSeries series) {
  if (!ValidName(name)) {
    return Status::InvalidArgument("bad series name: " + name);
  }
  if (series.size() < options_.session.wu) {
    return Status::InvalidArgument("series shorter than smallest window");
  }
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (directory_.count(name) > 0) {
      return Status::InvalidArgument("series already registered: " + name);
    }
  }
  auto ingestor = std::make_unique<SeriesIngestor>(options_.session);
  ingestor->Append(series.values());
  KVMATCH_RETURN_NOT_OK(CommitEpochLocked(name, ingestor.get(),
                                          CommitKind::kCreate,
                                          series.values()));
  ingestors_[name] = std::move(ingestor);
  return Status::OK();
}

Status Catalog::AppendSeries(const std::string& name,
                             std::span<const double> values) {
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  DirEntry dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = directory_.find(name);
    if (it == directory_.end()) {
      return Status::NotFound("unknown series: " + name);
    }
    dir = it->second;
  }
  if (values.empty()) return Status::OK();

  auto iit = ingestors_.find(name);
  if (iit == ingestors_.end()) {
    // Ingest state was never built in this process (or was dropped after
    // a failed commit): reseed it from the current epoch.
    auto session = Acquire(name);
    if (!session.ok()) return session.status();
    auto ingestor = std::make_unique<SeriesIngestor>(dir.layout);
    ingestor->Append((*session)->series().values());
    iit = ingestors_.emplace(name, std::move(ingestor)).first;
  }
  iit->second->Append(values);
  Status st = CommitEpochLocked(name, iit->second.get(), CommitKind::kAppend,
                                values);
  // On failure the ingestor holds points the store never saw; drop it so
  // the next append reseeds from the last committed epoch.
  if (!st.ok()) ingestors_.erase(name);
  return st;
}

Status Catalog::ReplaceSeries(const std::string& name, TimeSeries series) {
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  DirEntry dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = directory_.find(name);
    if (it == directory_.end()) {
      return Status::NotFound("unknown series: " + name);
    }
    dir = it->second;
  }
  if (series.size() < dir.layout.wu) {
    return Status::InvalidArgument("series shorter than smallest window");
  }
  auto ingestor = std::make_unique<SeriesIngestor>(dir.layout);
  ingestor->Append(series.values());
  Status st = CommitEpochLocked(name, ingestor.get(), CommitKind::kReplace,
                                series.values());
  if (st.ok()) {
    ingestors_[name] = std::move(ingestor);
  } else {
    ingestors_.erase(name);
  }
  return st;
}

Status Catalog::DropSeries(const std::string& name) {
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  std::shared_ptr<NsHandle> old_handle;
  std::shared_ptr<NsHandle> old_data_handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = directory_.find(name);
    if (it == directory_.end()) {
      return Status::NotFound("unknown series: " + name);
    }
    directory_.erase(it);
    auto hit = handles_.find(name);
    if (hit != handles_.end()) {
      old_handle = hit->second;
      handles_.erase(hit);
    }
    auto dhit = data_handles_.find(name);
    if (dhit != data_handles_.end()) {
      old_data_handle = dhit->second;
      data_handles_.erase(dhit);
    }
    RetireOpenEntryLocked(name);
  }
  ingestors_.erase(name);
  {
    std::lock_guard<std::mutex> write_lock(*store_write_mu_);
    WriteBatch batch;
    batch.Delete(DirectoryKey(name));
    KVMATCH_RETURN_NOT_OK(store_->Apply(batch));
  }
  // Data generation first: the epoch still references it, so its keys
  // outlive every reader that can still reach them. Purges of unpinned
  // namespaces are staged here and made durable by the drop's own Flush,
  // after the directory delete they follow.
  if (old_data_handle != nullptr) RetireNs(old_data_handle);
  if (old_handle != nullptr) RetireNs(old_handle);
  {
    std::lock_guard<std::mutex> write_lock(*store_write_mu_);
    KVMATCH_RETURN_NOT_OK(store_->Flush());
  }
  if (stats_ != nullptr) {
    stats_->RecordEpochRetired();
    stats_->RecordSeriesDropped(name);
  }
  if (options_.event_log != nullptr) {
    options_.event_log->Emit(Event{kEventSeriesDrop, name});
  }
  return Status::OK();
}

// ---- Read path ----

Result<std::shared_ptr<const Session>> Catalog::Acquire(
    const std::string& name) {
  for (;;) {
    Session::Options layout;
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (open_.count(name) > 0) return TouchLocked(name);
      auto dir = directory_.find(name);
      if (dir == directory_.end()) {
        return Status::NotFound("unknown series: " + name);
      }
      layout = dir->second.layout;
      epoch = dir->second.epoch;
    }

    // Open outside the lock; a racing thread may open the same series
    // concurrently — the loser's copy is discarded below, which only
    // wastes work, never correctness.
    auto session = Session::Open(store_, SeriesNs(name, epoch), layout);

    std::lock_guard<std::mutex> lock(mu_);
    auto dir = directory_.find(name);
    if (dir == directory_.end()) {
      return Status::NotFound("unknown series: " + name);  // dropped
    }
    if (dir->second.epoch != epoch) continue;  // superseded: reopen fresh
    if (!session.ok()) return session.status();
    if (open_.count(name) > 0) return TouchLocked(name);
    return CacheLocked(name, WrapSession(handles_.at(name),
                                         std::move(session).value()));
  }
}

std::shared_ptr<const Session> Catalog::TouchLocked(const std::string& name) {
  Entry& entry = open_.at(name);
  entry.last_used = ++tick_;
  // Re-measure: store-backed sessions grow as probes warm the row caches,
  // and the budget should see that growth.
  const uint64_t now_bytes = entry.session->MemoryBytes();
  open_bytes_ = open_bytes_ - entry.bytes + now_bytes;
  entry.bytes = now_bytes;
  std::shared_ptr<const Session> session = entry.session;
  EvictOverBudgetLocked(name);
  return session;
}

std::shared_ptr<const Session> Catalog::CacheLocked(
    const std::string& name, std::shared_ptr<const Session> session) {
  Entry entry;
  entry.session = session;
  entry.bytes = session->MemoryBytes();
  entry.last_used = ++tick_;
  open_bytes_ += entry.bytes;
  open_.emplace(name, std::move(entry));
  EvictOverBudgetLocked(name);
  return session;
}

uint64_t Catalog::RetiredBytesLocked() const {
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const RetiredEntry& r) {
                                  return r.session.expired();
                                }),
                 retired_.end());
  // Epochs of one series share their series buffer: count each buffer
  // once, and not at all when the open entry already counts it.
  uint64_t bytes = 0;
  std::vector<std::pair<const SeriesBuffer*, uint64_t>> buffers;
  for (const auto& r : retired_) {
    bytes += r.other_bytes;
    auto open = open_.find(r.name);
    if (open != open_.end() && open->second.session->buffer() == r.buffer) {
      continue;
    }
    auto it = std::find_if(buffers.begin(), buffers.end(),
                           [&](const auto& b) { return b.first == r.buffer; });
    if (it == buffers.end()) {
      buffers.emplace_back(r.buffer, r.series_bytes);
    } else {
      it->second = std::max(it->second, r.series_bytes);
    }
  }
  for (const auto& [buffer, series_bytes] : buffers) bytes += series_bytes;
  return bytes;
}

void Catalog::EvictOverBudgetLocked(const std::string& protect) {
  if (options_.memory_budget_bytes == 0) return;
  // Retired-but-pinned generations count against the budget but cannot be
  // evicted (their readers hold them); the pressure lands on open entries.
  // Re-measured per victim: evicting an open entry hands the series
  // buffer it shares with a pinned epoch over to the retired count.
  while (open_bytes_ + RetiredBytesLocked() > options_.memory_budget_bytes &&
         open_.size() > 1) {
    auto victim = open_.end();
    for (auto it = open_.begin(); it != open_.end(); ++it) {
      if (it->first == protect) continue;  // keep the entry just touched
      if (victim == open_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == open_.end()) break;
    open_bytes_ -= victim->second.bytes;
    ++evicted_;
    // EventLog::Emit never calls back into the catalog, so emitting under
    // mu_ is safe.
    if (options_.event_log != nullptr) {
      options_.event_log->Emit(Event{kEventEviction, victim->first}
                                   .Num("bytes", victim->second.bytes)
                                   .Num("open_sessions", open_.size() - 1));
    }
    open_.erase(victim);
  }
}

bool Catalog::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return directory_.count(name) > 0;
}

std::vector<std::string> Catalog::ListSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(directory_.size());
  for (const auto& [name, entry] : directory_) names.push_back(name);
  return names;
}

Result<uint64_t> Catalog::SeriesEpoch(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return Status::NotFound("unknown series: " + name);
  }
  return it->second.epoch;
}

Result<uint64_t> Catalog::SeriesLength(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(name);
  if (it == directory_.end()) {
    return Status::NotFound("unknown series: " + name);
  }
  return it->second.length;
}

size_t Catalog::cached_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

uint64_t Catalog::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_bytes_;
}

size_t Catalog::retired_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  (void)RetiredBytesLocked();  // prune expired entries
  return retired_.size();
}

uint64_t Catalog::retired_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RetiredBytesLocked();
}

uint64_t Catalog::ingest_state_bytes() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  uint64_t bytes = 0;
  for (const auto& [name, ingestor] : ingestors_) {
    bytes += ingestor->MemoryBytes();
  }
  return bytes;
}

CatalogGauges Catalog::Gauges() const {
  CatalogGauges g;
  {
    // mu_ only — ingest_state_bytes() takes ingest_mu_ separately below.
    // (CommitEpochLocked holds ingest_mu_ and then takes mu_, so nesting
    // them here in the opposite order would deadlock.)
    std::lock_guard<std::mutex> lock(mu_);
    g.live_epochs = handles_.size();
    g.data_generations = data_handles_.size();
    g.resident_series = open_.size();
    g.resident_bytes = open_bytes_ + RetiredBytesLocked();
    g.pinned_snapshots = retired_.size();  // pruned by RetiredBytesLocked
    g.memory_budget_bytes = options_.memory_budget_bytes;
    g.series_evicted = evicted_;
  }
  g.ingest_state_bytes = ingest_state_bytes();
  g.journal_replays =
      recovery_.epochs_rolled_back + recovery_.epochs_rolled_forward;
  g.orphans_swept = recovery_.orphans_swept;
  store_->FillGauges(&g.backend);
  return g;
}

}  // namespace kvmatch
