#include "storage/kvstore.h"

namespace kvmatch {

uint64_t WriteBatch::ApproximateBytes() const {
  uint64_t bytes = 0;
  for (const auto& op : ops_) bytes += 16 + op.key.size() + op.value.size();
  return bytes;
}

std::string PrefixUpperBound(std::string_view prefix) {
  std::string end(prefix);
  while (!end.empty()) {
    if (static_cast<unsigned char>(end.back()) != 0xff) {
      end.back() = static_cast<char>(end.back() + 1);
      return end;
    }
    end.pop_back();  // 0xff has no successor at this byte; carry
  }
  return end;  // empty: scan to the end of the store
}

Status KvStore::DeleteRange(std::string_view start_key,
                            std::string_view end_key) {
  // Collect first, delete second: a backend's iterator may not tolerate
  // mutation of the range it is walking.
  std::vector<std::string> doomed;
  for (auto it = Scan(start_key, end_key); it->Valid(); it->Next()) {
    KVMATCH_RETURN_NOT_OK(it->status());
    doomed.emplace_back(it->key());
  }
  for (const auto& key : doomed) {
    KVMATCH_RETURN_NOT_OK(Delete(key));
  }
  return Status::OK();
}

Status KvStore::ReplayBatch(const WriteBatch& batch) {
  for (const auto& op : batch.ops()) {
    switch (op.kind) {
      case WriteBatch::Op::kPut:
        KVMATCH_RETURN_NOT_OK(Put(op.key, op.value));
        break;
      case WriteBatch::Op::kDelete:
        KVMATCH_RETURN_NOT_OK(Delete(op.key));
        break;
      case WriteBatch::Op::kDeleteRange:
        KVMATCH_RETURN_NOT_OK(DeleteRange(op.key, op.value));
        break;
    }
  }
  return Status::OK();
}

Status KvStore::Apply(const WriteBatch& batch) { return ReplayBatch(batch); }

std::optional<uint64_t> KvStore::Gauge(std::string_view name) const {
  std::vector<std::pair<std::string, uint64_t>> gauges;
  FillGauges(&gauges);
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return std::nullopt;
}

}  // namespace kvmatch
