// Crash-point replay: the catalog's epoch delta-commit must be atomic at
// the granularity of whole Create/Append/Replace/Drop operations, on every
// backend, no matter where a crash lands inside the commit sequence.
//
// The harness runs a scripted mutation history once to learn the exact
// write-op trace, then replays it once per crash offset with a
// FaultInjectingKvStore that drops every write past the offset, reopens
// the catalog over the survivor state (for disk backends: over a freshly
// reopened store, so staged-but-unflushed writes are genuinely lost), and
// asserts the recovered contents equal either the pre-commit or the
// post-commit brute-force state of the interrupted operation — never
// anything in between — and that recovery leaves no journal rows or
// orphaned key namespaces behind.
//
// Runs in the ASan+UBSan CI job; ctest label: crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/brute_force.h"
#include "common/rng.h"
#include "fault_kvstore.h"
#include "service/catalog.h"
#include "storage/file_kvstore.h"
#include "storage/mem_kvstore.h"
#include "storage/minikv.h"
#include "ts/generator.h"

namespace kvmatch {
namespace {

namespace fs = std::filesystem;

enum class Backend { kMem, kFile, kMini };

/// A backend that can be "reopened" the way a restarted process would:
/// disk-backed stores are destroyed and reloaded from their path (losing
/// staged-but-unflushed state); MemKvStore has no durability boundary, so
/// the same object carries over.
struct CrashStore {
  Backend kind = Backend::kMem;
  std::string path;
  std::unique_ptr<KvStore> store;

  CrashStore() = default;
  CrashStore(CrashStore&&) = default;
  CrashStore& operator=(CrashStore&&) = default;

  static CrashStore Make(Backend kind, const std::string& tag) {
    CrashStore out;
    out.kind = kind;
    switch (kind) {
      case Backend::kMem:
        out.store = std::make_unique<MemKvStore>();
        break;
      case Backend::kFile: {
        out.path = (fs::temp_directory_path() / ("kvm_crash_f_" + tag))
                       .string();
        std::error_code ec;
        fs::remove_all(out.path, ec);
        auto r = FileKvStore::Open(out.path);
        EXPECT_TRUE(r.ok());
        out.store = std::move(r).value();
        break;
      }
      case Backend::kMini: {
        out.path = (fs::temp_directory_path() / ("kvm_crash_m_" + tag))
                       .string();
        std::error_code ec;
        fs::remove_all(out.path, ec);
        MiniKv::Options mopts;
        mopts.memtable_limit_bytes = 2048;  // spills bisect commit batches
        auto r = MiniKv::Open(out.path, mopts);
        EXPECT_TRUE(r.ok());
        out.store = std::move(r).value();
        break;
      }
    }
    return out;
  }

  void Reopen() {
    switch (kind) {
      case Backend::kMem:
        return;  // no durability boundary to model
      case Backend::kFile: {
        store.reset();
        auto r = FileKvStore::Open(path);
        ASSERT_TRUE(r.ok());
        store = std::move(r).value();
        return;
      }
      case Backend::kMini: {
        store.reset();
        MiniKv::Options mopts;
        mopts.memtable_limit_bytes = 2048;
        auto r = MiniKv::Open(path, mopts);
        ASSERT_TRUE(r.ok());
        store = std::move(r).value();
        return;
      }
    }
  }

  ~CrashStore() {
    store.reset();
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

Catalog::Options SmallCatalogOptions() {
  Catalog::Options copts;
  copts.session.wu = 25;
  copts.session.levels = 2;
  copts.session.series_chunk = 64;  // several chunks per series
  return copts;
}

// ---- The scripted mutation history and its brute-force oracle ----

struct ScriptOp {
  enum Kind { kCreate, kAppend, kReplace, kDrop };
  Kind kind;
  std::string name;
  size_t n = 0;       // points created/appended/replaced
  uint64_t seed = 0;  // deterministic values
};

std::vector<double> GenValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  return GenerateSynthetic(n, &rng).values();
}

std::vector<ScriptOp> Script() {
  return {
      {ScriptOp::kCreate, "a", 300, 1001},
      {ScriptOp::kAppend, "a", 150, 1002},
      {ScriptOp::kCreate, "b", 260, 1003},
      {ScriptOp::kAppend, "a", 90, 1004},
      {ScriptOp::kReplace, "a", 400, 1005},
      {ScriptOp::kAppend, "a", 120, 1006},
      {ScriptOp::kDrop, "b", 0, 0},
  };
}

using OracleState = std::map<std::string, std::vector<double>>;

/// states[i] = catalog contents after the first i script ops.
std::vector<OracleState> OracleStates(const std::vector<ScriptOp>& script) {
  std::vector<OracleState> states;
  states.emplace_back();
  for (const auto& op : script) {
    OracleState next = states.back();
    switch (op.kind) {
      case ScriptOp::kCreate:
      case ScriptOp::kReplace:
        next[op.name] = GenValues(op.n, op.seed);
        break;
      case ScriptOp::kAppend: {
        const std::vector<double> tail = GenValues(op.n, op.seed);
        auto& values = next[op.name];
        values.insert(values.end(), tail.begin(), tail.end());
        break;
      }
      case ScriptOp::kDrop:
        next.erase(op.name);
        break;
    }
    states.push_back(std::move(next));
  }
  return states;
}

Status ApplyOp(Catalog* catalog, const ScriptOp& op) {
  switch (op.kind) {
    case ScriptOp::kCreate:
      return catalog->CreateSeries(op.name,
                                   TimeSeries(GenValues(op.n, op.seed)));
    case ScriptOp::kAppend: {
      const std::vector<double> tail = GenValues(op.n, op.seed);
      return catalog->AppendSeries(op.name, tail);
    }
    case ScriptOp::kReplace:
      return catalog->ReplaceSeries(op.name,
                                    TimeSeries(GenValues(op.n, op.seed)));
    case ScriptOp::kDrop:
      return catalog->DropSeries(op.name);
  }
  return Status::Internal("unreachable");
}

/// Does the recovered catalog hold exactly `state` (same series, same
/// values, all Acquire-able)?
bool MatchesState(Catalog* catalog, const OracleState& state) {
  const auto names = catalog->ListSeries();
  if (names.size() != state.size()) return false;
  for (const auto& [name, values] : state) {
    auto session = catalog->Acquire(name);
    if (!session.ok()) return false;
    if (!std::ranges::equal((*session)->series().values(), values)) {
      return false;
    }
  }
  return true;
}

size_t CountKeys(KvStore* store, const std::string& prefix) {
  size_t n = 0;
  for (auto it = store->Scan(prefix, PrefixUpperBound(prefix)); it->Valid();
       it->Next()) {
    ++n;
  }
  return n;
}

/// Cumulative write-op count after each script op, learned from one clean
/// instrumented run. boundaries[i] = ops consumed by the first i+1 ops.
std::vector<uint64_t> LearnBoundaries(const std::vector<ScriptOp>& script,
                                      Backend kind) {
  CrashStore cs = CrashStore::Make(kind, "dry");
  FaultInjectingKvStore wrapper(cs.store.get());
  Catalog catalog(&wrapper, SmallCatalogOptions());
  std::vector<uint64_t> boundaries;
  for (const auto& op : script) {
    EXPECT_TRUE(ApplyOp(&catalog, op).ok());
    boundaries.push_back(wrapper.write_ops());
  }
  return boundaries;
}

class CrashPointReplay : public ::testing::TestWithParam<Backend> {};

TEST_P(CrashPointReplay, EveryCrashOffsetRecoversToPreOrPostState) {
  const Backend kind = GetParam();
  const std::vector<ScriptOp> script = Script();
  const std::vector<OracleState> states = OracleStates(script);
  const std::vector<uint64_t> boundaries = LearnBoundaries(script, kind);
  ASSERT_FALSE(boundaries.empty());
  const uint64_t total = boundaries.back();
  ASSERT_GT(total, script.size());  // the commit protocol is multi-write

  const QueryParams params = [] {
    QueryParams p;
    p.type = QueryType::kRsmEd;
    p.epsilon = 3.0;
    return p;
  }();

  for (uint64_t crash = 0; crash <= total; ++crash) {
    CrashStore cs = CrashStore::Make(kind, "c" + std::to_string(crash));
    FaultInjectingKvStore wrapper(cs.store.get());
    {
      Catalog doomed(&wrapper, SmallCatalogOptions());
      wrapper.CrashAfter(crash);
      for (const auto& op : script) (void)ApplyOp(&doomed, op);
    }
    cs.Reopen();
    Catalog recovered(cs.store.get(), SmallCatalogOptions());

    // The crash landed inside op j (1-based); recovery must surface the
    // state before or after that op, never a hybrid.
    size_t j = script.size();
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (crash < boundaries[i]) {
        j = i + 1;
        break;
      }
    }
    const OracleState& pre = states[j > 0 ? j - 1 : 0];
    const OracleState& post = states[j];
    const bool pre_ok = MatchesState(&recovered, pre);
    const bool post_ok = pre == post ? pre_ok : MatchesState(&recovered, post);
    EXPECT_TRUE(pre_ok || post_ok)
        << "backend " << static_cast<int>(kind) << " crash offset " << crash
        << " of " << total << " (inside op " << j
        << ") recovered to neither the pre- nor the post-commit state";
    if (!(pre_ok || post_ok)) continue;

    // Recovery never leaves an intent record behind.
    EXPECT_EQ(CountKeys(cs.store.get(), "journal/"), 0u)
        << "crash offset " << crash;

    // Spot-check that a recovered series is fully queryable and agrees
    // with brute force over the recovered values.
    const OracleState& matched = pre_ok ? pre : post;
    if (crash % 5 == 0 && !matched.empty()) {
      const auto& [name, values] = *matched.begin();
      Rng qrng(42 + crash);
      const TimeSeries series{std::vector<double>(values)};
      const auto q = ExtractQuery(series, values.size() / 3, 50, 0.1, &qrng);
      auto session = recovered.Acquire(name);
      ASSERT_TRUE(session.ok());
      auto got = (*session)->Query(q, params);
      ASSERT_TRUE(got.ok());
      const auto expected = BruteForceMatch(series, q, params);
      ASSERT_EQ(got->size(), expected.size()) << "crash offset " << crash;
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].offset, expected[i].offset);
      }
    }

    // No orphaned namespaces: dropping every surviving series must leave
    // the store with no series or catalog rows at all.
    for (const auto& name : recovered.ListSeries()) {
      ASSERT_TRUE(recovered.DropSeries(name).ok());
    }
    EXPECT_EQ(CountKeys(cs.store.get(), "series/"), 0u)
        << "crash offset " << crash << " leaked keys";
    EXPECT_EQ(CountKeys(cs.store.get(), "catalog/"), 0u)
        << "crash offset " << crash;
  }
}

TEST_P(CrashPointReplay, EveryFailOffsetRecoversToPreOrPostState) {
  // Same property under *failing* (not crashing) writes: the in-process
  // rollback may itself fail mid-way; healing the store and reopening the
  // catalog must still land on a whole-operation boundary.
  const Backend kind = GetParam();
  const std::vector<ScriptOp> script = Script();
  const std::vector<OracleState> states = OracleStates(script);
  const std::vector<uint64_t> boundaries = LearnBoundaries(script, kind);
  const uint64_t total = boundaries.back();

  for (uint64_t fail = 0; fail <= total; fail += 3) {
    CrashStore cs = CrashStore::Make(kind, "f" + std::to_string(fail));
    FaultInjectingKvStore wrapper(cs.store.get());
    {
      Catalog doomed(&wrapper, SmallCatalogOptions());
      wrapper.FailAfter(fail);
      for (const auto& op : script) (void)ApplyOp(&doomed, op);
    }
    wrapper.Heal();
    cs.Reopen();
    Catalog recovered(cs.store.get(), SmallCatalogOptions());

    bool any = false;
    for (const auto& state : states) {
      if (MatchesState(&recovered, state)) {
        any = true;
        break;
      }
    }
    EXPECT_TRUE(any) << "backend " << static_cast<int>(kind)
                     << " fail offset " << fail
                     << " recovered to no whole-operation state";
    EXPECT_EQ(CountKeys(cs.store.get(), "journal/"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CrashPointReplay,
                         ::testing::Values(Backend::kMem, Backend::kFile,
                                           Backend::kMini));

// ---- In-process fault handling (no restart) ----

TEST(FaultKvStoreTest, FailedAppendRollsBackAndRetrySucceeds) {
  MemKvStore base;
  FaultInjectingKvStore store(&base);
  Catalog catalog(&store, SmallCatalogOptions());

  const std::vector<double> v0 = GenValues(400, 7);
  ASSERT_TRUE(catalog.CreateSeries("s", TimeSeries(std::vector<double>(v0)))
                  .ok());

  // Fail partway into the append's commit sequence.
  const std::vector<double> tail = GenValues(200, 8);
  store.FailAfter(3);
  ASSERT_FALSE(catalog.AppendSeries("s", tail).ok());
  store.Heal();

  // The catalog still serves the pre-append state...
  {
    auto session = catalog.Acquire("s");
    ASSERT_TRUE(session.ok());
    EXPECT_TRUE(std::ranges::equal((*session)->series().values(), v0));
  }
  // ...and a healed retry lands the append cleanly.
  ASSERT_TRUE(catalog.AppendSeries("s", tail).ok());
  std::vector<double> full = v0;
  full.insert(full.end(), tail.begin(), tail.end());
  auto session = catalog.Acquire("s");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(std::ranges::equal((*session)->series().values(), full));
  EXPECT_EQ(CountKeys(&base, "journal/"), 0u);
}

TEST(FaultKvStoreTest, CleanShutdownReportsCleanRecovery) {
  MemKvStore store;
  {
    Catalog catalog(&store, SmallCatalogOptions());
    ASSERT_TRUE(
        catalog.CreateSeries("s", TimeSeries(GenValues(300, 9))).ok());
    ASSERT_TRUE(catalog.AppendSeries("s", GenValues(100, 10)).ok());
  }
  Catalog reopened(&store, SmallCatalogOptions());
  EXPECT_TRUE(reopened.recovery_report().clean());
  EXPECT_EQ(*reopened.SeriesLength("s"), 400u);
}

TEST(FaultKvStoreTest, CrashMidCommitIsCountedByRecoveryReport) {
  MemKvStore base;
  FaultInjectingKvStore store(&base);
  {
    Catalog doomed(&store, SmallCatalogOptions());
    ASSERT_TRUE(
        doomed.CreateSeries("s", TimeSeries(GenValues(300, 11))).ok());
    // Crash two writes into the next append: the journal and some chunk
    // rows land, the flip does not.
    store.CrashAfter(2);
    (void)doomed.AppendSeries("s", GenValues(100, 12));
  }
  Catalog recovered(&base, SmallCatalogOptions());
  EXPECT_EQ(recovered.recovery_report().epochs_rolled_back, 1u);
  EXPECT_EQ(*recovered.SeriesLength("s"), 300u);
}

}  // namespace
}  // namespace kvmatch
