// Tests for the scatter-gather query federation layer: shard map
// routing/fingerprinting, the cross-shard top-k merge order, and a
// 3-shard in-process cluster whose federated answers must equal (byte
// for byte, order included) a single node holding every series. The
// failure-path tests run against shards that were never started or are
// killed mid-test — a dead shard must become a *typed* partial result,
// never a hang. A scripted fake shard pins the reactor coordinator's
// concurrency: sub-queries of concurrent requests share one pipelined
// link per shard, admission is bounded, and the thread count is flat.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "coord/coord_server.h"
#include "coord/shard_map.h"
#include "match/top_k.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/catalog.h"
#include "service/query_service.h"
#include "storage/mem_kvstore.h"
#include "ts/generator.h"

namespace kvmatch {
namespace coord {
namespace {

// ------------------------------------------------------------- shard map

TEST(ShardMapTest, ParseSerializeRoundTrip) {
  auto map = ShardMap::Parse(
      "# three-node cluster\n"
      "shard 1 node-b 7101\n"
      "\n"
      "shard 0 node-a 7100\n"
      "shard 2 node-c 7102\n");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map->num_shards(), 3u);
  EXPECT_EQ(map->endpoint(0).host, "node-a");
  EXPECT_EQ(map->endpoint(1).port, 7101);
  EXPECT_EQ(map->endpoint(2).host, "node-c");

  // The canonical serialization reparses to the same map — and therefore
  // the same fingerprint, which is what cluster members compare.
  const std::string canonical = map->Serialize();
  auto reparsed = ShardMap::Parse(canonical);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Serialize(), canonical);
  EXPECT_EQ(reparsed->Fingerprint(), map->Fingerprint());
  EXPECT_NE(map->Fingerprint(), 0u);
}

TEST(ShardMapTest, RejectsMalformedTopologies) {
  EXPECT_FALSE(ShardMap::Parse("").ok());
  EXPECT_FALSE(ShardMap::Parse("shard 0 a 1\nshard 0 b 2\n").ok());
  EXPECT_FALSE(ShardMap::Parse("shard 0 a 1\nshard 2 b 2\n").ok());
  EXPECT_FALSE(ShardMap::Parse("shard x a 1\n").ok());
  EXPECT_FALSE(ShardMap::Parse("bogus 0 a 1\n").ok());
  EXPECT_FALSE(ShardMap::FromEndpoints({}).ok());
}

TEST(ShardMapTest, OwnerIsThePinnedHashOfTheName) {
  auto map = ShardMap::FromEndpoints(
      {{"a", 1}, {"b", 2}, {"c", 3}});
  ASSERT_TRUE(map.ok());
  std::vector<bool> seen(3, false);
  for (int i = 0; i < 64; ++i) {
    const std::string name = "series-" + std::to_string(i);
    const uint32_t owner = map->OwnerOf(name);
    EXPECT_EQ(owner, static_cast<uint32_t>(Fnv1a64(name) % 3));
    ASSERT_LT(owner, 3u);
    seen[owner] = true;
  }
  // FNV spreads: 64 names must touch every shard.
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(ShardMapTest, FingerprintTracksTopology) {
  auto a = ShardMap::Parse("shard 0 host 7100\nshard 1 host 7101\n");
  auto b = ShardMap::Parse("shard 0 host 7100\nshard 1 host 7102\n");
  auto c = ShardMap::Parse("shard 0 host 7100\n");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());
}

TEST(GlobMatchTest, MatchesShellStylePatterns) {
  EXPECT_TRUE(GlobMatch("abc", "abc"));
  EXPECT_FALSE(GlobMatch("abc", "abd"));
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "a"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("a*", "abc"));
  EXPECT_TRUE(GlobMatch("*c", "abc"));
  EXPECT_TRUE(GlobMatch("a*b*c", "axxbyyc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "axxbyy"));
  EXPECT_TRUE(GlobMatch("**a*", "baa"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "abbc"));
  EXPECT_TRUE(GlobMatch("s*-??", "sensor-07"));
  EXPECT_FALSE(GlobMatch("s*-??", "sensor-7"));
  EXPECT_TRUE(IsGlobPattern("f*"));
  EXPECT_TRUE(IsGlobPattern("f?"));
  EXPECT_FALSE(IsGlobPattern("f7"));
}

// --------------------------------------------------------- top-k merge

TEST(MergeTopKTest, EqualDistancesOrderBySeriesThenOffset) {
  // Three sources with a duplicate distance (1.0) spread across series:
  // the (distance, series, offset) total order must break the tie the
  // same way regardless of source order.
  const std::vector<std::vector<SeriesMatch>> sources = {
      {{"b", {10, 1.0}}, {"b", {30, 1.0}}},
      {{"a", {20, 1.0}}, {"a", {5, 2.0}}},
      {{"c", {1, 0.5}}},
  };
  const std::vector<SeriesMatch> expected = {
      {"c", {1, 0.5}},
      {"a", {20, 1.0}},
      {"b", {10, 1.0}},
      {"b", {30, 1.0}},
  };
  EXPECT_EQ(MergeTopK(sources, 4), expected);

  std::vector<std::vector<SeriesMatch>> reversed(sources.rbegin(),
                                                 sources.rend());
  EXPECT_EQ(MergeTopK(reversed, 4), expected);

  // The heap is bounded: k=2 keeps only the global best two.
  const auto top2 = MergeTopK(sources, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], expected[0]);
  EXPECT_EQ(top2[1], expected[1]);

  EXPECT_TRUE(MergeTopK({}, 3).empty());
  EXPECT_TRUE(MergeTopK(sources, 0).empty());
}

// ------------------------------------------------------ deadline budget

TEST(RemainingBudgetMsTest, SubtractsElapsedAtEachHop) {
  const auto now = std::chrono::steady_clock::now();
  // "No deadline" and "already expired" markers pass through untouched.
  EXPECT_EQ(net::RemainingBudgetMs(0.0, now), 0.0);
  EXPECT_EQ(net::RemainingBudgetMs(-3.0, now), -3.0);
  // A live budget shrinks by the time spent at this hop.
  const auto received = now - std::chrono::milliseconds(100);
  const double remaining = net::RemainingBudgetMs(250.0, received);
  EXPECT_GT(remaining, 0.0);
  EXPECT_LE(remaining, 150.0);
  // A budget the hop outspent goes negative — expired, not unlimited.
  EXPECT_LT(net::RemainingBudgetMs(50.0, received), 0.0);
}

// -------------------------------------------------- in-process cluster

constexpr size_t kClusterShards = 3;
constexpr size_t kClusterSeries = 9;  // "f0".."f8": 3 owned by each shard
constexpr size_t kClusterLen = 2048;

Session::Options SmallOptions() {
  Session::Options options;
  options.wu = 25;
  options.levels = 3;
  return options;
}

/// One self-contained shard: its own store, catalog, service and wire
/// server on an ephemeral loopback port.
struct ShardNode {
  MemKvStore store;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;
};

std::unique_ptr<ShardNode> StartShardNode(
    uint32_t shard_id, uint32_t num_shards,
    const std::shared_ptr<ShardMap>& map, size_t threads = 4) {
  Catalog::Options copts;
  copts.session = SmallOptions();
  auto node = std::make_unique<ShardNode>();
  node->catalog = std::make_unique<Catalog>(&node->store, copts);
  node->service = std::make_unique<QueryService>(
      node->catalog.get(),
      QueryService::Options{.num_threads = threads, .max_queue = 1024});
  node->catalog->SetStatsRegistry(node->service->stats_registry());
  net::Server::Options sopts;
  sopts.port = 0;
  sopts.shard_id = shard_id;
  sopts.num_shards = num_shards;
  // Ownership fence. The map is filled in only after every shard has an
  // ephemeral port, so an empty map means "fence not armed yet".
  sopts.owns_series = [map, shard_id](const std::string& name) {
    return map->num_shards() == 0 || map->OwnerOf(name) == shard_id;
  };
  node->server = std::make_unique<net::Server>(node->catalog.get(),
                                               node->service.get(), sopts);
  Status st = node->server->Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return node;
}

/// A 3-shard cluster with the catalog hash-partitioned across it, plus a
/// single node holding EVERY series — the ground truth a federated
/// answer must reproduce exactly.
struct ClusterFixture {
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::shared_ptr<ShardMap> map = std::make_shared<ShardMap>();

  MemKvStore all_store;
  std::unique_ptr<Catalog> all_catalog;
  std::unique_ptr<QueryService> all_service;
  std::unique_ptr<net::Server> all_server;

  std::vector<std::string> names;
  std::vector<TimeSeries> refs;

  ClusterFixture() {
    for (uint32_t s = 0; s < kClusterShards; ++s) {
      nodes.push_back(StartShardNode(s, kClusterShards, map));
    }
    std::vector<ShardEndpoint> endpoints;
    for (auto& node : nodes) {
      endpoints.push_back(ShardEndpoint{"127.0.0.1", node->server->port()});
    }
    auto built = ShardMap::FromEndpoints(std::move(endpoints));
    EXPECT_TRUE(built.ok());
    *map = *built;  // arms the ownership fences

    Catalog::Options copts;
    copts.session = SmallOptions();
    all_catalog = std::make_unique<Catalog>(&all_store, copts);
    all_service = std::make_unique<QueryService>(
        all_catalog.get(),
        QueryService::Options{.num_threads = 4, .max_queue = 1024});
    net::Server::Options aopts;
    aopts.port = 0;
    all_server = std::make_unique<net::Server>(all_catalog.get(),
                                               all_service.get(), aopts);
    Status st = all_server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();

    std::vector<bool> owns(kClusterShards, false);
    for (size_t i = 0; i < kClusterSeries; ++i) {
      names.push_back("f" + std::to_string(i));
      Rng rng(7000 + i);
      TimeSeries x = GenerateSynthetic(kClusterLen, &rng);
      refs.push_back(x);
      const uint32_t owner = map->OwnerOf(names[i]);
      owns[owner] = true;
      TimeSeries copy = x;
      EXPECT_TRUE(
          nodes[owner]->catalog->Ingest(names[i], std::move(copy)).ok());
      EXPECT_TRUE(all_catalog->Ingest(names[i], std::move(x)).ok());
    }
    // The comparisons below only exercise federation if no shard is idle.
    for (size_t s = 0; s < kClusterShards; ++s) {
      EXPECT_TRUE(owns[s]) << "shard " << s << " owns no series";
    }
  }

  CoordServer::CoordOptions CoordServerOptions() const {
    CoordServer::CoordOptions options;
    options.server.port = 0;
    // Ephemeral ports: the shards started before the map existed, so
    // their identity cannot carry its fingerprint.
    options.verify_shard_identity = false;
    return options;
  }
};

/// Exact-series request i of a workload covering all five query types,
/// threshold and top-k.
QueryRequest MakeRequest(const ClusterFixture& fx, size_t i) {
  const QueryType kTypes[] = {QueryType::kRsmEd, QueryType::kRsmDtw,
                              QueryType::kCnsmEd, QueryType::kCnsmDtw,
                              QueryType::kRsmL1};
  Rng rng(90 + i);
  const size_t series = i % fx.names.size();
  QueryRequest req;
  req.series = fx.names[series];
  const size_t qlen = 100 + 25 * (i % 3);
  const size_t qoff = (173 * i) % (kClusterLen - qlen);
  req.query = ExtractQuery(fx.refs[series], qoff, qlen, 0.1, &rng);
  req.params.type = kTypes[i % 5];
  req.params.epsilon = 2.0 + static_cast<double>(i % 3);
  req.params.alpha = 1.5;
  req.params.beta = 3.0;
  req.params.rho = 5;
  if (i % 4 == 3) req.top_k = 4;
  return req;
}

std::vector<MatchResult> SerialQuery(Catalog* catalog,
                                     const QueryRequest& req) {
  auto session = catalog->Acquire(req.series);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  auto matches = req.top_k > 0
                     ? (*session)->QueryTopK(req.query, req.params,
                                             req.top_k, req.topk_options)
                     : (*session)->Query(req.query, req.params);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  return std::move(matches).value();
}

TEST(CoordFederationTest, ExactSeriesAnswersByteIdenticalToSingleNode) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());

  auto fed = net::Client::Connect("127.0.0.1", coordinator.port());
  auto single = net::Client::Connect("127.0.0.1", fx.all_server->port());
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  // A coordinator identifies itself as such on the wire.
  auto info = (*fed)->GetShardInfo();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->shard_id, net::kCoordinatorShardId);
  EXPECT_EQ(info->num_shards, kClusterShards);
  EXPECT_EQ(info->map_fingerprint, fx.map->Fingerprint());

  for (size_t i = 0; i < 20; ++i) {
    const QueryRequest req = MakeRequest(fx, i);
    auto a = (*fed)->Query(req);
    auto b = (*single)->Query(req);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(a->status.ok()) << a->status.ToString();
    ASSERT_TRUE(b->status.ok()) << b->status.ToString();
    // Matches identical INCLUDING order, and the deterministic stats
    // counters agree — the shard did the same work the single node did.
    EXPECT_EQ(a->matches, b->matches) << "request " << i;
    EXPECT_EQ(a->stats.candidate_positions, b->stats.candidate_positions);
    EXPECT_EQ(a->stats.distance_calls, b->stats.distance_calls);
    // Byte identity once the run-dependent timing is normalized.
    QueryResponse na = *a;
    QueryResponse nb = *b;
    na.latency_ms = nb.latency_ms = 0.0;
    na.stats = nb.stats = MatchStats();
    std::string wire_a, wire_b;
    net::EncodeQueryResponseBody(na, &wire_a);
    net::EncodeQueryResponseBody(nb, &wire_b);
    EXPECT_EQ(wire_a, wire_b) << "request " << i;
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternThresholdMergesEveryShardInNameOrder) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(31);
  net::WireQueryRequest wire;
  wire.request.series = "f*";
  wire.request.query = ExtractQuery(fx.refs[2], 300, 128, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;

  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok()) << fed->status.ToString();
  EXPECT_EQ(fed->shards_total, kClusterShards);
  EXPECT_EQ(fed->shards_ok, kClusterShards);
  EXPECT_FALSE(fed->partial());
  EXPECT_TRUE(fed->shard_errors.empty());

  // Every series answers, groups sorted by name, each group identical
  // (order included) to the single node's per-series result.
  ASSERT_EQ(fed->groups.size(), fx.names.size());
  for (size_t i = 0; i < fed->groups.size(); ++i) {
    EXPECT_EQ(fed->groups[i].series, fx.names[i]);
    if (i > 0) EXPECT_LT(fed->groups[i - 1].series, fed->groups[i].series);
    QueryRequest per = wire.request;
    per.series = fed->groups[i].series;
    EXPECT_EQ(fed->groups[i].matches, SerialQuery(fx.all_catalog.get(), per))
        << fed->groups[i].series;
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternTopKIsTheGlobalBoundedHeapOrder) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(47);
  net::WireQueryRequest wire;
  wire.request.series = "f?";
  wire.request.query = ExtractQuery(fx.refs[4], 512, 150, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.top_k = 5;

  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok()) << fed->status.ToString();
  EXPECT_FALSE(fed->partial());

  // Expected: each series' local top-k from the single node, merged
  // through the same (distance, series, offset) bounded heap.
  std::vector<std::vector<SeriesMatch>> sources;
  for (const auto& name : fx.names) {
    QueryRequest per = wire.request;
    per.series = name;
    std::vector<SeriesMatch> tagged;
    for (const MatchResult& m : SerialQuery(fx.all_catalog.get(), per)) {
      tagged.push_back(SeriesMatch{name, m});
    }
    sources.push_back(std::move(tagged));
  }
  std::map<std::string, std::vector<MatchResult>> regrouped;
  for (SeriesMatch& winner : MergeTopK(std::move(sources), 5)) {
    regrouped[winner.series].push_back(winner.match);
  }

  size_t total = 0;
  ASSERT_EQ(fed->groups.size(), regrouped.size());
  size_t i = 0;
  for (const auto& [series, matches] : regrouped) {
    EXPECT_EQ(fed->groups[i].series, series);
    EXPECT_EQ(fed->groups[i].matches, matches) << series;
    total += fed->groups[i].matches.size();
    ++i;
  }
  EXPECT_EQ(total, 5u);
  coordinator.Stop();
}

TEST(CoordFederationTest, ShardMapNamingLocalhostResolvesAtStartup) {
  // Hostnames are resolved once when the coordinator is built, off its
  // event loop; the dials then use the resolved addresses.
  ClusterFixture fx;
  std::vector<ShardEndpoint> endpoints;
  for (auto& node : fx.nodes) {
    endpoints.push_back(ShardEndpoint{"localhost", node->server->port()});
  }
  auto named = ShardMap::FromEndpoints(std::move(endpoints));
  ASSERT_TRUE(named.ok());
  CoordServer coordinator(*named, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto fed = net::Client::Connect("127.0.0.1", coordinator.port());
  auto single = net::Client::Connect("127.0.0.1", fx.all_server->port());
  ASSERT_TRUE(fed.ok() && single.ok());

  for (size_t i = 0; i < 6; ++i) {
    const QueryRequest req = MakeRequest(fx, i);
    auto a = (*fed)->Query(req);
    auto b = (*single)->Query(req);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(a->status.ok()) << a->status.ToString();
    EXPECT_EQ(a->matches, b->matches) << "request " << i;
  }
  // A pattern reaches every shard through its named link.
  net::WireQueryRequest wire;
  wire.request = MakeRequest(fx, 0);
  wire.request.series = "f*";
  wire.request.top_k = 0;
  auto pattern = (*fed)->FederatedQuery(wire);
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  EXPECT_FALSE(pattern->partial());
  for (uint32_t s = 0; s < kClusterShards; ++s) {
    EXPECT_TRUE(coordinator.shard_connected(s)) << "shard " << s;
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternRejectsByReferenceQueries) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  net::WireQueryRequest wire;
  wire.request.series = "f*";
  wire.by_reference = true;
  wire.ref_offset = 0;
  wire.ref_length = 128;
  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  EXPECT_TRUE(fed->status.IsInvalidArgument()) << fed->status.ToString();

  // The connection survives the rejection.
  EXPECT_TRUE((*client)->Ping().ok());
  coordinator.Stop();
}

TEST(CoordFederationTest, PatternTraceAggregatesShardSpans) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(13);
  net::WireQueryRequest wire;
  wire.request.series = "f*";
  wire.request.query = ExtractQuery(fx.refs[0], 100, 128, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 2.0;
  wire.request.collect_trace = true;

  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok()) << fed->status.ToString();
  ASSERT_NE(fed->trace, nullptr);

  // One round-trip span per shard, the coordinator's merge span, and the
  // shards' own stage spans re-based and namespaced under shardN/series.
  std::vector<bool> shard_span(kClusterShards, false);
  bool merge_span = false;
  bool namespaced = false;
  for (const TraceSpan& span : fed->trace->spans()) {
    for (size_t s = 0; s < kClusterShards; ++s) {
      if (span.name == "shard" + std::to_string(s)) shard_span[s] = true;
    }
    if (span.name == "merge") merge_span = true;
    if (span.name.find("/f") != std::string::npos) namespaced = true;
    EXPECT_GE(span.start_ms, 0.0) << span.name;
  }
  for (size_t s = 0; s < kClusterShards; ++s) {
    EXPECT_TRUE(shard_span[s]) << "missing span for shard " << s;
  }
  EXPECT_TRUE(merge_span);
  EXPECT_TRUE(namespaced);

  // The timeline is causal: each shard's planning LIST ends before any of
  // its sub-queries is queued, and every span of a shard lies inside that
  // shard's round-trip span (slack only for float rounding).
  const std::vector<TraceSpan> spans = fed->trace->spans();
  std::map<std::string, TraceSpan> by_name;
  for (const TraceSpan& span : spans) by_name[span.name] = span;
  constexpr double kSlackMs = 1e-6;
  size_t queue_spans = 0;
  for (const TraceSpan& span : spans) {
    const size_t slash = span.name.find('/');
    if (span.name.rfind("shard", 0) != 0 || slash == std::string::npos) {
      continue;
    }
    const std::string shard = span.name.substr(0, slash);
    ASSERT_TRUE(by_name.count(shard) && by_name.count(shard + "/list"))
        << span.name;
    const TraceSpan& outer = by_name[shard];
    EXPECT_GE(span.start_ms + kSlackMs, outer.start_ms) << span.name;
    EXPECT_LE(span.start_ms + span.dur_ms,
              outer.start_ms + outer.dur_ms + kSlackMs)
        << span.name;
    if (span.name.substr(span.name.rfind('/') + 1) == kSpanQueue) {
      const TraceSpan& list = by_name[shard + "/list"];
      EXPECT_LE(list.start_ms + list.dur_ms, span.start_ms + kSlackMs)
          << span.name;
      ++queue_spans;
    }
  }
  EXPECT_EQ(queue_spans, kClusterSeries);
  coordinator.Stop();
}

TEST(CoordFederationTest, ExpiredDeadlineAnswersTypedDeadlineExceeded) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  // A microsecond budget is spent before the shard can dequeue: the
  // re-anchored (negative) remaining budget must arrive at the shard as
  // "expired", not be mistaken for "no deadline".
  QueryRequest req = MakeRequest(fx, 0);
  req.top_k = 0;
  req.timeout_ms = 0.0001;
  auto response = (*client)->Query(req);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsDeadlineExceeded())
      << response->status.ToString();

  // The connection and the cluster survive; an unbounded retry works.
  req.timeout_ms = 0.0;
  auto retry = (*client)->Query(req);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->status.ok()) << retry->status.ToString();
  coordinator.Stop();
}

TEST(CoordFederationTest, IngestRoutesToOwnerAndFenceRejectsMisrouted) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  Rng rng(555);
  const TimeSeries fresh = GenerateSynthetic(600, &rng);
  auto ack = (*client)->CreateSeries("routed", fresh.values());
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();

  // The series landed on its owner shard and nowhere else.
  const uint32_t owner = fx.map->OwnerOf("routed");
  for (uint32_t s = 0; s < kClusterShards; ++s) {
    auto direct =
        net::Client::Connect("127.0.0.1", fx.nodes[s]->server->port());
    ASSERT_TRUE(direct.ok());
    auto listing = (*direct)->ListSeries();
    ASSERT_TRUE(listing.ok());
    const bool found =
        std::any_of(listing->begin(), listing->end(),
                    [](const net::SeriesInfo& info) {
                      return info.name == "routed";
                    });
    EXPECT_EQ(found, s == owner) << "shard " << s;

    // A misrouted write straight to a non-owner shard hits the fence.
    if (s != owner) {
      auto misrouted = (*direct)->CreateSeries("routed", fresh.values());
      EXPECT_FALSE(misrouted.ok());
    }
  }

  // Appends and drops route the same way.
  auto extended = (*client)->AppendSeries("routed", fresh.values());
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  EXPECT_EQ(extended->length, 2 * fresh.values().size());
  ASSERT_TRUE((*client)->DropSeries("routed").ok());

  // LIST through the coordinator is the union of every shard.
  auto listing = (*client)->ListSeries();
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->size(), fx.names.size());
  for (size_t i = 0; i < fx.names.size(); ++i) {
    EXPECT_EQ((*listing)[i].name, fx.names[i]);
  }
  coordinator.Stop();
}

TEST(CoordFederationTest, ReshardLeftoverIsDeduplicatedByOwnership) {
  ClusterFixture fx;
  // A stale replica of f0 (shorter, so answers would differ) left on a
  // non-owner shard, as after an interrupted reshard.
  const uint32_t owner = fx.map->OwnerOf("f0");
  const uint32_t other = (owner + 1) % kClusterShards;
  Rng rng(8100);
  ASSERT_TRUE(fx.nodes[other]
                  ->catalog->Ingest("f0", GenerateSynthetic(700, &rng))
                  .ok());

  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());

  // LIST keeps one entry — the owner's copy (full length).
  auto listing = (*client)->ListSeries();
  ASSERT_TRUE(listing.ok());
  size_t seen = 0;
  for (const auto& info : *listing) {
    if (info.name == "f0") {
      ++seen;
      EXPECT_EQ(info.length, kClusterLen);
    }
  }
  EXPECT_EQ(seen, 1u);

  // A pattern query produces ONE group for f0, computed on the owner.
  Rng qrng(8101);
  net::WireQueryRequest wire;
  wire.request.series = "f0*";
  wire.request.query = ExtractQuery(fx.refs[0], 200, 128, 0.1, &qrng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;
  auto fed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();
  ASSERT_TRUE(fed->status.ok());
  ASSERT_EQ(fed->groups.size(), 1u);
  EXPECT_EQ(fed->groups[0].series, "f0");
  QueryRequest per = wire.request;
  per.series = "f0";
  EXPECT_EQ(fed->groups[0].matches, SerialQuery(fx.all_catalog.get(), per));
  coordinator.Stop();
}

// ------------------------------------------------------- failure paths

/// A loopback port with no listener behind it (bound, inspected, closed).
int ReserveClosedPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(CoordFederationTest, DeadShardYieldsTypedPartialResults) {
  // Shards 0 and 1 live; shard 2's endpoint was never started. Series
  // hashing to shard 2 ("g3", "g4", "g8") are simply down.
  auto map = std::make_shared<ShardMap>();
  std::vector<std::unique_ptr<ShardNode>> nodes;
  nodes.push_back(StartShardNode(0, 3, map));
  nodes.push_back(StartShardNode(1, 3, map));
  auto built = ShardMap::FromEndpoints(
      {ShardEndpoint{"127.0.0.1", nodes[0]->server->port()},
       ShardEndpoint{"127.0.0.1", nodes[1]->server->port()},
       ShardEndpoint{"127.0.0.1", ReserveClosedPort()}});
  ASSERT_TRUE(built.ok());
  *map = *built;

  std::vector<std::string> live_names;
  std::string dead_name;
  TimeSeries source;
  for (size_t i = 0; i < 9; ++i) {
    const std::string name = "g" + std::to_string(i);
    const uint32_t owner = map->OwnerOf(name);
    if (owner >= 2) {
      dead_name = name;
      continue;
    }
    Rng rng(6200 + i);
    TimeSeries x = GenerateSynthetic(1024, &rng);
    if (source.empty()) source = x;
    ASSERT_TRUE(nodes[owner]->catalog->Ingest(name, std::move(x)).ok());
    live_names.push_back(name);
  }
  ASSERT_FALSE(dead_name.empty());
  ASSERT_FALSE(live_names.empty());
  std::sort(live_names.begin(), live_names.end());

  CoordServer::CoordOptions options;
  options.verify_shard_identity = false;
  options.shard_timeout_ms = 2'000.0;
  CoordServer coord(*map, options);
  ASSERT_TRUE(coord.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coord.port());
  ASSERT_TRUE(client.ok());

  // Pattern: the live shards answer in full, the dead shard is a typed
  // per-shard error — partial, not failed, and never a hang.
  Rng qrng(6300);
  net::WireQueryRequest wire;
  wire.request.series = "g*";
  wire.request.query = ExtractQuery(source, 100, 128, 0.1, &qrng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;
  auto answered = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  const net::FederatedResponse& fed = *answered;
  EXPECT_TRUE(fed.status.ok()) << fed.status.ToString();
  EXPECT_EQ(fed.shards_total, 3u);
  EXPECT_EQ(fed.shards_ok, 2u);
  EXPECT_TRUE(fed.partial());
  ASSERT_EQ(fed.shard_errors.size(), 1u);
  EXPECT_EQ(fed.shard_errors[0].first, 2u);
  EXPECT_FALSE(fed.shard_errors[0].second.ok());
  ASSERT_EQ(fed.groups.size(), live_names.size());
  for (size_t i = 0; i < live_names.size(); ++i) {
    EXPECT_EQ(fed.groups[i].series, live_names[i]);
  }

  // Exact routing to the dead shard: typed error, fast.
  net::WireQueryRequest exact = wire;
  exact.request.series = dead_name;
  auto direct = (*client)->Query(exact.request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_FALSE(direct->status.ok());
  coord.Stop();
}

TEST(CoordFederationTest, KilledShardBecomesTypedErrorWithDialBackoff) {
  ClusterFixture fx;
  CoordServer::CoordOptions options = fx.CoordServerOptions();
  options.shard_timeout_ms = 2'000.0;
  options.backoff_initial_ms = 200.0;
  CoordServer coord(*fx.map, options);
  ASSERT_TRUE(coord.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coord.port());
  ASSERT_TRUE(client.ok());
  auto status_of = [&client](const net::WireQueryRequest& wire) {
    auto answer = (*client)->Query(wire.request);
    return answer.ok() ? answer->status : answer.status();
  };

  // f3 hashes to shard 0, f1 to shard 1 (pinned by Fnv1a64).
  ASSERT_EQ(fx.map->OwnerOf("f3"), 0u);
  ASSERT_EQ(fx.map->OwnerOf("f1"), 1u);

  Rng rng(911);
  net::WireQueryRequest wire;
  wire.request.series = "f3";
  wire.request.query = ExtractQuery(fx.refs[3], 50, 128, 0.1, &rng);
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 3.0;
  EXPECT_TRUE(status_of(wire).ok());
  EXPECT_TRUE(coord.shard_connected(0));

  // Kill shard 0 under an established connection.
  fx.nodes[0]->server->Stop();
  const Status after = status_of(wire);
  EXPECT_FALSE(after.ok());
  EXPECT_FALSE(coord.shard_connected(0));

  // Redial fails (nobody listens), arming the backoff; the next attempt
  // inside the window fails FAST with the typed backoff status.
  EXPECT_FALSE(status_of(wire).ok());
  const Status backed_off = status_of(wire);
  EXPECT_TRUE(backed_off.IsResourceExhausted()) << backed_off.ToString();

  // The other shards are untouched.
  net::WireQueryRequest other = wire;
  other.request.series = "f1";
  Rng rng2(912);
  other.request.query = ExtractQuery(fx.refs[1], 50, 128, 0.1, &rng2);
  EXPECT_TRUE(status_of(other).ok());
  coord.Stop();
}

/// A scripted shard on a loopback port. It answers kShardInfo with a
/// settable identity and LIST with a fixed directory, and withholds every
/// query answer until `hold` queries are outstanding at once (or until
/// Release()), then answers each held query with an empty result — so a
/// test sees how many sub-queries a coordinator keeps in flight.
class FakeShard {
 public:
  FakeShard(std::vector<std::string> series, size_t hold)
      : series_(std::move(series)), hold_(hold) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len),
        0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Run(); });
  }
  ~FakeShard() {
    stop_ = true;
    thread_.join();
    for (auto& peer : peers_) ::close(peer->fd);
    ::close(listen_fd_);
  }

  int port() const { return port_; }
  void SetIdentity(uint32_t shard_id, uint64_t fingerprint) {
    shard_id_ = shard_id;
    fingerprint_ = fingerprint;
  }
  size_t held() const { return held_; }
  /// From now on every query is answered, the held ones first.
  void Release() { release_ = true; }

 private:
  struct Peer {
    int fd = -1;
    net::FrameDecoder decoder;
    std::vector<uint64_t> held;
  };

  static void Send(int fd, net::FrameType type, uint64_t id,
                   std::string body) {
    net::Frame frame;
    frame.type = type;
    frame.request_id = id;
    frame.body = std::move(body);
    std::string wire;
    net::EncodeFrame(frame, &wire);
    std::string_view data = wire;
    while (!data.empty()) {
      const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
      if (n <= 0) return;
      data.remove_prefix(static_cast<size_t>(n));
    }
  }

  void Serve(Peer& peer) {
    char buf[4096];
    const ssize_t n = ::recv(peer.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      held_ -= peer.held.size();
      ::close(peer.fd);
      peer.fd = -1;
      return;
    }
    peer.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    net::Frame frame;
    Status error;
    while (peer.decoder.Next(&frame, &error) ==
           net::FrameDecoder::Event::kFrame) {
      std::string body;
      if (frame.type == net::FrameType::kShardInfoRequest) {
        net::ShardInfo info;
        info.shard_id = shard_id_;
        info.map_fingerprint = fingerprint_;
        net::EncodeShardInfoBody(info, &body);
        Send(peer.fd, net::FrameType::kShardInfoResponse, frame.request_id,
             std::move(body));
      } else if (frame.type == net::FrameType::kListRequest) {
        std::vector<net::SeriesInfo> listing;
        for (const auto& name : series_) {
          listing.push_back(net::SeriesInfo{name, 1000});
        }
        net::EncodeListResponseBody(listing, &body);
        Send(peer.fd, net::FrameType::kListResponse, frame.request_id,
             std::move(body));
      } else if (frame.type == net::FrameType::kQueryRequest) {
        peer.held.push_back(frame.request_id);
        ++held_;
      }
    }
  }

  void Run() {
    while (!stop_) {
      std::vector<pollfd> fds = {{listen_fd_, POLLIN, 0}};
      for (auto& peer : peers_) fds.push_back({peer->fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 10) < 0) continue;
      if (fds[0].revents & POLLIN) {
        auto peer = std::make_unique<Peer>();
        peer->fd = ::accept(listen_fd_, nullptr, nullptr);
        if (peer->fd >= 0) peers_.push_back(std::move(peer));
      }
      for (size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].revents != 0) Serve(*peers_[i - 1]);
      }
      std::erase_if(peers_, [](const auto& peer) { return peer->fd < 0; });
      if (held_ == 0 || (held_ < hold_ && !release_)) continue;
      std::string body;
      net::EncodeQueryResponseBody(QueryResponse(), &body);
      for (auto& peer : peers_) {
        for (uint64_t id : peer->held) {
          Send(peer->fd, net::FrameType::kQueryResponse, id, body);
        }
        peer->held.clear();
      }
      held_ = 0;
    }
  }

  const std::vector<std::string> series_;
  const size_t hold_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<uint32_t> shard_id_{net::kStandaloneShardId};
  std::atomic<uint64_t> fingerprint_{0};
  std::atomic<size_t> held_{0};
  std::atomic<bool> release_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Peer>> peers_;  // fake's thread only
  std::thread thread_;
};

/// Polls `done` for up to five seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// A single-shard map whose one shard is `fake`.
ShardMap FakeShardMap(const FakeShard& fake) {
  auto map = ShardMap::FromEndpoints({{"127.0.0.1", fake.port()}});
  EXPECT_TRUE(map.ok());
  return *map;
}

net::WireQueryRequest SmallQuery(const std::string& series) {
  net::WireQueryRequest wire;
  wire.request.series = series;
  wire.request.query = {1.0, 2.0, 3.0, 4.0};
  wire.request.params.type = QueryType::kRsmEd;
  wire.request.params.epsilon = 1.0;
  return wire;
}

TEST(CoordFederationTest, RefusesShardWithWrongIdentity) {
  // The fake answers as shard 1; what varies is the fingerprint it claims
  // and where the coordinator's map places it.
  FakeShard fake({}, /*hold=*/0);
  const ShardEndpoint closed{"127.0.0.1", ReserveClosedPort()};
  const ShardEndpoint endpoint{"127.0.0.1", fake.port()};
  auto as_shard1 = ShardMap::FromEndpoints({closed, endpoint});
  auto as_shard0 = ShardMap::FromEndpoints({endpoint, closed});
  ASSERT_TRUE(as_shard1.ok() && as_shard0.ok());
  // Queries a series the map routes to the fake, `times` times in a row.
  auto statuses = [](const ShardMap& map, uint32_t fake_id, int times,
                     bool* connected) {
    std::string series;
    for (int i = 0; series.empty(); ++i) {
      if (map.OwnerOf("s" + std::to_string(i)) == fake_id) {
        series = "s" + std::to_string(i);
      }
    }
    CoordServer::CoordOptions options;
    CoordServer coord(map, options);
    EXPECT_TRUE(coord.Start().ok());
    auto client = net::Client::Connect("127.0.0.1", coord.port());
    EXPECT_TRUE(client.ok());
    QueryRequest req = SmallQuery(series).request;
    std::vector<Status> out;
    for (int t = 0; t < times; ++t) {
      auto answer = (*client)->Query(req);
      out.push_back(answer.ok() ? answer->status : answer.status());
    }
    *connected = coord.shard_connected(fake_id);
    coord.Stop();
    return out;
  };

  bool connected = true;
  fake.SetIdentity(1, 0xABC);
  auto refused = statuses(*as_shard1, 1, 2, &connected);
  EXPECT_TRUE(refused[0].IsInvalidArgument()) << refused[0].ToString();
  EXPECT_FALSE(connected);
  // The refusal armed the dial backoff: an immediate retry fails fast.
  EXPECT_TRUE(refused[1].IsResourceExhausted()) << refused[1].ToString();

  fake.SetIdentity(1, as_shard0->Fingerprint());
  auto misplaced = statuses(*as_shard0, 0, 1, &connected);
  EXPECT_TRUE(misplaced[0].IsInvalidArgument()) << misplaced[0].ToString();

  fake.SetIdentity(1, as_shard1->Fingerprint());
  auto accepted = statuses(*as_shard1, 1, 1, &connected);
  EXPECT_TRUE(accepted[0].ok()) << accepted[0].ToString();
  EXPECT_TRUE(connected);
}

// ------------------------------------------- reactor concurrency contract

TEST(CoordReactorTest, ConcurrentPatternQueriesShareTheShardLink) {
  // The fake answers nothing until it holds two sub-queries at once: both
  // pattern queries complete only if the coordinator keeps them in flight
  // together on its link to the shard, instead of serializing one
  // shard's batches behind each other until the deadline.
  FakeShard fake({"p0"}, /*hold=*/2);
  CoordServer::CoordOptions options;
  options.verify_shard_identity = false;
  CoordServer coord(FakeShardMap(fake), options);
  ASSERT_TRUE(coord.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coord.port());
  ASSERT_TRUE(client.ok());

  net::WireQueryRequest wire = SmallQuery("p*");
  wire.request.timeout_ms = 2'000.0;
  auto a = (*client)->SendRequest(wire);
  auto b = (*client)->SendRequest(wire);
  ASSERT_TRUE(a.ok() && b.ok());
  for (uint64_t id : {*a, *b}) {
    auto fed = (*client)->WaitFederatedResponse(id);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    EXPECT_TRUE(fed->status.ok()) << fed->status.ToString();
    EXPECT_FALSE(fed->partial());
    ASSERT_EQ(fed->groups.size(), 1u);
    EXPECT_EQ(fed->groups[0].series, "p0");
  }
  coord.Stop();
}

TEST(CoordReactorTest, MaxQueueShedsPastTheBoundAndRetiresTheBooking) {
  FakeShard fake({"p0"}, /*hold=*/1000);  // withholds until Release()
  CoordServer::CoordOptions options;
  options.verify_shard_identity = false;
  options.max_queue = 1;
  CoordServer coord(FakeShardMap(fake), options);
  ASSERT_TRUE(coord.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coord.port());
  ASSERT_TRUE(client.ok());

  const net::WireQueryRequest wire = SmallQuery("p*");
  auto first = (*client)->SendRequest(wire);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WaitFor([&fake] { return fake.held() == 1; }));

  // The one slot is taken: the next federated query is shed, typed.
  auto shed = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_TRUE(shed->status.IsResourceExhausted()) << shed->status.ToString();
  EXPECT_EQ(coord.stats_registry()->Snapshot().rejected, 1u);

  fake.Release();
  auto done = (*client)->WaitFederatedResponse(*first);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();

  // Neither booking lingers: the slot serves again, and Stop()'s drain
  // (which waits on every booked request) returns.
  auto again = (*client)->FederatedQuery(wire);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->status.ok()) << again->status.ToString();
  coord.Stop();
}

size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(CoordReactorTest, ThreadCountIsFlatUnderConcurrentFederatedQueries) {
  constexpr size_t kInFlight = 32;
  FakeShard fake({"p0"}, /*hold=*/1000);
  CoordServer::CoordOptions options;
  options.verify_shard_identity = false;
  const size_t before = ThreadCount();
  CoordServer coord(FakeShardMap(fake), options);
  ASSERT_TRUE(coord.Start().ok());
  const size_t started = ThreadCount();
  // The reactor loop and the base server's blocking-work helper.
  EXPECT_LE(started, before + 2);

  auto client = net::Client::Connect("127.0.0.1", coord.port());
  ASSERT_TRUE(client.ok());
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto id = (*client)->SendRequest(SmallQuery("p*"));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(WaitFor([&fake] { return fake.held() == kInFlight; }));
  // No thread was added. (A thread an earlier test joined can still be
  // listed for a moment and then vanish, so the count may only drop.)
  EXPECT_LE(ThreadCount(), started);

  fake.Release();
  for (uint64_t id : ids) {
    auto fed = (*client)->WaitFederatedResponse(id);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    EXPECT_TRUE(fed->status.ok()) << fed->status.ToString();
  }
  coord.Stop();
}

/// A raw connection to a loopback port, for tests that need frames on
/// the wire in an order net::Client does not produce.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

std::vector<net::Frame> ReadFrames(int fd, size_t count) {
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  char buf[4096];
  while (frames.size() < count) {
    net::Frame frame;
    Status error;
    if (decoder.Next(&frame, &error) == net::FrameDecoder::Event::kFrame) {
      frames.push_back(std::move(frame));
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  return frames;
}

TEST(CoordFederationTest, PipelinedAppendThenQuerySeesTheAppendedPoints) {
  ClusterFixture fx;
  CoordServer coordinator(*fx.map, fx.CoordServerOptions());
  ASSERT_TRUE(coordinator.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok());
  Rng rng(777);
  const TimeSeries base = GenerateSynthetic(1024, &rng);
  const TimeSeries tail = GenerateSynthetic(512, &rng);
  ASSERT_TRUE((*client)->CreateSeries("grow", base.values()).ok());

  // The APPEND and a by-reference query into the appended range leave in
  // one write, before either is answered: the query must run after the
  // append commits, or its reference is out of range.
  net::Frame append;
  append.type = net::FrameType::kAppendRequest;
  append.request_id = 1;
  net::EncodeIngestRequestBody(net::WireIngestRequest{"grow", tail.values()},
                               &append.body);
  net::WireQueryRequest query;
  query.request.series = "grow";
  query.request.params.type = QueryType::kRsmEd;
  query.request.params.epsilon = 0.5;
  query.by_reference = true;
  query.ref_offset = base.size();
  query.ref_length = 128;
  net::Frame ask;
  ask.type = net::FrameType::kQueryRequest;
  ask.request_id = 2;
  net::EncodeQueryRequestBody(query, &ask.body);
  std::string wire;
  net::EncodeFrame(append, &wire);
  net::EncodeFrame(ask, &wire);

  const int fd = ConnectRaw(coordinator.port());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  const auto frames = ReadFrames(fd, 2);
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_EQ(frames[0].type, net::FrameType::kIngestResponse);
  EXPECT_EQ(frames[1].request_id, 2u);
  auto answer = net::DecodeQueryAnswer(frames[1], {});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_TRUE(answer->status.ok()) << answer->status.ToString();
  EXPECT_TRUE(std::any_of(answer->matches.begin(), answer->matches.end(),
                          [&base](const MatchResult& m) {
                            return m.offset == base.size() &&
                                   m.distance < 1e-9;
                          }));
  coordinator.Stop();
}

// ---------------------------------------------------- cancel fan-out

TEST(CoordFederationTest, CancelFansKCancelToEveryShard) {
  // One never-finishing query per shard (loose cNSM-DTW bounds force the
  // full verify cascade over 60k points — minutes uncancelled), so the
  // cancel must be what ends each of them. heavy0/1/2 hash to shards
  // 1/2/0 respectively: every shard runs exactly one sub-query.
  auto map = std::make_shared<ShardMap>();
  std::vector<std::unique_ptr<ShardNode>> nodes;
  for (uint32_t s = 0; s < 3; ++s) {
    nodes.push_back(StartShardNode(s, 3, map, /*threads=*/2));
  }
  auto built = ShardMap::FromEndpoints(
      {ShardEndpoint{"127.0.0.1", nodes[0]->server->port()},
       ShardEndpoint{"127.0.0.1", nodes[1]->server->port()},
       ShardEndpoint{"127.0.0.1", nodes[2]->server->port()}});
  ASSERT_TRUE(built.ok());
  *map = *built;

  Rng rng(4242);
  const TimeSeries heavy = GenerateSynthetic(60'000, &rng);
  std::vector<bool> owns(3, false);
  for (int i = 0; i < 3; ++i) {
    const std::string name = "heavy" + std::to_string(i);
    const uint32_t owner = map->OwnerOf(name);
    owns[owner] = true;
    TimeSeries copy = heavy;
    ASSERT_TRUE(nodes[owner]->catalog->Ingest(name, std::move(copy)).ok());
  }
  ASSERT_TRUE(owns[0] && owns[1] && owns[2]);

  CoordServer::CoordOptions options;
  options.verify_shard_identity = false;
  CoordServer coord(*map, options);
  ASSERT_TRUE(coord.Start().ok());
  auto client = net::Client::Connect("127.0.0.1", coord.port());
  ASSERT_TRUE(client.ok());

  net::WireQueryRequest wire;
  wire.request.series = "heavy*";
  wire.request.query = ExtractQuery(heavy, 30'000, 512, 0.3, &rng);
  wire.request.params.type = QueryType::kCnsmDtw;
  wire.request.params.epsilon = 1e6;
  wire.request.params.alpha = 1e6;
  wire.request.params.beta = 1e6;
  wire.request.params.rho = 32;

  const auto t0 = std::chrono::steady_clock::now();
  auto id = (*client)->SendRequest(wire);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE((*client)->Cancel(*id).ok());
  auto answered = (*client)->WaitFederatedResponse(*id);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  const net::FederatedResponse& fed = *answered;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Every sub-query ended Cancelled, so no shard contributed and the
  // whole federated answer is typed Cancelled — well before the queries'
  // natural runtime.
  EXPECT_TRUE(fed.status.IsCancelled()) << fed.status.ToString();
  EXPECT_EQ(fed.shards_ok, 0u);
  EXPECT_EQ(fed.shard_errors.size(), 3u);
  EXPECT_LT(elapsed_ms, 10'000.0);

  // The kCancel reached EVERY shard: each shard's own service observed
  // exactly its one sub-query cancelled.
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(nodes[s]->service->Stats().cancelled, 1u) << "shard " << s;
  }
}

TEST(CoordFederationTest, ShardHostResolvableOnlyAfterStartupIsReached) {
  // A resolver failure when the coordinator starts (its DNS not up yet)
  // must not take the shard down for good: every failed dial looks the
  // host up again off the loop, and a later redial uses the answer.
  ClusterFixture fx;
  std::vector<ShardEndpoint> endpoints;
  for (auto& node : fx.nodes) {
    endpoints.push_back(ShardEndpoint{"shard.invalid", node->server->port()});
  }
  auto named = ShardMap::FromEndpoints(std::move(endpoints));
  ASSERT_TRUE(named.ok());
  std::atomic<bool> resolvable{false};
  std::atomic<int> lookups{0};
  CoordServer::CoordOptions options = fx.CoordServerOptions();
  options.backoff_initial_ms = 10.0;
  options.backoff_max_ms = 20.0;
  options.resolve = [&](const std::string& host,
                        int port) -> Result<sockaddr_in> {
    lookups.fetch_add(1);
    if (!resolvable.load()) {
      return Status::InvalidArgument("cannot resolve " + host);
    }
    return net::ResolveIPv4("127.0.0.1", port);
  };
  CoordServer coordinator(*named, options);
  ASSERT_TRUE(coordinator.Start().ok());
  const int at_startup = lookups.load();
  EXPECT_EQ(at_startup, static_cast<int>(kClusterShards));
  auto fed = net::Client::Connect("127.0.0.1", coordinator.port());
  auto single = net::Client::Connect("127.0.0.1", fx.all_server->port());
  ASSERT_TRUE(fed.ok() && single.ok());

  const QueryRequest req = MakeRequest(fx, 0);
  auto down = (*fed)->Query(req);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_FALSE(down->status.ok());
  EXPECT_NE(down->status.ToString().find("cannot resolve"), std::string::npos)
      << down->status.ToString();
  // The failed dial started a fresh lookup.
  EXPECT_TRUE(WaitFor([&] { return lookups.load() > at_startup; }));

  resolvable.store(true);
  Result<QueryResponse> up = Status::Internal("no attempt");
  EXPECT_TRUE(WaitFor([&] {
    up = (*fed)->Query(req);
    return up.ok() && up->status.ok();
  })) << (up.ok() ? up->status : up.status()).ToString();
  auto b = (*single)->Query(req);
  ASSERT_TRUE(up.ok() && b.ok());
  EXPECT_EQ(up->matches, b->matches);
  coordinator.Stop();
}

}  // namespace
}  // namespace coord
}  // namespace kvmatch
