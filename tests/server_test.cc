// Tests for the query-server frontend: protocol parsing (strictness, options,
// errors), request handling against a real one-camera fleet, payload framing, and
// concurrent read-only query handling through a worker pool.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <set>
#include <sstream>

#include "src/cnn/ground_truth.h"
#include "src/runtime/worker_pool.h"
#include "src/server/query_server.h"

namespace focus::server {
namespace {

// --- ParseRequest ---

TEST(ProtocolTest, ParsesPingCamerasClasses) {
  auto ping = ParseRequest("PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->verb, Verb::kPing);

  auto cameras = ParseRequest("  CAMERAS  ");
  ASSERT_TRUE(cameras.ok());
  EXPECT_EQ(cameras->verb, Verb::kCameras);

  auto classes = ParseRequest("CLASSES ped");
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(classes->verb, Verb::kClasses);
  EXPECT_EQ(classes->class_filter, "ped");
}

TEST(ProtocolTest, ParsesFullQuery) {
  auto request = ParseRequest("QUERY north car BEGIN 60 END 120.5 KX 2");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->verb, Verb::kQuery);
  EXPECT_EQ(request->camera, "north");
  EXPECT_EQ(request->class_name, "car");
  EXPECT_DOUBLE_EQ(request->range.begin_sec, 60.0);
  EXPECT_DOUBLE_EQ(request->range.end_sec, 120.5);
  EXPECT_EQ(request->kx, 2);
}

TEST(ProtocolTest, QueryDefaultsAreOpenEnded) {
  auto request = ParseRequest("QUERY cam car");
  ASSERT_TRUE(request.ok());
  EXPECT_DOUBLE_EQ(request->range.begin_sec, 0.0);
  EXPECT_LT(request->range.end_sec, 0.0);
  EXPECT_EQ(request->kx, -1);
}

TEST(ProtocolTest, ParsesHealthWithOptionalCamera) {
  auto fleet_wide = ParseRequest("HEALTH");
  ASSERT_TRUE(fleet_wide.ok());
  EXPECT_EQ(fleet_wide->verb, Verb::kHealth);
  EXPECT_TRUE(fleet_wide->camera.empty());

  auto one = ParseRequest("HEALTH north");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->verb, Verb::kHealth);
  EXPECT_EQ(one->camera, "north");

  EXPECT_FALSE(ParseRequest("HEALTH north extra").ok());
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("FROB x").ok());               // Unknown verb.
  EXPECT_FALSE(ParseRequest("PING extra").ok());           // Trailing junk.
  EXPECT_FALSE(ParseRequest("QUERY cam").ok());            // Missing class.
  EXPECT_FALSE(ParseRequest("QUERY cam car BEGIN").ok());  // Option without value.
  EXPECT_FALSE(ParseRequest("QUERY cam car BEGIN abc").ok());
  EXPECT_FALSE(ParseRequest("QUERY cam car FOO 3").ok());  // Unknown option.
  EXPECT_FALSE(ParseRequest("QUERY cam car KX 0").ok());   // Non-positive Kx.
  EXPECT_FALSE(ParseRequest("QUERY cam car BEGIN 100 END 50").ok());  // Inverted range.
  EXPECT_FALSE(ParseRequest("STATS cam extra").ok());
  EXPECT_FALSE(ParseRequest("CLASSES a b").ok());
  EXPECT_FALSE(ParseRequest("QUERY REGION r").ok());        // REGION without class.
  EXPECT_FALSE(ParseRequest("QUERY a,,b car").ok());        // Empty name in list.
  EXPECT_FALSE(ParseRequest("QUERY cam car TENANT").ok());  // Option without value.
}

TEST(ProtocolTest, ParsesShmForms) {
  auto attach = ParseRequest("SHM ATTACH /focus_plane");
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach->verb, Verb::kShm);
  EXPECT_EQ(attach->shm_op, "ATTACH");
  EXPECT_EQ(attach->shm_name, "/focus_plane");

  auto one = ParseRequest("SHM STATUS /focus_plane");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->verb, Verb::kShm);
  EXPECT_EQ(one->shm_op, "STATUS");
  EXPECT_EQ(one->shm_name, "/focus_plane");

  auto all = ParseRequest("SHM STATUS");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->shm_op, "STATUS");
  EXPECT_TRUE(all->shm_name.empty());

  EXPECT_FALSE(ParseRequest("SHM").ok());                       // Missing op.
  EXPECT_FALSE(ParseRequest("SHM ATTACH").ok());                // Missing segment.
  EXPECT_FALSE(ParseRequest("SHM ATTACH /a /b").ok());          // Trailing junk.
  EXPECT_FALSE(ParseRequest("SHM STATUS /a extra").ok());       // Trailing junk.
  EXPECT_FALSE(ParseRequest("SHM DETACH /a").ok());             // Unknown op.
}

TEST(ProtocolTest, ParsesShmServeAndQueryForms) {
  auto serve = ParseRequest("SHM SERVE /focus_plane");
  ASSERT_TRUE(serve.ok());
  EXPECT_EQ(serve->verb, Verb::kShm);
  EXPECT_EQ(serve->shm_op, "SERVE");
  EXPECT_EQ(serve->shm_name, "/focus_plane");
  EXPECT_EQ(serve->shm_workers, 0);  // 0 = server default.

  auto sized = ParseRequest("SHM SERVE /focus_plane WORKERS 4");
  ASSERT_TRUE(sized.ok());
  EXPECT_EQ(sized->shm_workers, 4);

  auto query = ParseRequest("SHM QUERY /focus_plane car BEGIN 10 END 90.5 KX 3");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->verb, Verb::kShm);
  EXPECT_EQ(query->shm_op, "QUERY");
  EXPECT_EQ(query->shm_name, "/focus_plane");
  EXPECT_EQ(query->class_name, "car");
  EXPECT_EQ(query->kx, 3);
  EXPECT_DOUBLE_EQ(query->range.begin_sec, 10.0);
  EXPECT_DOUBLE_EQ(query->range.end_sec, 90.5);

  auto bare = ParseRequest("SHM QUERY /focus_plane ped");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->class_name, "ped");
  EXPECT_DOUBLE_EQ(bare->range.begin_sec, 0.0);
  EXPECT_LT(bare->range.end_sec, 0.0);  // Open-ended.

  EXPECT_FALSE(ParseRequest("SHM SERVE").ok());                      // Missing segment.
  EXPECT_FALSE(ParseRequest("SHM SERVE /a WORKERS").ok());           // Option without value.
  EXPECT_FALSE(ParseRequest("SHM SERVE /a WORKERS 0").ok());         // Non-positive count.
  EXPECT_FALSE(ParseRequest("SHM SERVE /a WORKERS -2").ok());        // Negative count.
  EXPECT_FALSE(ParseRequest("SHM SERVE /a WORKERS many").ok());      // Non-numeric count.
  EXPECT_FALSE(ParseRequest("SHM SERVE /a THREADS 4").ok());         // Unknown option.
  EXPECT_FALSE(ParseRequest("SHM QUERY /a").ok());                   // Missing class.
  EXPECT_FALSE(ParseRequest("SHM QUERY /a car TENANT t").ok());      // TENANT rejected.
  EXPECT_FALSE(ParseRequest("SHM QUERY /a car KX zero").ok());       // Bad option value.
  EXPECT_FALSE(ParseRequest("SHM QUERY /a car BEGIN 90 END 10").ok());  // Inverted range.
}

// Numeric options are range-checked before narrowing: a value past int must
// not wrap into an accepted one. Parse level only: no test here starts a
// worker (the reader-slot cap on WORKERS is QueryServer's, checked in
// proc_serving_chaos_test on an attached plane).
TEST(ProtocolTest, RejectsOutOfRangeNumericOptions) {
  for (const std::string kx : {"4294967297", "-4294967295", "2147483648", "99999999999999999999",
                               "-99999999999999999999"}) {
    SCOPED_TRACE("KX " + kx);
    const auto request = ParseRequest("QUERY north car KX " + kx);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error().code, common::ErrorCode::kInvalidArgument);
    EXPECT_FALSE(ParseRequest("SHM QUERY /seg car KX " + kx).ok());
  }
  const auto widest = ParseRequest("QUERY north car KX 2147483647");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest->kx, 2147483647);

  for (const std::string workers : {"4294967298", "2147483648", "-4294967295",
                                    "99999999999999999999"}) {
    SCOPED_TRACE("WORKERS " + workers);
    const auto request = ParseRequest("SHM SERVE /seg WORKERS " + workers);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error().code, common::ErrorCode::kInvalidArgument);
  }
  // In int range the count parses as itself; the server decides what it seats.
  const auto many = ParseRequest("SHM SERVE /seg WORKERS 100000");
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->shm_workers, 100000);
}

// A tenant name becomes part of a metric name, so only a short identifier is
// accepted: a client cannot grow the metrics registry by a line's length.
TEST(ProtocolTest, TenantNamesAreShortIdentifiers) {
  for (const std::string& tenant :
       std::vector<std::string>{"analyst", "ops-2", "night_shift", std::string(32, 't')}) {
    const auto request = ParseRequest("QUERY north car TENANT " + tenant);
    ASSERT_TRUE(request.ok()) << tenant;
    EXPECT_EQ(request->tenant, tenant);
  }
  for (const std::string& tenant :
       std::vector<std::string>{std::string(33, 't'), "a.b", "x/y", "caf\xc3\xa9"}) {
    SCOPED_TRACE("TENANT " + tenant);
    const auto request = ParseRequest("QUERY north,south car TENANT " + tenant);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error().code, common::ErrorCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, ParsesFederatedForms) {
  auto list = ParseRequest("QUERY north,south car KX 2 TENANT analyst");
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->camera.empty());
  ASSERT_EQ(list->cameras.size(), 2u);
  EXPECT_EQ(list->cameras[0], "north");
  EXPECT_EQ(list->cameras[1], "south");
  EXPECT_EQ(list->class_name, "car");
  EXPECT_EQ(list->kx, 2);
  EXPECT_EQ(list->tenant, "analyst");

  auto region = ParseRequest("QUERY REGION downtown truck BEGIN 10");
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->region, "downtown");
  EXPECT_TRUE(region->camera.empty());
  EXPECT_EQ(region->class_name, "truck");
  EXPECT_DOUBLE_EQ(region->range.begin_sec, 10.0);

  auto bare_stats = ParseRequest("STATS");
  ASSERT_TRUE(bare_stats.ok());
  EXPECT_EQ(bare_stats->verb, Verb::kStats);
  EXPECT_TRUE(bare_stats->camera.empty());
}

TEST(ProtocolTest, ResponsesAreFramed) {
  EXPECT_EQ(OkResponse(""), "OK");
  EXPECT_EQ(OkResponse("PONG"), "OK PONG");
  std::string err = ErrResponse(common::ErrorCode::kNotFound, "nope");
  EXPECT_EQ(err, "ERR NotFound nope");
}

// --- QueryServer over a real fleet ---

class QueryServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new video::ClassCatalog(29);
    fleet_ = new core::FocusFleet();
    core::FocusOptions options;
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    ASSERT_TRUE(fleet_
                    ->AddCamera("north", catalog_, profile, 120.0, 30.0, 77, options,
                                core::CameraMeta{"downtown", {"traffic"}})
                    .ok());

    const core::FocusStream* north = fleet_->Find("north");
    cnn::SegmentGroundTruth truth(north->run(), north->gt_cnn());
    auto dominant = truth.DominantClasses(0.95, 1);
    ASSERT_FALSE(dominant.empty());
    dominant_name_ = new std::string(catalog_->Name(dominant[0]));
  }

  static void TearDownTestSuite() {
    delete dominant_name_;
    delete fleet_;
    delete catalog_;
    dominant_name_ = nullptr;
    fleet_ = nullptr;
    catalog_ = nullptr;
  }

  static video::ClassCatalog* catalog_;
  static core::FocusFleet* fleet_;
  static std::string* dominant_name_;
};

video::ClassCatalog* QueryServerTest::catalog_ = nullptr;
core::FocusFleet* QueryServerTest::fleet_ = nullptr;
std::string* QueryServerTest::dominant_name_ = nullptr;

TEST_F(QueryServerTest, PingPongs) {
  runtime::MetricsRegistry metrics;
  QueryServer server(fleet_, catalog_, &metrics);
  EXPECT_EQ(server.HandleLine("PING"), "OK PONG");
  EXPECT_EQ(metrics.counter("server.requests"), 1);
}

TEST_F(QueryServerTest, CamerasListsTheFleet) {
  runtime::MetricsRegistry metrics;
  QueryServer server(fleet_, catalog_, &metrics);
  EXPECT_EQ(server.HandleLine("CAMERAS"), "OK 1\nnorth");
}

TEST_F(QueryServerTest, QueryReturnsFramesAndRuns) {
  runtime::MetricsRegistry metrics;
  QueryServer server(fleet_, catalog_, &metrics);
  std::string response = server.HandleLine("QUERY north " + *dominant_name_);
  ASSERT_EQ(response.rfind("OK FRAMES ", 0), 0u) << response;

  // Every RUN line parses as two ordered frame numbers.
  std::istringstream lines(response);
  std::string line;
  std::getline(lines, line);  // Summary.
  int64_t runs = 0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string tag;
    int64_t first = 0;
    int64_t last = 0;
    ASSERT_TRUE(fields >> tag >> first >> last) << line;
    EXPECT_EQ(tag, "RUN");
    EXPECT_LE(first, last);
    ++runs;
  }
  EXPECT_GT(runs, 0);
  EXPECT_EQ(metrics.counter("server.queries"), 1);
}

TEST_F(QueryServerTest, QueryAgreesWithDirectFleetCall) {
  QueryServer server(fleet_, catalog_);
  std::string response =
      server.HandleLine("QUERY north " + *dominant_name_ + " BEGIN 30 END 90");
  auto direct = fleet_->Query(catalog_->IdForName(*dominant_name_), {"north"},
                              common::TimeRange{30.0, 90.0});
  ASSERT_TRUE(direct.ok());
  std::ostringstream expected;
  expected << "OK FRAMES " << direct->hits[0].result.frames_returned;
  EXPECT_EQ(response.rfind(expected.str(), 0), 0u) << response;
}

TEST_F(QueryServerTest, ErrorsAreFramedNotThrown) {
  QueryServer server(fleet_, catalog_);
  EXPECT_EQ(server.HandleLine("QUERY nowhere car").rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ(server.HandleLine("QUERY north not_a_class").rfind("ERR NotFound", 0), 0u);
  EXPECT_EQ(server.HandleLine("gibberish").rfind("ERR InvalidArgument", 0), 0u);
}

TEST_F(QueryServerTest, ClassesFilterBoundsThePayload) {
  QueryServer server(fleet_, catalog_);
  std::string all = server.HandleLine("CLASSES");
  EXPECT_EQ(all.rfind("OK 1000", 0), 0u) << all.substr(0, 40);
  EXPECT_NE(all.find("first 50 shown"), std::string::npos);

  std::string none = server.HandleLine("CLASSES zzz_no_such_class");
  EXPECT_EQ(none, "OK 0");
}

TEST_F(QueryServerTest, StatsDescribesTheDeployment) {
  QueryServer server(fleet_, catalog_);
  std::string response = server.HandleLine("STATS north");
  EXPECT_EQ(response.rfind("OK MODEL ", 0), 0u);
  EXPECT_NE(response.find(" CLUSTERS "), std::string::npos);
  EXPECT_NE(response.find(" INGEST_GPU_MS "), std::string::npos);
}

TEST_F(QueryServerTest, RegionQueryFansOutFederated) {
  QueryServer server(fleet_, catalog_);
  const std::string single = server.HandleLine("QUERY north " + *dominant_name_);
  ASSERT_EQ(single.rfind("OK FRAMES ", 0), 0u) << single;
  int64_t single_frames = 0;
  {
    std::istringstream in(single.substr(std::string("OK FRAMES ").size()));
    in >> single_frames;
  }

  const std::string federated = server.HandleLine("QUERY REGION downtown " + *dominant_name_);
  ASSERT_EQ(federated.rfind("OK FEDERATED 1 FRAMES ", 0), 0u) << federated;
  int64_t fed_frames = 0;
  {
    std::istringstream in(federated.substr(std::string("OK FEDERATED 1 FRAMES ").size()));
    in >> fed_frames;
  }
  // One camera in the region: the federated aggregate is that camera's answer.
  EXPECT_EQ(fed_frames, single_frames);
  EXPECT_NE(federated.find("\nCAM north FRAMES "), std::string::npos) << federated;

  EXPECT_EQ(server.HandleLine("QUERY REGION nowhere car").rfind("ERR NotFound", 0), 0u);
}

TEST_F(QueryServerTest, BareStatsReportsTheSharedService) {
  QueryServer server(fleet_, catalog_);
  std::string idle = server.HandleLine("STATS");
  EXPECT_EQ(idle.rfind("OK SERVICE REQUESTS 0 ", 0), 0u) << idle;

  // A query, then its warm repeat: the second answers from cache alone.
  ASSERT_EQ(server.HandleLine("QUERY north " + *dominant_name_).rfind("OK ", 0), 0u);
  ASSERT_EQ(server.HandleLine("QUERY north " + *dominant_name_).rfind("OK ", 0), 0u);
  std::string warm = server.HandleLine("STATS");
  EXPECT_EQ(warm.rfind("OK SERVICE REQUESTS 2 ", 0), 0u) << warm;
  EXPECT_NE(warm.find(" HIT_RATE 0.5"), std::string::npos) << warm;
  // One summary line: tenants only attribute traffic, nothing is queued.
  EXPECT_EQ(warm.find('\n'), std::string::npos) << warm;
  EXPECT_NE(warm.find(" RETIRED 0"), std::string::npos) << warm;
}

// TENANT attributes a request and changes nothing else: the tagged answer is
// the untagged one, and each tenant's requests count under its name.
TEST_F(QueryServerTest, TenantOnlyAttributesTraffic) {
  runtime::MetricsRegistry metrics;
  QueryServer server(fleet_, catalog_, &metrics);
  const std::string untagged = server.HandleLine("QUERY north " + *dominant_name_);
  ASSERT_EQ(untagged.rfind("OK ", 0), 0u) << untagged;
  EXPECT_EQ(server.HandleLine("QUERY north " + *dominant_name_ + " TENANT analyst"),
            server.HandleLine("QUERY north " + *dominant_name_));
  const std::string federated =
      server.HandleLine("QUERY REGION downtown " + *dominant_name_ + " TENANT analyst");
  ASSERT_EQ(federated.rfind("OK FEDERATED ", 0), 0u) << federated;
  EXPECT_EQ(metrics.counter("fleet.tenant.analyst.requests"), 2);
  EXPECT_EQ(metrics.counter("fleet.tenant.default.requests"), 2);
  // A malformed tenant is refused before it reaches the service.
  const std::string refused =
      server.HandleLine("QUERY north " + *dominant_name_ + " TENANT " + std::string(64, 'x'));
  EXPECT_EQ(refused.rfind("ERR InvalidArgument", 0), 0u) << refused;
  EXPECT_EQ(metrics.Render().find(std::string(64, 'x')), std::string::npos);
}

TEST_F(QueryServerTest, ConcurrentQueriesAreConsistent) {
  QueryServer server(fleet_, catalog_);
  const std::string request = "QUERY north " + *dominant_name_;
  // The first issue pays the GT-CNN work and warms the shared verdict cache;
  // from the second on the response is the steady state (LATENCY_MS 0 — every
  // verdict cached) that all concurrent repeats must reproduce byte-for-byte.
  const std::string cold = server.HandleLine(request);
  const std::string expected = server.HandleLine(request);
  EXPECT_NE(cold.find("FRAMES"), std::string::npos);
  // Same frames/runs payload either way; only the latency figure differs.
  EXPECT_EQ(cold.substr(cold.find("\n")), expected.substr(expected.find("\n")));

  std::atomic<int> mismatches{0};
  {
    runtime::WorkerPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] {
        if (server.HandleLine(request) != expected) {
          mismatches.fetch_add(1);
        }
      });
    }
    pool.Drain();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

// SHM verb lifecycle against a real epoch plane: attach reports the plane's
// generation, duplicate attaches and unknown segments are framed errors, and
// STATUS tracks publishes that happen after the attach.
TEST_F(QueryServerTest, ShmAttachAndStatusTrackThePlane) {
  const std::string name = "/focus_server_shm_" + std::to_string(::getpid());
  auto publisher = shm::EpochPublisher::Create(name);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);
  core::LiveSnapshot snapshot;  // Empty plane image: the verb only reads stats.
  snapshot.epoch = 1;
  snapshot.watermark = 60;
  snapshot.fps = 30.0;
  ASSERT_TRUE((*publisher)->Publish(snapshot).ok());
  snapshot.epoch = 2;
  ASSERT_TRUE((*publisher)->Publish(snapshot).ok());

  runtime::MetricsRegistry metrics;
  QueryServer server(fleet_, catalog_, &metrics);
  EXPECT_EQ(server.HandleLine("SHM STATUS"), "OK 0");  // Nothing attached yet.
  EXPECT_EQ(server.HandleLine("SHM STATUS " + name).rfind("ERR NotFound", 0), 0u);

  const std::string attached = server.HandleLine("SHM ATTACH " + name);
  EXPECT_EQ(attached.rfind("OK ATTACHED " + name + " GEN 2 EPOCHS 2 READERS 1 ATTACHES 1", 0),
            0u)
      << attached;
  EXPECT_EQ(server.HandleLine("SHM ATTACH " + name).rfind("ERR FailedPrecondition", 0), 0u);

  // A publish after the attach shows up in STATUS without re-attaching.
  snapshot.epoch = 3;
  ASSERT_TRUE((*publisher)->Publish(snapshot).ok());
  const std::string status = server.HandleLine("SHM STATUS " + name);
  EXPECT_EQ(status.rfind("OK " + name + " GEN 3 EPOCHS 3", 0), 0u) << status;
  const std::string listing = server.HandleLine("SHM STATUS");
  EXPECT_EQ(listing.rfind("OK 1\n" + name + " GEN 3", 0), 0u) << listing;

  EXPECT_EQ(server.HandleLine("SHM ATTACH /focus_no_such_plane").rfind("ERR ", 0), 0u);
  EXPECT_EQ(metrics.counter("server.shm_attaches"), 1);
  EXPECT_EQ(metrics.counter("server.shm_attach_errors"), 1);
}

}  // namespace
}  // namespace focus::server
