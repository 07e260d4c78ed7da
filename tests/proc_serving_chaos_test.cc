// Supervised multi-process serving under seeded chaos
// (src/runtime/supervised_worker_pool.h, src/server/query_server.h,
// docs/robustness.md, docs/shm_serving.md).
//
// The headline property: under sustained query load with seeded SIGKILL,
// hang, and torn-frame storms, every request completes — byte-identical to
// the in-process answer when it succeeds, a typed retryable error or an
// honestly framed DEGRADED INPROC answer when it cannot — with zero hangs,
// zero parent crashes, and ingest publishing unimpeded throughout. Around
// it: restart budgets (exhaustion -> Down -> AllDown -> typed rejection),
// deadline-bounded hung workers, sibling-retry identity, and the server's
// SERVE/QUERY/degrade/re-SERVE lifecycle.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/fault_injection.h"
#include "src/common/result.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/live_snapshot.h"
#include "src/core/query_engine.h"
#include "src/runtime/metrics.h"
#include "src/runtime/supervised_worker_pool.h"
#include "src/server/query_server.h"
#include "src/shm/epoch_plane.h"
#include "src/video/stream_generator.h"

namespace focus::shm {
namespace {

core::IngestParams Params() {
  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

ShmModelProvenance Provenance() {
  ShmModelProvenance p;
  p.world_seed = 23;
  p.cheap_weights_seed = 5;
  p.cheap_candidate_index = 1;
  p.gt_weights_seed = 23;
  return p;
}

std::string SegmentName(const std::string& tag) {
  return "/focus_proc_test_" + tag + "_" + std::to_string(::getpid());
}

// Exact textual encoding of a QueryResult (hexfloat GPU accounting), so
// byte-identity over the worker RPC is plain string equality.
std::string EncodeResult(const core::QueryResult& r) {
  std::ostringstream out;
  out << r.queried << ' ' << r.centroids_classified << ' ' << r.clusters_matched << ' '
      << r.frames_returned << ' ' << std::hexfloat << r.gpu_millis;
  for (const auto& [first, last] : r.frame_runs) {
    out << ' ' << first << ':' << last;
  }
  return out.str();
}

struct QuerySpec {
  common::ClassId cls;
  int kx;
  common::TimeRange range;
};

std::vector<QuerySpec> SpecsFor(const core::LiveSnapshot& snapshot) {
  std::set<common::ClassId> classes;
  const index::IndexView view = snapshot.index.view();
  for (uint64_t id = 0; id < view.num_clusters(); ++id) {
    for (const index::RankedClass& c : view.classes(id)) {
      classes.insert(c.cls);
    }
    if (classes.size() >= 4) {
      break;
    }
  }
  classes.insert(video::kNumClasses - 1);  // Near-certain miss.
  std::vector<QuerySpec> specs;
  int i = 0;
  for (common::ClassId c : classes) {
    specs.push_back({c, -1, {}});
    if (i % 2 == 0) {
      specs.push_back({c, 1, {}});
      specs.push_back({c, -1, {2.0, 9.0}});
    }
    ++i;
  }
  return specs;
}

// Publishes every live epoch of a short classified run into |publisher|.
std::vector<std::shared_ptr<const core::LiveSnapshot>> PublishRun(
    EpochPublisher* publisher, double duration_sec, uint64_t stream_seed,
    const std::function<void(const core::LiveSnapshot&)>& after_publish = nullptr) {
  video::ClassCatalog catalog(23);
  video::StreamProfile profile;
  if (!video::FindProfile("auburn_c", &profile)) {
    ADD_FAILURE() << "missing profile";
    return {};
  }
  const core::IngestParams params = Params();
  cnn::Cnn cheap(params.model, &catalog);
  video::StreamRun run(&catalog, profile, duration_sec, /*fps=*/30.0, stream_seed);
  const core::ClassifiedSample sample = core::ClassifySample(run, cheap, params.k);

  std::vector<std::shared_ptr<const core::LiveSnapshot>> snapshots;
  core::IngestOptions options;
  options.finalize_every_frames = 60;
  options.snapshot_sink = [&](std::shared_ptr<const core::LiveSnapshot> snap) {
    auto published = publisher->Publish(*snap);
    EXPECT_TRUE(published.ok()) << "epoch " << snap->epoch << ": "
                                << (published.ok() ? "" : published.error().message);
    snapshots.push_back(snap);
    if (after_publish) {
      after_publish(*snap);
    }
  };
  core::RunIngestClassified(sample, params, options);
  return snapshots;
}

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

// The worker-side handler the pool-level tests fork: lazy attach, models
// rebuilt from provenance, one shm query per request. Range bounds arrive in
// hexfloat and are parsed with strtod — istream extraction rejects hexfloat.
struct ProcWorker {
  std::string segment;
  runtime::MetricsRegistry metrics;
  std::unique_ptr<ShmSnapshotReader> reader;
  std::unique_ptr<video::ClassCatalog> catalog;
  std::unique_ptr<cnn::Cnn> cheap;
  std::unique_ptr<cnn::Cnn> gt;

  std::string EnsureAttached() {
    if (reader != nullptr) {
      return "";
    }
    auto attached = ShmSnapshotReader::Attach(segment, &metrics);
    if (!attached.ok()) {
      return "ERR attach: " + attached.error().message;
    }
    reader = std::move(*attached);
    auto provenance = reader->Provenance();
    if (!provenance.ok()) {
      return "ERR provenance: " + provenance.error().message;
    }
    catalog = std::make_unique<video::ClassCatalog>(provenance->world_seed);
    cheap = std::make_unique<cnn::Cnn>(
        cnn::GenericCheapCandidates(
            provenance->cheap_weights_seed)[provenance->cheap_candidate_index],
        catalog.get());
    gt = std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(provenance->gt_weights_seed),
                                    catalog.get());
    return "";
  }

  // "Q <cls> <kx> <begin> <end>" -> EncodeResult of the newest epoch's answer.
  // "HANG" parks the worker forever (deadline tests SIGKILL it).
  std::string Handle(const std::string& request) {
    if (request == "HANG") {
      while (true) {
        ::pause();
      }
    }
    if (std::string err = EnsureAttached(); !err.empty()) {
      return err;
    }
    const std::vector<std::string> tokens = Split(request);
    if (tokens.size() != 5 || tokens[0] != "Q") {
      return "ERR bad request " + request;
    }
    const common::ClassId cls =
        static_cast<common::ClassId>(std::strtol(tokens[1].c_str(), nullptr, 10));
    const int kx = static_cast<int>(std::strtol(tokens[2].c_str(), nullptr, 10));
    common::TimeRange range;
    range.begin_sec = std::strtod(tokens[3].c_str(), nullptr);
    range.end_sec = std::strtod(tokens[4].c_str(), nullptr);
    auto view = reader->Acquire();
    if (!view.ok()) {
      return "ERR acquire: " + view.error().message;
    }
    auto result = view->QueryChecked(cls, kx, range, *cheap, *gt);
    if (!result.ok()) {
      return "ERR evicted: " + result.error().message;
    }
    return EncodeResult(*result);
  }
};

std::string QueryLine(const QuerySpec& spec) {
  std::ostringstream out;
  out << "Q " << spec.cls << ' ' << spec.kx << ' ' << std::hexfloat << spec.range.begin_sec
      << ' ' << spec.range.end_sec;
  return out.str();
}

std::string Echo(const std::string& request) { return request; }

std::string HangOrEcho(const std::string& request) {
  if (request == "HANG") {
    while (true) {
      ::pause();
    }
  }
  return request;
}

// In-process reference: the models and reader the parent test holds.
struct Reference {
  explicit Reference(const std::string& segment) {
    auto attached = ShmSnapshotReader::Attach(segment);
    EXPECT_TRUE(attached.ok());
    reader = std::move(*attached);
    catalog = std::make_unique<video::ClassCatalog>(23);
    cheap = std::make_unique<cnn::Cnn>(Params().model, catalog.get());
    gt = std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(23), catalog.get());
  }
  std::string Answer(const QuerySpec& spec) {
    auto view = reader->Acquire();
    EXPECT_TRUE(view.ok());
    return EncodeResult(view->Query(spec.cls, spec.kx, spec.range, *cheap, *gt));
  }
  std::unique_ptr<ShmSnapshotReader> reader;
  std::unique_ptr<video::ClassCatalog> catalog;
  std::unique_ptr<cnn::Cnn> cheap;
  std::unique_ptr<cnn::Cnn> gt;
};

// --- Supervision mechanics (echo workers; no shm needed) ------------------

TEST(SupervisedWorkerPoolTest, HungWorkersTimeOutRespawnAndRecover) {
  runtime::SupervisedPoolOptions options;
  options.num_workers = 2;
  options.call_deadline_millis = 100;
  options.max_worker_restarts = 3;
  runtime::SupervisedWorkerPool pool(options);
  ASSERT_TRUE(pool.Start(HangOrEcho).ok());

  // Both the first pick and the sibling retry hang past the deadline: the
  // call surfaces kTimeout after two bounded attempts, and both slots were
  // killed and respawned rather than left occupying anything.
  auto hung = pool.Call("HANG");
  ASSERT_FALSE(hung.ok());
  EXPECT_EQ(hung.error().code, common::ErrorCode::kTimeout);
  const runtime::SupervisedPoolStats stats = pool.stats();
  EXPECT_EQ(stats.timeouts, 2);
  EXPECT_EQ(stats.restarts, 2);
  EXPECT_EQ(stats.sibling_retries, 1);
  EXPECT_GT(stats.backoff_millis, 0.0);  // Virtual backoff accounted, not slept.
  EXPECT_EQ(pool.live_workers(), 2);     // Restarting, not Down.

  auto reply = pool.Call("ok");
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  EXPECT_EQ(*reply, "ok");
  pool.Shutdown();
}

TEST(SupervisedWorkerPoolTest, RestartBudgetExhaustionMeansDownThenTypedRejection) {
  runtime::SupervisedPoolOptions options;
  options.num_workers = 2;
  options.call_deadline_millis = 2000;
  options.max_worker_restarts = 0;  // Any failure is terminal for its slot.
  runtime::SupervisedWorkerPool pool(options);
  ASSERT_TRUE(pool.Start(Echo).ok());
  EXPECT_FALSE(pool.AllDown());

  pool.KillWorker(0);
  pool.KillWorker(1);
  auto failed = pool.Call("x");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, common::ErrorCode::kUnavailable);
  EXPECT_TRUE(pool.AllDown());
  EXPECT_EQ(pool.live_workers(), 0);
  EXPECT_EQ(pool.Health(0).state, runtime::WorkerState::kDown);
  EXPECT_EQ(pool.Health(1).state, runtime::WorkerState::kDown);

  // With every budget exhausted the pool refuses up front — no socket is
  // touched, the caller gets the degradation signal.
  auto rejected = pool.Call("y");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, common::ErrorCode::kUnavailable);
  EXPECT_NE(rejected.error().message.find("down"), std::string::npos);
  EXPECT_GE(pool.stats().failed_calls, 2);
  pool.Shutdown();
}

// --- Byte-identity over real shm workers ----------------------------------

TEST(SupervisedWorkerPoolTest, SiblingRetryAnswersByteIdentically) {
  const std::string name = SegmentName("sibling");
  EpochPublisher::Options popts;
  popts.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, popts);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);
  auto snapshots = PublishRun(publisher->get(), /*duration_sec=*/8.0, /*stream_seed=*/11);
  ASSERT_FALSE(snapshots.empty());
  const std::vector<QuerySpec> specs = SpecsFor(*snapshots.back());
  Reference reference(name);

  runtime::SupervisedPoolOptions options;
  options.num_workers = 2;
  options.call_deadline_millis = 10000;
  options.max_worker_restarts = 4;
  runtime::SupervisedWorkerPool pool(options);
  auto worker = std::make_shared<ProcWorker>();
  worker->segment = name;
  ASSERT_TRUE(pool.Start([worker](const std::string& r) { return worker->Handle(r); }).ok());

  // Baseline: worker answers match the in-process reference exactly.
  const std::string expected = reference.Answer(specs[0]);
  auto baseline = pool.Call(QueryLine(specs[0]));
  ASSERT_TRUE(baseline.ok()) << baseline.error().message;
  EXPECT_EQ(*baseline, expected);

  // Kill the slot the round-robin cursor will pick next (slot 1, after the
  // baseline consumed slot 0). The call must route around the corpse: the
  // dead worker is respawned, the request retried on its sibling, and the
  // answer is byte-identical — the caller never learns anything happened.
  pool.KillWorker(1);
  auto retried = pool.Call(QueryLine(specs[0]));
  ASSERT_TRUE(retried.ok()) << retried.error().message;
  EXPECT_EQ(*retried, expected);
  const runtime::SupervisedPoolStats stats = pool.stats();
  EXPECT_EQ(stats.sibling_retries, 1);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.failed_calls, 0);
  EXPECT_EQ(pool.Health(1).state, runtime::WorkerState::kRestarting);

  // The respawned worker serves again (fresh attach, same answers) and is
  // marked Healthy by its next success.
  for (const QuerySpec& spec : specs) {
    auto reply = pool.Call(QueryLine(spec));
    ASSERT_TRUE(reply.ok()) << reply.error().message;
    EXPECT_EQ(*reply, reference.Answer(spec));
  }
  EXPECT_EQ(pool.Health(1).state, runtime::WorkerState::kHealthy);
  EXPECT_EQ(pool.live_workers(), 2);
  pool.Shutdown();
}

// The headline chaos property. Seeded torn-frame crashes inside the workers
// (proc.handler, inherited at fork), seeded send/recv/spawn faults in the
// parent, and explicit SIGKILLs — under all of it, every call either
// returns the byte-identical answer or a typed retryable error; the pool
// self-heals when the storm lifts; and the publisher keeps publishing.
TEST(SupervisedWorkerPoolTest, ChaosStormEveryAnswerByteIdenticalOrTyped) {
  const std::string name = SegmentName("storm");
  EpochPublisher::Options popts;
  popts.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, popts);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);
  auto snapshots = PublishRun(publisher->get(), /*duration_sec=*/8.0, /*stream_seed=*/29);
  ASSERT_FALSE(snapshots.empty());
  std::vector<QuerySpec> specs = SpecsFor(*snapshots.back());
  if (specs.size() > 8) {
    specs.resize(8);  // Bound respawn churn: reader slots are finite (64).
  }
  Reference reference(name);
  std::vector<std::string> expected;
  expected.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    expected.push_back(reference.Answer(spec));
  }

  runtime::SupervisedPoolOptions options;
  options.num_workers = 3;
  options.call_deadline_millis = 10000;
  options.max_worker_restarts = 1000;  // The storm must never exhaust the pool.
  runtime::SupervisedWorkerPool pool(options);
  auto worker = std::make_shared<ProcWorker>();
  worker->segment = name;

  // Child-side chaos is armed BEFORE Start so every forked worker inherits
  // it: each request has a seeded chance of a torn-frame crash mid-reply.
  common::FaultPlan child_plan(/*seed=*/1789);
  child_plan.FireWithProbability("proc.handler", 0.20);
  int successes = 0;
  {
    common::ScopedFaultPlan arm_children(&child_plan);
    ASSERT_TRUE(
        pool.Start([worker](const std::string& r) { return worker->Handle(r); }).ok());

    // Parent-side chaos replaces the plan after the fork: send faults, recv
    // faults (stranded replies), and denied respawns.
    common::FaultPlan parent_plan(/*seed=*/431);
    parent_plan.FireWithProbability("proc.rpc.send", 0.10);
    parent_plan.FireWithProbability("proc.rpc.recv", 0.15);
    parent_plan.FireWithProbability("proc.spawn", 0.10);
    common::ScopedFaultPlan arm_parent(&parent_plan);

    common::Pcg32 rng(97, 13);
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < specs.size(); ++i) {
        if (rng.NextDouble() < 0.15) {
          pool.KillWorker(static_cast<int>(rng.Next64() % options.num_workers));
        }
        auto reply = pool.Call(QueryLine(specs[i]));
        if (reply.ok()) {
          EXPECT_EQ(*reply, expected[i]) << "spec " << i << " round " << round;
          ++successes;
        } else {
          // Never a hang, never a crash — always a typed, retryable error.
          EXPECT_TRUE(common::IsRetryable(reply.error().code))
              << common::ErrorCodeName(reply.error().code) << ": "
              << reply.error().message;
        }
      }
    }
    EXPECT_GT(successes, 0);
    EXPECT_FALSE(pool.AllDown());
    EXPECT_GT(pool.stats().restarts, 0);
  }

  // Storm over: ingest was never stalled — the publisher advances the plane —
  // and the pool self-heals to serve the new epochs byte-identically.
  auto more = PublishRun(publisher->get(), /*duration_sec=*/4.0, /*stream_seed=*/31);
  ASSERT_FALSE(more.empty());
  const std::string healed_expected = reference.Answer(specs[0]);
  common::Result<std::string> healed = common::Unavailable("never called");
  for (int attempt = 0; attempt < 10; ++attempt) {
    healed = pool.Call(QueryLine(specs[0]));
    if (healed.ok()) {
      break;
    }
  }
  ASSERT_TRUE(healed.ok()) << healed.error().message;
  EXPECT_EQ(*healed, healed_expected);
  pool.Shutdown();
}

// --- The server wired through the supervised pool -------------------------

TEST(ProcServingServerTest, ServeQueryDegradeAndReServeLifecycle) {
  const std::string name = SegmentName("server");
  EpochPublisher::Options popts;
  popts.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, popts);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);
  auto snapshots = PublishRun(publisher->get(), /*duration_sec=*/8.0, /*stream_seed=*/11);
  ASSERT_FALSE(snapshots.empty());
  const std::vector<QuerySpec> specs = SpecsFor(*snapshots.back());

  video::ClassCatalog world(23);  // The plane's world: class names resolve here.
  const std::string cls_name = world.Name(specs[0].cls);

  video::ClassCatalog server_catalog(29);
  core::FocusFleet fleet;
  runtime::MetricsRegistry metrics;
  server::QueryServer server(&fleet, &server_catalog, &metrics);
  runtime::SupervisedPoolOptions serve_options;
  serve_options.num_workers = 2;
  serve_options.call_deadline_millis = 10000;
  serve_options.max_worker_restarts = 0;  // One failure downs a slot: degradation test.
  server.set_shm_serve_options(serve_options);

  ASSERT_EQ(server.HandleLine("SHM ATTACH " + name).substr(0, 11), "OK ATTACHED");

  // Unserved: the server's own reader answers, framed INPROC.
  const std::string query = "SHM QUERY " + name + " " + cls_name;
  const std::string inproc = server.HandleLine(query);
  const std::string inproc_head = "OK SHM " + name + " INPROC ";
  ASSERT_EQ(inproc.substr(0, inproc_head.size()), inproc_head) << inproc;
  const std::string body = inproc.substr(inproc_head.size());  // "EPOCH ...\nRUN ..."

  // The plane seats kShmMaxReaders - 1 workers beside the server's own
  // reader. A larger pool is refused before anything forks, whether the count
  // came from the line or from the serve options, and the plane stays unserved.
  EXPECT_EQ(server.HandleLine("SHM SERVE " + name + " WORKERS 64").rfind("ERR InvalidArgument", 0),
            0u);
  runtime::SupervisedPoolOptions oversized = serve_options;
  oversized.num_workers = 100000;
  server.set_shm_serve_options(oversized);
  EXPECT_EQ(server.HandleLine("SHM SERVE " + name).rfind("ERR InvalidArgument", 0), 0u);
  server.set_shm_serve_options(serve_options);
  EXPECT_EQ(server.HandleLine("SHM STATUS " + name).find(" WORKERS "), std::string::npos);
  EXPECT_EQ(metrics.counter("server.shm_serves"), 0);

  // Served: a worker process answers — byte-identical from EPOCH on.
  const std::string serving = server.HandleLine("SHM SERVE " + name + " WORKERS 2");
  EXPECT_EQ(serving, "OK SERVING " + name + " WORKERS 2 DEADLINE_MS 10000");
  EXPECT_NE(server.HandleLine("SHM SERVE " + name).find("already serving"),
            std::string::npos);
  const std::string served = server.HandleLine(query);
  EXPECT_EQ(served, "OK SHM " + name + " " + body);
  EXPECT_EQ(metrics.counter("server.shm_queries"), 2);
  EXPECT_EQ(metrics.counter("server.degraded_queries"), 0);

  // Queries with options flow through to the workers.
  const std::string ranged =
      server.HandleLine("SHM QUERY " + name + " " + cls_name + " BEGIN 2 END 9 KX 1");
  EXPECT_EQ(ranged.substr(0, 7), "OK SHM ") << ranged;

  // A persistent recv fault with a zero restart budget downs both slots on
  // one call; the server notices AllDown and answers from its own reader,
  // framed DEGRADED INPROC — same bytes, honest label.
  {
    common::FaultPlan plan;
    plan.FireAlwaysFrom("proc.rpc.recv", 1);
    common::ScopedFaultPlan armed(&plan);
    const std::string degraded = server.HandleLine(query);
    EXPECT_EQ(degraded, "OK DEGRADED INPROC " + name + " " + body);
  }
  EXPECT_EQ(metrics.counter("server.degraded_queries"), 1);

  // Down pools are visible in STATUS and HEALTH.
  const std::string status = server.HandleLine("SHM STATUS " + name);
  EXPECT_NE(status.find("WORKERS 0/2"), std::string::npos) << status;
  EXPECT_NE(status.find("DOWN 2"), std::string::npos) << status;
  const std::string health = server.HandleLine("HEALTH");
  EXPECT_NE(health.find("WORKERS " + name + " 0/2"), std::string::npos) << health;
  EXPECT_NE(health.find("STATE Down"), std::string::npos) << health;

  // The pool stays Down after the storm lifts (budget is spent), the server
  // keeps degrading — until SERVE, the recovery verb, replaces the pool.
  EXPECT_EQ(server.HandleLine(query), "OK DEGRADED INPROC " + name + " " + body);
  EXPECT_EQ(server.HandleLine("SHM SERVE " + name + " WORKERS 2"),
            "OK SERVING " + name + " WORKERS 2 DEADLINE_MS 10000");
  EXPECT_EQ(server.HandleLine(query), "OK SHM " + name + " " + body);

  // Typed errors for the non-shm failure modes.
  EXPECT_EQ(server.HandleLine("SHM QUERY /nonexistent car").substr(0, 12), "ERR NotFound");
  EXPECT_EQ(server.HandleLine("SHM SERVE /nonexistent").substr(0, 12), "ERR NotFound");
  EXPECT_EQ(server.HandleLine("SHM QUERY " + name + " not_a_class").substr(0, 12),
            "ERR NotFound");
}

TEST(ProcServingServerTest, LivePublisherChaosStormNeverStallsIngest) {
  const std::string name = SegmentName("liveserver");
  EpochPublisher::Options popts;
  popts.provenance = Provenance();
  auto publisher = EpochPublisher::Create(name, popts);
  ASSERT_TRUE(publisher.ok()) << publisher.error().message;
  (*publisher)->UnlinkOnDestroy(true);
  // Seed the plane so attach/serve find an epoch and a provenance header.
  auto seed_run = PublishRun(publisher->get(), /*duration_sec=*/4.0, /*stream_seed=*/53);
  ASSERT_FALSE(seed_run.empty());
  const std::vector<QuerySpec> specs = SpecsFor(*seed_run.back());
  video::ClassCatalog world(23);

  video::ClassCatalog server_catalog(29);
  core::FocusFleet fleet;
  runtime::MetricsRegistry metrics;
  server::QueryServer server(&fleet, &server_catalog, &metrics);
  runtime::SupervisedPoolOptions serve_options;
  serve_options.num_workers = 2;
  serve_options.call_deadline_millis = 10000;
  serve_options.max_worker_restarts = 1000;
  server.set_shm_serve_options(serve_options);
  ASSERT_EQ(server.HandleLine("SHM ATTACH " + name).substr(0, 2), "OK");

  // Workers fork under an armed torn-frame plan; parent faults arm next.
  common::FaultPlan child_plan(/*seed=*/7321);
  child_plan.FireWithProbability("proc.handler", 0.15);
  int queries = 0;
  int ok_responses = 0;
  {
    common::ScopedFaultPlan arm_children(&child_plan);
    ASSERT_EQ(server.HandleLine("SHM SERVE " + name).substr(0, 2), "OK");
    common::FaultPlan parent_plan(/*seed=*/911);
    parent_plan.FireWithProbability("proc.rpc.send", 0.10);
    parent_plan.FireWithProbability("proc.rpc.recv", 0.10);
    common::ScopedFaultPlan arm_parent(&parent_plan);

    // Sustained load while ingest republishes the plane epoch by epoch: every
    // response is a success frame or a typed error — the publisher's own
    // EXPECTs inside PublishRun prove ingest never stalled behind a worker.
    size_t at = 0;
    auto storm = PublishRun(publisher->get(), /*duration_sec=*/8.0, /*stream_seed=*/59,
                            [&](const core::LiveSnapshot&) {
                              for (int i = 0; i < 2; ++i) {
                                const QuerySpec& spec = specs[at++ % specs.size()];
                                const std::string response = server.HandleLine(
                                    "SHM QUERY " + name + " " + world.Name(spec.cls));
                                ++queries;
                                if (response.substr(0, 3) == "OK ") {
                                  ++ok_responses;
                                  EXPECT_NE(response.find(" EPOCH "), std::string::npos)
                                      << response;
                                } else {
                                  const std::vector<std::string> tokens = Split(response);
                                  ASSERT_GE(tokens.size(), 2u) << response;
                                  EXPECT_EQ(tokens[0], "ERR");
                                  EXPECT_TRUE(tokens[1] == "Io" || tokens[1] == "Timeout" ||
                                              tokens[1] == "Unavailable")
                                      << response;
                                }
                              }
                            });
    ASSERT_FALSE(storm.empty());
  }
  EXPECT_GT(queries, 0);
  EXPECT_GT(ok_responses, 0);

  // Storm over: the very next query round-trips through a worker again.
  std::string final_response;
  for (int attempt = 0; attempt < 10; ++attempt) {
    final_response = server.HandleLine("SHM QUERY " + name + " " + world.Name(specs[0].cls));
    if (final_response.substr(0, 3) == "OK ") {
      break;
    }
  }
  EXPECT_EQ(final_response.substr(0, 7), "OK SHM ") << final_response;
  EXPECT_EQ(final_response.find("DEGRADED"), std::string::npos) << final_response;
}

}  // namespace
}  // namespace focus::shm
