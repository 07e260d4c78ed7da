// Property tests over the query path, parameterized across streams: monotonicity of
// results in the dynamic Kx (§5), time-range consistency, Kx plans nested up to
// the full plan, and index-level invariants every query rests on (posting lists
// consistent with cluster contents, frame runs within the recording).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/cnn/ground_truth.h"
#include "src/common/hashing.h"
#include "src/cnn/model_zoo.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/query_engine.h"
#include "src/video/stream_generator.h"

namespace focus::core {
namespace {

constexpr double kDurationSec = 75.0;
constexpr double kFps = 30.0;
constexpr int kIndexK = 16;

// One ingested fixture per stream name, shared across the parameterized cases.
struct StreamFixture {
  std::unique_ptr<video::StreamRun> run;
  std::unique_ptr<cnn::Cnn> cheap;
  std::unique_ptr<cnn::Cnn> gt;
  IngestResult ingest;
  std::vector<common::ClassId> query_classes;
};

const video::ClassCatalog& Catalog() {
  static video::ClassCatalog* catalog = new video::ClassCatalog(47);
  return *catalog;
}

const StreamFixture& FixtureFor(const std::string& name) {
  static std::map<std::string, StreamFixture>* fixtures =
      new std::map<std::string, StreamFixture>();
  auto it = fixtures->find(name);
  if (it != fixtures->end()) {
    return it->second;
  }
  StreamFixture fixture;
  video::StreamProfile profile;
  EXPECT_TRUE(video::FindProfile(name, &profile));
  fixture.run = std::make_unique<video::StreamRun>(&Catalog(), profile, kDurationSec, kFps,
                                                   common::HashString(name));
  fixture.cheap = std::make_unique<cnn::Cnn>(cnn::GenericCheapCandidates(9)[0], &Catalog());
  fixture.gt = std::make_unique<cnn::Cnn>(cnn::GtCnnDesc(Catalog().world_seed()), &Catalog());

  IngestParams params;
  params.model = fixture.cheap->desc();
  params.k = kIndexK;
  params.cluster_threshold = 0.5;
  fixture.ingest = RunIngest(*fixture.run, *fixture.cheap, params);

  cnn::SegmentGroundTruth truth(*fixture.run, *fixture.gt);
  fixture.query_classes = truth.DominantClasses(0.95, 3);
  return fixtures->emplace(name, std::move(fixture)).first->second;
}

class QueryProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryProperty, ResultsGrowMonotonicallyWithKx) {
  const StreamFixture& f = FixtureFor(GetParam());
  QueryEngine engine(&f.ingest.index, f.cheap.get(), f.gt.get());
  for (common::ClassId cls : f.query_classes) {
    int64_t prev_frames = -1;
    int64_t prev_centroids = -1;
    std::set<common::FrameIndex> prev_set;
    for (int kx : {1, 2, 4, 8, kIndexK}) {
      QueryResult qr = engine.Query(cls, kx, {}, kFps);
      EXPECT_GE(qr.frames_returned, prev_frames) << "kx=" << kx;
      EXPECT_GE(qr.centroids_classified, prev_centroids) << "kx=" << kx;
      // Frame sets are nested: everything found at a smaller Kx stays found.
      std::set<common::FrameIndex> frames;
      for (const auto& [first, last] : qr.frame_runs) {
        for (common::FrameIndex frame = first; frame <= last; ++frame) {
          frames.insert(frame);
        }
      }
      for (common::FrameIndex frame : prev_set) {
        EXPECT_TRUE(frames.contains(frame)) << "kx=" << kx << " lost frame " << frame;
      }
      prev_frames = qr.frames_returned;
      prev_centroids = qr.centroids_classified;
      prev_set = std::move(frames);
    }
  }
}

TEST_P(QueryProperty, FrameRunsAreSortedDisjointAndInBounds) {
  const StreamFixture& f = FixtureFor(GetParam());
  QueryEngine engine(&f.ingest.index, f.cheap.get(), f.gt.get());
  for (common::ClassId cls : f.query_classes) {
    QueryResult qr = engine.Query(cls, -1, {}, kFps);
    common::FrameIndex prev_end = -2;
    int64_t counted = 0;
    for (const auto& [first, last] : qr.frame_runs) {
      EXPECT_LE(first, last);
      EXPECT_GT(first, prev_end + 1) << "adjacent or overlapping runs not merged";
      EXPECT_GE(first, 0);
      EXPECT_LT(last, f.run->num_frames());
      prev_end = last;
      counted += last - first + 1;
    }
    EXPECT_EQ(counted, qr.frames_returned);
  }
}

TEST_P(QueryProperty, TimeWindowedResultsAreExactlyTheClippedFullResults) {
  const StreamFixture& f = FixtureFor(GetParam());
  QueryEngine engine(&f.ingest.index, f.cheap.get(), f.gt.get());
  common::TimeRange window{.begin_sec = 15.0, .end_sec = 55.0};
  for (common::ClassId cls : f.query_classes) {
    QueryResult full = engine.Query(cls, -1, {}, kFps);
    QueryResult windowed = engine.Query(cls, -1, window, kFps);

    std::set<common::FrameIndex> expected;
    for (const auto& [first, last] : full.frame_runs) {
      for (common::FrameIndex frame = first; frame <= last; ++frame) {
        if (window.ContainsFrame(frame, kFps)) {
          expected.insert(frame);
        }
      }
    }
    std::set<common::FrameIndex> got;
    for (const auto& [first, last] : windowed.frame_runs) {
      for (common::FrameIndex frame = first; frame <= last; ++frame) {
        got.insert(frame);
      }
    }
    EXPECT_EQ(got, expected);
  }
}

// §5's dynamic Kx is a repeat of the query at a larger Kx: the plan at a
// smaller Kx is a subset of the plan at a larger one, and the ladder ends at
// the full-width plan. That is what lets the shared verdict cache charge a Kx
// ladder exactly what one query at the final Kx costs.
TEST_P(QueryProperty, KxPlansNestUpToTheFullPlan) {
  const StreamFixture& f = FixtureFor(GetParam());
  QueryEngine engine(&f.ingest.index, f.cheap.get(), f.gt.get());
  const auto centroids_of = [](const QueryPlan& plan) {
    std::set<std::pair<common::FrameIndex, common::ObjectId>> ids;
    for (const CentroidWorkItem& item : plan.work) {
      ids.emplace(item.centroid.frame, item.centroid.object_id);
    }
    EXPECT_EQ(ids.size(), plan.work.size()) << "a centroid planned twice";
    return ids;
  };
  for (common::ClassId cls : f.query_classes) {
    std::set<std::pair<common::FrameIndex, common::ObjectId>> prev;
    for (int kx : {1, 5, kIndexK}) {
      const auto ids = centroids_of(engine.Plan(cls, kx, {}, kFps));
      EXPECT_TRUE(std::includes(ids.begin(), ids.end(), prev.begin(), prev.end()))
          << "kx=" << kx;
      prev = ids;
    }
    EXPECT_EQ(prev, centroids_of(engine.Plan(cls, -1, {}, kFps)));
  }
}

TEST_P(QueryProperty, PostingListsAgreeWithClusterContents) {
  const StreamFixture& f = FixtureFor(GetParam());
  const index::IndexView idx = f.ingest.index.view();
  for (const index::PostingList& list : idx.lists()) {
    for (const index::Posting& posting : idx.postings(list.cls)) {
      // Every posting points at a cluster that really lists the class, at its rank.
      const auto classes = idx.classes(posting.cluster);
      EXPECT_NE(std::find_if(classes.begin(), classes.end(),
                             [&](const index::RankedClass& c) {
                               return c.cls == list.cls && c.rank == posting.rank &&
                                      c.rank <= kIndexK;
                             }),
                classes.end())
          << "posting for class " << list.cls << " -> cluster " << posting.cluster
          << " is stale";
    }
  }
  // And the reverse: every cluster's classes appear in the postings.
  for (uint64_t id = 0; id < idx.num_clusters(); ++id) {
    for (const index::RankedClass& ranked : idx.classes(id)) {
      const auto postings = idx.postings(ranked.cls);
      EXPECT_NE(std::find_if(postings.begin(), postings.end(),
                             [&](const index::Posting& p) { return p.cluster == id; }),
                postings.end());
    }
  }
}

TEST_P(QueryProperty, QueryCostEqualsCentroidsTimesGtCost) {
  const StreamFixture& f = FixtureFor(GetParam());
  QueryEngine engine(&f.ingest.index, f.cheap.get(), f.gt.get());
  for (common::ClassId cls : f.query_classes) {
    QueryResult qr = engine.Query(cls, -1, {}, kFps);
    EXPECT_NEAR(qr.gpu_millis,
                static_cast<double>(qr.centroids_classified) * f.gt->inference_cost_millis(),
                1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, QueryProperty,
                         ::testing::Values("auburn_c", "jacksonh", "lausanne", "cnn"));

}  // namespace
}  // namespace focus::core
