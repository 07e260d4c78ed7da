// Unit tests for the top-K index image: assembly, postings, the ranked Kx
// filter, delta carry-forward, and the validating decoder.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/index/topk_index.h"

namespace focus::index {
namespace {

ClusterEntry MakeEntry(std::vector<common::ClassId> classes,
                       std::vector<cluster::MemberRun> members) {
  ClusterEntry e;
  e.topk_classes = std::move(classes);
  for (size_t i = 0; i < e.topk_classes.size(); ++i) {
    e.topk_ranks.push_back(static_cast<int32_t>(i) + 1);
  }
  e.members = std::move(members);
  e.size = 0;
  for (const auto& run : e.members) {
    e.size += run.FrameCount();
  }
  e.representative.object_id = e.members.empty() ? 0 : e.members[0].object;
  e.representative.frame = e.members.empty() ? 0 : e.members[0].first_frame;
  e.representative.true_class = e.topk_classes.empty() ? 0 : e.topk_classes[0];
  e.representative.bbox = {1.0f, 2.0f, 3.0f, 4.0f};
  e.representative.first_observation = true;
  e.representative.appearance = {1.0f, 0.0f, 0.5f};
  return e;
}

TopKIndex Build(const std::vector<ClusterEntry>& entries) {
  IndexBuilder builder;
  for (const ClusterEntry& e : entries) {
    builder.Add(e);
  }
  return builder.Finish();
}

std::vector<uint32_t> Ids(std::span<const Posting> postings) {
  std::vector<uint32_t> ids;
  for (const Posting& p : postings) {
    ids.push_back(p.cluster);
  }
  return ids;
}

TEST(TopKIndexTest, PostingsMapClassesToClustersInIdOrder) {
  const TopKIndex index =
      Build({MakeEntry({1, 2, 3}, {{10, 0, 5}}), MakeEntry({2, 4}, {{11, 3, 9}})});
  const IndexView view = index.view();
  EXPECT_EQ(index.num_clusters(), 2u);
  EXPECT_EQ(Ids(view.postings(2)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Ids(view.postings(1)), (std::vector<uint32_t>{0}));
  EXPECT_TRUE(view.postings(99).empty());
  ASSERT_EQ(view.lists().size(), 4u);
  EXPECT_EQ(view.lists()[0].cls, 1);
  EXPECT_EQ(view.lists()[3].cls, 4);
}

TEST(TopKIndexTest, PostingsCarryTheRankedPrefix) {
  const TopKIndex index = Build({MakeEntry({7, 8, 9}, {{1, 0, 1}})});
  const IndexView view = index.view();
  EXPECT_EQ(view.postings(7)[0].rank, 1);
  EXPECT_EQ(view.postings(8)[0].rank, 2);
  EXPECT_EQ(view.postings(9)[0].rank, 3);
  ASSERT_EQ(view.classes(0).size(), 3u);
  EXPECT_EQ(view.classes(0)[1].cls, 8);
  EXPECT_EQ(view.classes(0)[1].rank, 2);
}

TEST(TopKIndexTest, ClassesWithoutParallelRanksAreUnranked) {
  ClusterEntry entry = MakeEntry({7, 8}, {{1, 0, 1}});
  entry.topk_ranks = {1};  // Not parallel to the classes: rank 0 admits every Kx.
  const TopKIndex index = Build({entry});
  EXPECT_EQ(index.view().postings(7)[0].rank, 0);
  EXPECT_EQ(index.view().postings(8)[0].rank, 0);
}

TEST(TopKIndexTest, DuplicateClassIsPostedOnceAtItsFirstOccurrence) {
  ClusterEntry entry = MakeEntry({5, 3, 5}, {{1, 0, 1}});
  entry.topk_ranks = {2, 1, 1};
  const TopKIndex index = Build({MakeEntry({5}, {{2, 0, 1}}), entry});
  const auto postings = index.view().postings(5);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[1].cluster, 1u);
  EXPECT_EQ(postings[1].rank, 2);
}

TEST(TopKIndexTest, TotalsCentroidAndRuns) {
  const TopKIndex index = Build({MakeEntry({1}, {{10, 0, 4}, {11, 2, 3}})});
  const IndexView view = index.view();
  EXPECT_EQ(view.total_detections(), 7);
  ASSERT_EQ(view.runs(0).size(), 2u);
  EXPECT_EQ(view.runs(0)[1].object, 11);
  const video::Detection centroid = view.centroid(0);
  EXPECT_EQ(centroid.object_id, 10);
  EXPECT_EQ(centroid.true_class, 1);
  EXPECT_FLOAT_EQ(centroid.bbox.h, 4.0f);
  EXPECT_TRUE(centroid.first_observation);
  EXPECT_FALSE(centroid.pixel_diff_suppressed);
  EXPECT_TRUE(centroid.appearance.empty());  // The image keeps no appearance.
}

TEST(TopKIndexTest, EmptyIndexIsAValidImage) {
  const TopKIndex empty;
  EXPECT_EQ(empty.num_clusters(), 0u);
  EXPECT_TRUE(empty.view().postings(1).empty());
  EXPECT_TRUE(IndexView::Open(empty.image()).ok());
}

TEST(TopKIndexTest, CarriedRecordsReproduceTheImage) {
  const TopKIndex prev =
      Build({MakeEntry({1, 2}, {{10, 0, 5}}), MakeEntry({3}, {{11, 6, 9}, {12, 20, 22}})});
  IndexBuilder carried;
  carried.AddFrom(prev.view(), 0);
  carried.AddFrom(prev.view(), 1);
  EXPECT_EQ(carried.Finish().image(), prev.image());

  // Mixed: carry cluster 1 first, then add a fresh entry; ids stay dense.
  IndexBuilder mixed;
  mixed.AddFrom(prev.view(), 1);
  mixed.Add(MakeEntry({3, 4}, {{13, 30, 31}}));
  const TopKIndex next = mixed.Finish();
  EXPECT_EQ(Ids(next.view().postings(3)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(next.view().runs(0)[1].first_frame, 20);
  EXPECT_EQ(next.view().total_detections(), 4 + 3 + 2);
}

TEST(TopKIndexTest, FromImageValidates) {
  const TopKIndex index = Build({MakeEntry({1, 2}, {{10, 0, 5}})});
  auto copy = TopKIndex::FromImage(index.image());
  ASSERT_TRUE(copy.ok()) << copy.error().message;
  EXPECT_EQ(copy->image(), index.image());

  std::string torn = index.image();
  torn[torn.size() / 2] ^= 0x10;
  auto rejected = TopKIndex::FromImage(torn);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, common::ErrorCode::kDataLoss);
}

TEST(TopKIndexTest, OtherVersionIsAFailedPreconditionNamingBoth) {
  std::string image = Build({MakeEntry({1}, {{10, 0, 5}})}).image();
  const uint32_t version = kImageVersion + 1;
  std::memcpy(image.data() + offsetof(ImageHeader, version), &version, sizeof(version));
  auto opened = IndexView::Open(image);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, common::ErrorCode::kFailedPrecondition);
  EXPECT_NE(opened.error().message.find("version " + std::to_string(version)),
            std::string::npos);
  EXPECT_NE(opened.error().message.find("version " + std::to_string(kImageVersion)),
            std::string::npos);
}

}  // namespace
}  // namespace focus::index
