// The top-K ingest index (§3, §4.1) and its one byte representation, the image.
//
// Maps object class -> clusters whose ingest-time top-K classification included that
// class, and cluster -> [centroid object, member frame runs]. This is the sole output
// of ingest-time processing and the sole input of query-time processing:
//
//   object class -> <cluster ID>
//   cluster ID   -> [centroid object, <objects> in cluster, <frame IDs> of objects]
//
// Each cluster stores its indexed classes *ranked* by aggregated ingest-CNN
// confidence, which is what enables the dynamic query-time Kx refinement of §5
// (filtering with a smaller Kx <= K uses a prefix of the ranked list).
//
// The index is one flat, structure-of-arrays image with 64 B aligned sections
// whose offsets are relative to the image start, so the same bytes work in a
// heap buffer (TopKIndex), a shared-memory region (src/shm/epoch_plane.h) and a
// file (src/storage/index_file.h) without translation:
//
//   [ ImageHeader      ]  magic, version, CRC, section offsets and counts
//   [ ClusterRecord[]  ]  one per cluster; the cluster id is the record index
//   [ MemberRun[]      ]  member frame runs, sliced by each record
//   [ RankedClass[]    ]  indexed classes with their best rank, sliced by record
//   [ PostingList[]    ]  class directory, ascending class id
//   [ Posting[]        ]  per class: (cluster id, rank), ascending cluster id
//
// A record carries exactly the centroid identity fields the GT-CNN reads (frame,
// object id, bbox, flags, true class) — never the appearance vector. Every
// class entry carries its rank; rank 0 means "unranked" and admits every Kx.
// IndexBuilder writes the image and builds the postings once, at assembly; a
// class a record lists twice is posted once, with its first occurrence's rank.
// The posting lists partition the posting section in directory order.
//
// IndexView is the non-owning reader every query path plans and resolves over
// (core::QueryEngine). IndexView::Open is the one decoder for bytes from outside
// the process: it returns a typed error or a view whose every offset, slice and
// posting id is in bounds.
#ifndef FOCUS_SRC_INDEX_TOPK_INDEX_H_
#define FOCUS_SRC_INDEX_TOPK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/cluster/incremental_clusterer.h"
#include "src/common/result.h"
#include "src/common/time_types.h"
#include "src/video/detection.h"

namespace focus::index {

inline constexpr uint64_t kImageMagic = 0x464F435553495831ULL;  // "FOCUSIX1"
inline constexpr uint32_t kImageVersion = 1;
inline constexpr size_t kImageAlign = 64;

struct ImageHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  // CRC32 of every image byte from |image_bytes| on (kImageCrcBegin).
  uint32_t crc = 0;
  uint64_t image_bytes = 0;
  int64_t total_detections = 0;  // Sum of the records' sizes.
  uint64_t cluster_count = 0;
  uint64_t run_count = 0;
  uint64_t class_count = 0;
  uint64_t list_count = 0;
  uint64_t posting_count = 0;
  uint64_t off_records = 0;
  uint64_t off_runs = 0;
  uint64_t off_classes = 0;
  uint64_t off_lists = 0;
  uint64_t off_postings = 0;
};
inline constexpr size_t kImageCrcBegin = offsetof(ImageHeader, image_bytes);

struct ClusterRecord {
  int64_t size = 0;  // Member detections.
  // Centroid identity: everything cnn::Cnn::Classify reads.
  int64_t frame = 0;
  int64_t object_id = 0;
  float bbox_x = 0.0f;
  float bbox_y = 0.0f;
  float bbox_w = 0.0f;
  float bbox_h = 0.0f;
  uint32_t flags = 0;  // Bit 0: pixel_diff_suppressed; bit 1: first_observation.
  int32_t true_class = 0;
  uint32_t runs_begin = 0;  // Into the run section.
  uint32_t runs_count = 0;
  uint32_t classes_begin = 0;  // Into the class section.
  uint32_t classes_count = 0;
};
static_assert(sizeof(ClusterRecord) == 64);

// One indexed class of a record: the best (smallest, 1-based) rank it reached
// in any member's ingest top-K, or 0 when the cluster carries no ranks.
struct RankedClass {
  common::ClassId cls = 0;
  int32_t rank = 0;
};

struct PostingList {
  common::ClassId cls = 0;
  uint32_t count = 0;
  uint64_t begin = 0;  // Into the posting section.
};

struct Posting {
  uint32_t cluster = 0;
  int32_t rank = 0;  // The class's rank in that cluster (RankedClass::rank).
};

static_assert(sizeof(cluster::MemberRun) == 24);
static_assert(sizeof(RankedClass) == 8 && sizeof(PostingList) == 16 && sizeof(Posting) == 8);

class IndexView {
 public:
  // The empty index.
  IndexView() = default;

  // Validates |bytes| as an image: magic, version (another version is
  // kFailedPrecondition naming both), length, CRC, every section against the
  // length, every record slice against its section, the posting lists as a
  // partition of the posting section, and every posting id against the
  // cluster count. Each posting is checked once. |bytes| must be 8 B aligned
  // and outlive the view.
  static common::Result<IndexView> Open(std::span<const char> bytes);

  uint64_t num_clusters() const { return header_.cluster_count; }
  int64_t total_detections() const { return header_.total_detections; }
  uint32_t crc() const { return header_.crc; }
  std::span<const char> bytes() const { return {base_, header_.image_bytes}; }

  const ClusterRecord& record(uint64_t id) const { return records_[id]; }
  std::span<const cluster::MemberRun> runs(uint64_t id) const {
    return {runs_ + records_[id].runs_begin, records_[id].runs_count};
  }
  std::span<const RankedClass> classes(uint64_t id) const {
    return {classes_ + records_[id].classes_begin, records_[id].classes_count};
  }
  // The centroid detection of cluster |id| as the GT-CNN sees it (no appearance).
  video::Detection centroid(uint64_t id) const;

  // Clusters indexed under |cls|, ascending id; empty when none.
  std::span<const Posting> postings(common::ClassId cls) const;
  // The class directory, ascending class id.
  std::span<const PostingList> lists() const { return {lists_, header_.list_count}; }

 private:
  friend class TopKIndex;
  // Over image bytes already known valid (assembled in this process or opened).
  explicit IndexView(const char* base);

  const char* base_ = nullptr;
  ImageHeader header_;
  const ClusterRecord* records_ = nullptr;
  const cluster::MemberRun* runs_ = nullptr;
  const RankedClass* classes_ = nullptr;
  const PostingList* lists_ = nullptr;
  const Posting* postings_ = nullptr;
};

// One cluster as IndexBuilder takes it.
struct ClusterEntry {
  // The centroid object: the detection the GT-CNN classifies at query time.
  video::Detection representative;
  // Member frame runs (per object).
  std::vector<cluster::MemberRun> members;
  // Indexed classes: the union of the members' ingest-CNN top-K classes, ordered by
  // |topk_ranks| (a cluster is indexed under X when any member's top-K contained X).
  std::vector<common::ClassId> topk_classes;
  // Parallel to |topk_classes|: the best (smallest, 1-based) rank the class achieved
  // in any member's output. Enables the §5 dynamic-Kx filter: the cluster matches X
  // within Kx iff best_rank(X) <= Kx. A length other than |topk_classes|' leaves
  // the cluster unranked (every Kx admits it).
  std::vector<int32_t> topk_ranks;
  int64_t size = 0;  // Member detections.
};

// Owns one image.
class TopKIndex {
 public:
  // The empty index.
  TopKIndex();

  // Validates |image| (IndexView::Open) and takes ownership of it.
  static common::Result<TopKIndex> FromImage(std::string image);

  IndexView view() const { return IndexView(image_.data()); }
  const std::string& image() const { return image_; }
  uint64_t num_clusters() const { return view().num_clusters(); }

 private:
  friend class IndexBuilder;
  explicit TopKIndex(std::string image) : image_(std::move(image)) {}

  std::string image_;
};

// Assembles an image. Cluster ids are dense in Add/AddFrom order.
class IndexBuilder {
 public:
  // Appends |entry|. A class it lists twice is posted at its first occurrence.
  void Add(const ClusterEntry& entry);

  // Delta build (windowed streaming finalize, src/core/live_snapshot.h):
  // carries cluster |id| of a previous image forward unchanged — its record
  // and its run and class slices are copied, not rebuilt.
  void AddFrom(const IndexView& prev, uint64_t id);

  // Lays out the sections, builds the class postings, stamps the CRC.
  TopKIndex Finish() const;

 private:
  std::vector<ClusterRecord> records_;
  std::vector<cluster::MemberRun> runs_;
  std::vector<RankedClass> classes_;
  int64_t total_detections_ = 0;
};

}  // namespace focus::index

#endif  // FOCUS_SRC_INDEX_TOPK_INDEX_H_
