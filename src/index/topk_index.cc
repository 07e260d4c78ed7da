#include "src/index/topk_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "src/common/logging.h"
#include "src/storage/serializer.h"

namespace focus::index {

namespace {

common::Error Corrupt(const std::string& what) {
  return common::DataLoss("index image: " + what);
}

// Whether |count| elements of |elem| bytes at |offset| fit in |size| bytes
// (64 B aligned, past the header, no overflow).
bool SectionFits(uint64_t offset, uint64_t count, size_t elem, uint64_t size) {
  return offset % kImageAlign == 0 && offset >= sizeof(ImageHeader) && offset <= size &&
         count <= (size - offset) / elem;
}

uint64_t AlignUp(uint64_t n) { return (n + kImageAlign - 1) & ~uint64_t{kImageAlign - 1}; }

uint32_t Narrow(size_t n) {
  FOCUS_CHECK(n <= std::numeric_limits<uint32_t>::max());
  return static_cast<uint32_t>(n);
}

template <typename T>
void CopySection(std::string& image, uint64_t offset, const std::vector<T>& items) {
  if (!items.empty()) {
    std::memcpy(image.data() + offset, items.data(), items.size() * sizeof(T));
  }
}

}  // namespace

IndexView::IndexView(const char* base) : base_(base) {
  std::memcpy(&header_, base, sizeof(header_));
  records_ = reinterpret_cast<const ClusterRecord*>(base + header_.off_records);
  runs_ = reinterpret_cast<const cluster::MemberRun*>(base + header_.off_runs);
  classes_ = reinterpret_cast<const RankedClass*>(base + header_.off_classes);
  lists_ = reinterpret_cast<const PostingList*>(base + header_.off_lists);
  postings_ = reinterpret_cast<const Posting*>(base + header_.off_postings);
}

common::Result<IndexView> IndexView::Open(std::span<const char> bytes) {
  if (bytes.size() < sizeof(ImageHeader)) {
    return Corrupt("truncated (" + std::to_string(bytes.size()) + " bytes, header needs " +
                   std::to_string(sizeof(ImageHeader)) + ")");
  }
  if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(uint64_t) != 0) {
    return common::InvalidArgument("index image: buffer is not 8 B aligned");
  }
  ImageHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kImageMagic) {
    return Corrupt("bad magic (not an index image)");
  }
  if (header.version != kImageVersion) {
    return common::FailedPrecondition("index image: version " + std::to_string(header.version) +
                                      ", this build reads version " +
                                      std::to_string(kImageVersion));
  }
  if (header.image_bytes != bytes.size()) {
    return Corrupt("length " + std::to_string(bytes.size()) + " != recorded " +
                   std::to_string(header.image_bytes));
  }
  const uint32_t crc = storage::Crc32(
      std::string_view(bytes.data() + kImageCrcBegin, bytes.size() - kImageCrcBegin));
  if (crc != header.crc) {
    return Corrupt("CRC mismatch (corrupted or torn)");
  }
  const uint64_t size = bytes.size();
  if (!SectionFits(header.off_records, header.cluster_count, sizeof(ClusterRecord), size) ||
      !SectionFits(header.off_runs, header.run_count, sizeof(cluster::MemberRun), size) ||
      !SectionFits(header.off_classes, header.class_count, sizeof(RankedClass), size) ||
      !SectionFits(header.off_lists, header.list_count, sizeof(PostingList), size) ||
      !SectionFits(header.off_postings, header.posting_count, sizeof(Posting), size)) {
    return Corrupt("a section lies outside the image");
  }
  const IndexView view(bytes.data());
  for (uint64_t i = 0; i < header.cluster_count; ++i) {
    const ClusterRecord& r = view.records_[i];
    if (uint64_t{r.runs_begin} + r.runs_count > header.run_count ||
        uint64_t{r.classes_begin} + r.classes_count > header.class_count) {
      return Corrupt("record " + std::to_string(i) + " slices past its section");
    }
  }
  // The lists must partition the posting section in directory order, so each
  // posting is checked once and no two classes share one.
  uint64_t next = 0;
  for (uint64_t l = 0; l < header.list_count; ++l) {
    const PostingList& list = view.lists_[l];
    if (l > 0 && list.cls <= view.lists_[l - 1].cls) {
      return Corrupt("class directory is not strictly ascending at entry " + std::to_string(l));
    }
    if (list.begin != next || list.count > header.posting_count - next) {
      return Corrupt("posting list of class " + std::to_string(list.cls) +
                     " does not continue the posting section at " + std::to_string(next));
    }
    for (uint64_t p = list.begin; p < list.begin + list.count; ++p) {
      if (view.postings_[p].cluster >= header.cluster_count) {
        return Corrupt("posting of class " + std::to_string(list.cls) + " names cluster " +
                       std::to_string(view.postings_[p].cluster) + " of " +
                       std::to_string(header.cluster_count));
      }
    }
    next += list.count;
  }
  if (next != header.posting_count) {
    return Corrupt("posting lists cover " + std::to_string(next) + " of " +
                   std::to_string(header.posting_count) + " postings");
  }
  return view;
}

video::Detection IndexView::centroid(uint64_t id) const {
  const ClusterRecord& r = records_[id];
  video::Detection detection;
  detection.frame = r.frame;
  detection.object_id = r.object_id;
  detection.bbox = video::BBox{r.bbox_x, r.bbox_y, r.bbox_w, r.bbox_h};
  detection.pixel_diff_suppressed = (r.flags & 1u) != 0;
  detection.first_observation = (r.flags & 2u) != 0;
  detection.true_class = r.true_class;
  return detection;
}

std::span<const Posting> IndexView::postings(common::ClassId cls) const {
  const PostingList* end = lists_ + header_.list_count;
  const PostingList* it = std::lower_bound(
      lists_, end, cls, [](const PostingList& list, common::ClassId c) { return list.cls < c; });
  if (it == end || it->cls != cls) {
    return {};
  }
  return {postings_ + it->begin, it->count};
}

TopKIndex::TopKIndex() : TopKIndex(IndexBuilder().Finish()) {}

common::Result<TopKIndex> TopKIndex::FromImage(std::string image) {
  auto view = IndexView::Open(image);
  if (!view.ok()) {
    return view.error();
  }
  return TopKIndex(std::move(image));
}

void IndexBuilder::Add(const ClusterEntry& entry) {
  const video::Detection& rep = entry.representative;
  ClusterRecord& record = records_.emplace_back();
  record.size = entry.size;
  record.frame = rep.frame;
  record.object_id = rep.object_id;
  record.bbox_x = rep.bbox.x;
  record.bbox_y = rep.bbox.y;
  record.bbox_w = rep.bbox.w;
  record.bbox_h = rep.bbox.h;
  record.flags = (rep.pixel_diff_suppressed ? 1u : 0u) | (rep.first_observation ? 2u : 0u);
  record.true_class = rep.true_class;
  record.runs_begin = Narrow(runs_.size());
  record.runs_count = Narrow(entry.members.size());
  runs_.insert(runs_.end(), entry.members.begin(), entry.members.end());
  record.classes_begin = Narrow(classes_.size());
  record.classes_count = Narrow(entry.topk_classes.size());
  const bool ranked = entry.topk_ranks.size() == entry.topk_classes.size();
  for (size_t i = 0; i < entry.topk_classes.size(); ++i) {
    classes_.push_back(RankedClass{entry.topk_classes[i], ranked ? entry.topk_ranks[i] : 0});
  }
  total_detections_ += entry.size;
}

void IndexBuilder::AddFrom(const IndexView& prev, uint64_t id) {
  ClusterRecord record = prev.record(id);
  const std::span<const cluster::MemberRun> runs = prev.runs(id);
  const std::span<const RankedClass> classes = prev.classes(id);
  record.runs_begin = Narrow(runs_.size());
  record.classes_begin = Narrow(classes_.size());
  runs_.insert(runs_.end(), runs.begin(), runs.end());
  classes_.insert(classes_.end(), classes.begin(), classes.end());
  records_.push_back(record);
  total_detections_ += record.size;
}

TopKIndex IndexBuilder::Finish() const {
  // Postings: (class, class-entry index) keys sorted once. Class entries are
  // appended in cluster id order, so within a class the ids come out ascending
  // and a cluster listing the class twice is adjacent to itself: its first
  // occurrence is posted, later ones are skipped.
  std::vector<uint64_t> keys;
  keys.reserve(classes_.size());
  std::vector<uint32_t> owner(classes_.size());
  for (size_t id = 0; id < records_.size(); ++id) {
    const ClusterRecord& r = records_[id];
    for (uint32_t c = r.classes_begin; c < r.classes_begin + r.classes_count; ++c) {
      owner[c] = static_cast<uint32_t>(id);
      const uint32_t biased = static_cast<uint32_t>(classes_[c].cls) ^ 0x80000000u;
      keys.push_back((uint64_t{biased} << 32) | c);
    }
  }
  std::sort(keys.begin(), keys.end());
  std::vector<PostingList> lists;
  std::vector<Posting> postings;
  postings.reserve(keys.size());
  for (const uint64_t key : keys) {
    const RankedClass& entry = classes_[static_cast<uint32_t>(key)];
    const uint32_t id = owner[static_cast<uint32_t>(key)];
    if (lists.empty() || lists.back().cls != entry.cls) {
      lists.push_back(PostingList{entry.cls, 0, postings.size()});
    } else if (postings.back().cluster == id) {
      continue;
    }
    ++lists.back().count;
    postings.push_back(Posting{id, entry.rank});
  }

  ImageHeader header;
  header.magic = kImageMagic;
  header.version = kImageVersion;
  header.total_detections = total_detections_;
  header.cluster_count = records_.size();
  header.run_count = runs_.size();
  header.class_count = classes_.size();
  header.list_count = lists.size();
  header.posting_count = postings.size();
  header.off_records = AlignUp(sizeof(ImageHeader));
  header.off_runs = AlignUp(header.off_records + records_.size() * sizeof(ClusterRecord));
  header.off_classes = AlignUp(header.off_runs + runs_.size() * sizeof(cluster::MemberRun));
  header.off_lists = AlignUp(header.off_classes + classes_.size() * sizeof(RankedClass));
  header.off_postings = AlignUp(header.off_lists + lists.size() * sizeof(PostingList));
  header.image_bytes = AlignUp(header.off_postings + postings.size() * sizeof(Posting));

  // Zero-filled, so alignment padding is deterministic and the CRC is a
  // function of the index alone.
  std::string image(header.image_bytes, '\0');
  CopySection(image, header.off_records, records_);
  CopySection(image, header.off_runs, runs_);
  CopySection(image, header.off_classes, classes_);
  CopySection(image, header.off_lists, lists);
  CopySection(image, header.off_postings, postings);
  std::memcpy(image.data(), &header, sizeof(header));
  header.crc = storage::Crc32(std::string_view(image).substr(kImageCrcBegin));
  std::memcpy(image.data(), &header, sizeof(header));
  return TopKIndex(std::move(image));
}

}  // namespace focus::index
