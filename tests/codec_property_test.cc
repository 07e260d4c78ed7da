// Property tests for the storage formats, parameterized over seeds — the
// seeded mutation harness (ctest label `fuzz`) for the index image decoder,
// index::IndexView::Open, the index file around it, the clustering
// checkpoint meta (sharded.meta, section near the end of this file), the
// server's protocol decoder (server::ParseRequest) and the worker reply
// decoder (server::DecodeWorkerReply; the last two sections):
//   * random structured indexes round-trip bit-exactly through the image and
//     the index file, and re-assemble to the same bytes;
//   * random bit flips, truncations and garbage are always rejected;
//   * structural corruptions with the CRC recomputed are rejected by the
//     structural checks themselves, with a typed error;
//   * random mutations with the CRC recomputed yield a typed error or a view
//     whose every slice and posting is in bounds (walked under ASan);
//   * serializer primitives round-trip under randomized interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/cluster/cluster_codec.h"
#include "src/cluster/sharded_clusterer.h"
#include "src/cnn/model_zoo.h"
#include "src/common/feature_vector.h"
#include "src/common/rng.h"
#include "src/core/ingest_pipeline.h"
#include "src/index/topk_index.h"
#include "src/server/protocol.h"
#include "src/storage/index_file.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"
#include "src/video/class_catalog.h"
#include "src/video/stream_generator.h"

namespace focus::storage {
namespace {

std::vector<index::ClusterEntry> RandomEntries(uint64_t seed) {
  common::Pcg32 rng(seed);
  std::vector<index::ClusterEntry> entries;
  const int clusters = 1 + static_cast<int>(rng.NextBounded(40));
  for (int c = 0; c < clusters; ++c) {
    index::ClusterEntry entry;
    entry.size = static_cast<int64_t>(rng.NextBounded(1000));
    entry.representative.frame = static_cast<int64_t>(rng.NextBounded(1 << 20));
    entry.representative.object_id = static_cast<int64_t>(rng.NextBounded(1 << 16));
    entry.representative.true_class = static_cast<common::ClassId>(rng.NextBounded(1001));
    entry.representative.bbox = {static_cast<float>(rng.NextDouble() * 160),
                                 static_cast<float>(rng.NextDouble() * 120),
                                 static_cast<float>(rng.NextDouble() * 30 + 1),
                                 static_cast<float>(rng.NextDouble() * 30 + 1)};
    entry.representative.pixel_diff_suppressed = rng.NextBool(0.3);
    entry.representative.first_observation = rng.NextBool(0.1);
    const int members = 1 + static_cast<int>(rng.NextBounded(8));
    common::FrameIndex frame = entry.representative.frame;
    for (int m = 0; m < members; ++m) {
      cluster::MemberRun run;
      run.object = static_cast<int64_t>(rng.NextBounded(1 << 16));
      run.first_frame = frame;
      run.last_frame = frame + static_cast<int64_t>(rng.NextBounded(300));
      frame = run.last_frame + 1 + static_cast<int64_t>(rng.NextBounded(100));
      entry.members.push_back(run);
    }
    const int topk = static_cast<int>(rng.NextBounded(12));
    for (int t = 0; t < topk; ++t) {
      entry.topk_classes.push_back(static_cast<common::ClassId>(rng.NextBounded(1001)));
      entry.topk_ranks.push_back(static_cast<int32_t>(t) + 1);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

index::TopKIndex RandomIndex(uint64_t seed) {
  index::IndexBuilder builder;
  for (const index::ClusterEntry& entry : RandomEntries(seed)) {
    builder.Add(entry);
  }
  return builder.Finish();
}

IndexFileMeta RandomMeta(uint64_t seed) {
  common::Pcg32 rng(seed ^ 0x5EED);
  IndexFileMeta m;
  m.stream_name = "stream_" + std::to_string(rng.NextBounded(100));
  m.k = 1 + static_cast<int32_t>(rng.NextBounded(200));
  m.cluster_threshold = rng.NextDouble();
  m.world_seed = rng.Next();
  m.fps = rng.NextBool(0.5) ? 30.0 : 1.0;
  m.model.name = "model_" + std::to_string(rng.NextBounded(100));
  m.model.layers = 6 + static_cast<int>(rng.NextBounded(30));
  m.model.input_px = 56 << rng.NextBounded(3);
  if (rng.NextBool(0.5)) {
    for (int i = 0; i < 10; ++i) {
      m.model.classes.push_back(static_cast<common::ClassId>(rng.NextBounded(1000)));
    }
    m.model.has_other_class = true;
  }
  m.model.training_variability = rng.NextDouble();
  m.model.weights_seed = rng.Next();
  return m;
}

std::string TempPath(uint64_t seed, const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("focus_codec_test_" + std::to_string(::getpid()) + "_" + std::to_string(seed) + "_" +
           tag + ".idx"))
      .string();
}

// Reads every byte a query could reach through |view| — each record, its run
// and class slices, its centroid, every posting list and the record each
// posting names — so the sanitizers check the decoder's bounds claims.
int64_t WalkView(const index::IndexView& view) {
  int64_t sum = view.total_detections();
  for (uint64_t id = 0; id < view.num_clusters(); ++id) {
    sum += view.record(id).size + view.centroid(id).object_id;
    for (const cluster::MemberRun& run : view.runs(id)) {
      sum += run.last_frame - run.first_frame;
    }
    for (const index::RankedClass& c : view.classes(id)) {
      sum += c.cls + c.rank;
    }
  }
  for (const index::PostingList& list : view.lists()) {
    for (const index::Posting& p : view.postings(list.cls)) {
      sum += p.rank + view.record(p.cluster).frame;
    }
  }
  return sum;
}

// Re-stamps the image CRC after a mutation, so only the structural checks can
// object to it.
void RestampCrc(std::string& image) {
  if (image.size() < sizeof(index::ImageHeader)) {
    return;
  }
  const uint32_t crc =
      Crc32(std::string_view(image).substr(index::kImageCrcBegin));
  std::memcpy(image.data() + offsetof(index::ImageHeader, crc), &crc, sizeof(crc));
}

index::ImageHeader HeaderOf(const std::string& image) {
  index::ImageHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  return header;
}

template <typename T>
void Poke(std::string& image, uint64_t offset, const T& value) {
  std::memcpy(image.data() + offset, &value, sizeof(value));
}

class CodecRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecRoundTripProperty, ImageAndFileRoundTripIsIdentity) {
  const uint64_t seed = GetParam();
  const std::vector<index::ClusterEntry> entries = RandomEntries(seed);
  const index::TopKIndex original = RandomIndex(seed);
  auto opened = index::IndexView::Open(original.image());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const index::IndexView& view = *opened;
  ASSERT_EQ(view.num_clusters(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const index::ClusterEntry& e = entries[i];
    EXPECT_EQ(view.record(i).size, e.size);
    const video::Detection centroid = view.centroid(i);
    EXPECT_EQ(centroid.frame, e.representative.frame);
    EXPECT_EQ(centroid.object_id, e.representative.object_id);
    EXPECT_EQ(centroid.true_class, e.representative.true_class);
    EXPECT_EQ(centroid.bbox.w, e.representative.bbox.w);
    EXPECT_EQ(centroid.pixel_diff_suppressed, e.representative.pixel_diff_suppressed);
    EXPECT_EQ(centroid.first_observation, e.representative.first_observation);
    ASSERT_EQ(view.runs(i).size(), e.members.size());
    for (size_t m = 0; m < e.members.size(); ++m) {
      EXPECT_EQ(view.runs(i)[m].object, e.members[m].object);
      EXPECT_EQ(view.runs(i)[m].first_frame, e.members[m].first_frame);
      EXPECT_EQ(view.runs(i)[m].last_frame, e.members[m].last_frame);
    }
    ASSERT_EQ(view.classes(i).size(), e.topk_classes.size());
    for (size_t c = 0; c < e.topk_classes.size(); ++c) {
      EXPECT_EQ(view.classes(i)[c].cls, e.topk_classes[c]);
      EXPECT_EQ(view.classes(i)[c].rank, e.topk_ranks[c]);
    }
  }
  WalkView(view);

  // Re-assembling every record from the view reproduces the exact bytes
  // (canonical format).
  index::IndexBuilder rebuilt;
  for (uint64_t id = 0; id < view.num_clusters(); ++id) {
    rebuilt.AddFrom(view, id);
  }
  EXPECT_EQ(rebuilt.Finish().image(), original.image());

  // The file carries the same image plus the metadata.
  const IndexFileMeta meta = RandomMeta(seed);
  const std::string path = TempPath(seed, "roundtrip");
  ASSERT_TRUE(WriteIndexFile(path, meta, original).ok());
  auto loaded = ReadIndexFile(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->meta.stream_name, meta.stream_name);
  EXPECT_EQ(loaded->meta.k, meta.k);
  EXPECT_EQ(loaded->meta.world_seed, meta.world_seed);
  EXPECT_EQ(loaded->meta.model.classes, meta.model.classes);
  EXPECT_EQ(loaded->index.image(), original.image());
}

TEST_P(CodecRoundTripProperty, SingleBitFlipIsAlwaysDetected) {
  const uint64_t seed = GetParam();
  const std::string image = RandomIndex(seed).image();
  common::Pcg32 rng(seed ^ 0xC0DE);
  for (int trial = 0; trial < 32; ++trial) {
    std::string mutated = image;
    const size_t pos = static_cast<size_t>(rng.NextBounded(static_cast<uint32_t>(image.size())));
    const uint8_t bit = static_cast<uint8_t>(1u << rng.NextBounded(8));
    mutated[pos] = static_cast<char>(mutated[pos] ^ bit);
    EXPECT_FALSE(index::IndexView::Open(mutated).ok()) << "flip at byte " << pos;
  }
}

TEST_P(CodecRoundTripProperty, RandomTruncationIsAlwaysDetected) {
  const uint64_t seed = GetParam();
  const std::string image = RandomIndex(seed).image();
  common::Pcg32 rng(seed ^ 0x7A11);
  for (int trial = 0; trial < 16; ++trial) {
    const size_t keep = static_cast<size_t>(rng.NextBounded(static_cast<uint32_t>(image.size())));
    EXPECT_FALSE(index::IndexView::Open(image.substr(0, keep)).ok()) << "kept " << keep;
  }
}

TEST_P(CodecRoundTripProperty, RandomGarbageNeverOpens) {
  common::Pcg32 rng(GetParam() ^ 0x6A5B);
  for (int trial = 0; trial < 8; ++trial) {
    std::string garbage(rng.NextBounded(4096), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.NextBounded(256));
    }
    EXPECT_FALSE(index::IndexView::Open(garbage).ok());
    // Garbage that starts like an image still fails past the magic.
    if (garbage.size() >= sizeof(index::ImageHeader)) {
      Poke(garbage, 0, index::kImageMagic);
      Poke(garbage, offsetof(index::ImageHeader, version), index::kImageVersion);
      Poke(garbage, offsetof(index::ImageHeader, image_bytes), uint64_t{garbage.size()});
      RestampCrc(garbage);
      auto opened = index::IndexView::Open(garbage);
      if (opened.ok()) {
        WalkView(*opened);
      }
    }
  }
}

TEST_P(CodecRoundTripProperty, StructuralCorruptionIsRejectedPastTheCrc) {
  const uint64_t seed = GetParam();
  const std::string image = RandomIndex(seed).image();
  const index::ImageHeader h = HeaderOf(image);
  ASSERT_GT(h.cluster_count, 0u);
  ASSERT_GT(h.run_count, 0u);
  struct Mutation {
    const char* name;
    std::function<void(std::string&)> apply;
  };
  std::vector<Mutation> mutations = {
      {"section offset past the end",
       [&](std::string& m) { Poke(m, offsetof(index::ImageHeader, off_runs), h.image_bytes + 64); }},
      {"misaligned section",
       [&](std::string& m) { Poke(m, offsetof(index::ImageHeader, off_classes), h.off_classes + 8); }},
      {"section count overflows",
       [&](std::string& m) { Poke(m, offsetof(index::ImageHeader, run_count), ~uint64_t{0} / 8); }},
      {"cluster count past the records section",
       [&](std::string& m) {
         Poke(m, offsetof(index::ImageHeader, cluster_count), h.image_bytes / 64 + 1);
       }},
      {"length disagrees with the header",
       [&](std::string& m) { Poke(m, offsetof(index::ImageHeader, image_bytes), h.image_bytes - 64); }},
      {"record runs slice past its section",
       [&](std::string& m) {
         Poke(m, h.off_records + offsetof(index::ClusterRecord, runs_count),
              static_cast<uint32_t>(h.run_count + 1));
       }},
      {"record class slice past its section",
       [&](std::string& m) {
         Poke(m, h.off_records + offsetof(index::ClusterRecord, classes_begin),
              static_cast<uint32_t>(h.class_count + 1));
         Poke(m, h.off_records + offsetof(index::ClusterRecord, classes_count), uint32_t{1});
       }},
  };
  if (h.list_count > 0) {
    mutations.push_back(
        {"posting list past the posting section",
         [&](std::string& m) {
           Poke(m, h.off_lists + offsetof(index::PostingList, begin), h.posting_count);
           Poke(m, h.off_lists + offsetof(index::PostingList, count), uint32_t{1});
         }});
    mutations.push_back(
        {"posting lists leave postings uncovered",
         [&](std::string& m) {
           const uint64_t last = h.off_lists + (h.list_count - 1) * sizeof(index::PostingList);
           index::PostingList list;
           std::memcpy(&list, m.data() + last, sizeof(list));
           Poke(m, last + offsetof(index::PostingList, count), list.count - 1);
         }});
    mutations.push_back(
        {"posting names a cluster past the count",
         [&](std::string& m) {
           Poke(m, h.off_postings + offsetof(index::Posting, cluster),
                static_cast<uint32_t>(h.cluster_count));
         }});
  }
  if (h.list_count > 1) {
    mutations.push_back({"class directory out of order", [&](std::string& m) {
                                   index::PostingList first;
                                   std::memcpy(&first, m.data() + h.off_lists, sizeof(first));
                                   Poke(m, h.off_lists + sizeof(index::PostingList) +
                                               offsetof(index::PostingList, cls),
                                        first.cls);
                                 }});
    // Every list spanning the whole posting section: in bounds, but shared
    // postings, and a walk of lists x postings if it were accepted.
    mutations.push_back({"posting lists overlap", [&](std::string& m) {
                           for (uint64_t l = 0; l < h.list_count; ++l) {
                             const uint64_t at = h.off_lists + l * sizeof(index::PostingList);
                             Poke(m, at + offsetof(index::PostingList, begin), uint64_t{0});
                             Poke(m, at + offsetof(index::PostingList, count),
                                  static_cast<uint32_t>(h.posting_count));
                           }
                         }});
  }
  for (const Mutation& mutation : mutations) {
    std::string mutated = image;
    mutation.apply(mutated);
    RestampCrc(mutated);
    auto opened = index::IndexView::Open(mutated);
    ASSERT_FALSE(opened.ok()) << mutation.name;
    EXPECT_EQ(opened.error().code, common::ErrorCode::kDataLoss) << mutation.name;
    EXPECT_EQ(opened.error().message.find("CRC"), std::string::npos) << mutation.name;
  }
}

TEST_P(CodecRoundTripProperty, CrcRestampedMutationsYieldAnErrorOrASafeView) {
  const uint64_t seed = GetParam();
  const std::string image = RandomIndex(seed).image();
  common::Pcg32 rng(seed ^ 0xF022);
  int opened_count = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = image;
    switch (rng.NextBounded(3)) {
      case 0: {  // Bit flips past the CRC field.
        const int flips = 1 + static_cast<int>(rng.NextBounded(4));
        for (int f = 0; f < flips; ++f) {
          const size_t pos = index::kImageCrcBegin +
                             rng.NextBounded(static_cast<uint32_t>(image.size() -
                                                                   index::kImageCrcBegin));
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.NextBounded(8)));
        }
        break;
      }
      case 1: {  // Swap two aligned 4-byte fields.
        const uint32_t words = static_cast<uint32_t>((image.size() - index::kImageCrcBegin) / 4);
        const size_t a = index::kImageCrcBegin + 4 * rng.NextBounded(words);
        const size_t b = index::kImageCrcBegin + 4 * rng.NextBounded(words);
        char tmp[4];
        std::memcpy(tmp, mutated.data() + a, 4);
        std::memcpy(mutated.data() + a, mutated.data() + b, 4);
        std::memcpy(mutated.data() + b, tmp, 4);
        break;
      }
      default: {  // Splice a random length into a header or record field.
        const uint32_t span = static_cast<uint32_t>(
            std::min<size_t>(image.size(), 4 * index::kImageAlign) - index::kImageCrcBegin);
        const size_t pos = index::kImageCrcBegin + 4 * rng.NextBounded(span / 4);
        Poke(mutated, pos, static_cast<uint32_t>(rng.NextBounded(1u << rng.NextBounded(32))));
        break;
      }
    }
    RestampCrc(mutated);
    auto opened = index::IndexView::Open(mutated);
    if (opened.ok()) {
      ++opened_count;
      WalkView(*opened);
    } else {
      EXPECT_FALSE(opened.error().message.empty());
    }
  }
  // Most payload bytes (frames, sizes, bbox floats) carry no structure, so
  // many mutants still open — and every one of them was walked above.
  EXPECT_GT(opened_count, 0);
}

TEST_P(CodecRoundTripProperty, CorruptIndexFileIsATypedError) {
  const uint64_t seed = GetParam();
  const std::string path = TempPath(seed, "file");
  ASSERT_TRUE(WriteIndexFile(path, RandomMeta(seed), RandomIndex(seed)).ok());
  auto clean = ReadFile(path);
  ASSERT_TRUE(clean.ok());
  common::Pcg32 rng(seed ^ 0xF11E);
  for (int trial = 0; trial < 12; ++trial) {
    std::string mutated = *clean;
    if (trial % 2 == 0) {
      const size_t pos = rng.NextBounded(static_cast<uint32_t>(mutated.size()));
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.NextBounded(8)));
    } else {
      mutated.resize(rng.NextBounded(static_cast<uint32_t>(mutated.size())));
    }
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
    EXPECT_FALSE(ReadIndexFile(path).ok()) << "trial " << trial;
  }
  std::filesystem::remove(path);
}

TEST_P(CodecRoundTripProperty, SerializerInterleavingsRoundTrip) {
  common::Pcg32 rng(GetParam() ^ 0x1EaF);
  // Build a random sequence of typed puts, then read it back in the same order.
  enum class Kind { kU8, kU32, kU64, kVarint, kSigned, kDouble, kString };
  std::vector<Kind> kinds;
  std::vector<uint64_t> u64s;
  std::vector<int64_t> i64s;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  Encoder enc;
  const int ops = 1 + static_cast<int>(rng.NextBounded(64));
  for (int i = 0; i < ops; ++i) {
    Kind kind = static_cast<Kind>(rng.NextBounded(7));
    kinds.push_back(kind);
    switch (kind) {
      case Kind::kU8:
        u64s.push_back(rng.NextBounded(256));
        enc.PutU8(static_cast<uint8_t>(u64s.back()));
        break;
      case Kind::kU32:
        u64s.push_back(rng.Next() & 0xFFFFFFFFu);
        enc.PutU32(static_cast<uint32_t>(u64s.back()));
        break;
      case Kind::kU64:
        u64s.push_back(rng.Next() | (static_cast<uint64_t>(rng.Next()) << 32));
        enc.PutU64(u64s.back());
        break;
      case Kind::kVarint:
        u64s.push_back(rng.Next() >> rng.NextBounded(32));
        enc.PutVarint(u64s.back());
        break;
      case Kind::kSigned:
        i64s.push_back(static_cast<int64_t>(rng.Next()) - (1ll << 31));
        enc.PutSignedVarint(i64s.back());
        break;
      case Kind::kDouble:
        doubles.push_back(rng.NextDouble() * 1e6 - 5e5);
        enc.PutDouble(doubles.back());
        break;
      case Kind::kString: {
        std::string s(rng.NextBounded(64), '\0');
        for (char& c : s) {
          c = static_cast<char>(rng.NextBounded(256));
        }
        strings.push_back(s);
        enc.PutString(s);
        break;
      }
    }
  }
  Decoder dec(enc.bytes());
  size_t ui = 0;
  size_t ii = 0;
  size_t di = 0;
  size_t si = 0;
  for (Kind kind : kinds) {
    switch (kind) {
      case Kind::kU8: {
        uint8_t v = 0;
        ASSERT_TRUE(dec.GetU8(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kU32: {
        uint32_t v = 0;
        ASSERT_TRUE(dec.GetU32(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kU64: {
        uint64_t v = 0;
        ASSERT_TRUE(dec.GetU64(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kVarint: {
        uint64_t v = 0;
        ASSERT_TRUE(dec.GetVarint(&v));
        EXPECT_EQ(v, u64s[ui++]);
        break;
      }
      case Kind::kSigned: {
        int64_t v = 0;
        ASSERT_TRUE(dec.GetSignedVarint(&v));
        EXPECT_EQ(v, i64s[ii++]);
        break;
      }
      case Kind::kDouble: {
        double v = 0;
        ASSERT_TRUE(dec.GetDouble(&v));
        EXPECT_DOUBLE_EQ(v, doubles[di++]);
        break;
      }
      case Kind::kString: {
        std::string v;
        ASSERT_TRUE(dec.GetString(&v));
        EXPECT_EQ(v, strings[si++]);
        break;
      }
    }
  }
  EXPECT_TRUE(dec.Done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- sharded.meta: the clustering checkpoint ---------------------------------
//
// Corpus: the state directories of real checkpoints — a 1-shard and a 4-shard
// ShardedClusterer over a synthetic stream, each crashed after its
// checkpoint, and one persistent RunIngestChecked crashed mid-stream. A
// mutant replaces sharded.meta with a seeded mutation (bit flips, truncation,
// length splice, field swap) whose CRC is re-stamped, so only the decoder's
// own checks can object. The property: OpenOrRecover returns a typed error,
// or the recovered state keeps assigning, merging and checkpointing, and its
// own checkpoint recovers. The targeted cases below name one invariant each
// that the recovered clusterer indexes by.

namespace fs = std::filesystem;

// One shard's bookkeeping blob, split where the targeted mutations edit it:
// the options echo and cluster table verbatim, then the fast-path maps.
struct ParsedBookkeeping {
  std::string table;
  uint64_t num_clusters = 0;
  std::vector<std::pair<int64_t, int64_t>> objects;  // (object, cluster)
  std::vector<int64_t> lru;
  int64_t counters[3] = {0, 0, 0};
};

bool ParseBookkeeping(std::string_view bytes, ParsedBookkeeping* out) {
  Decoder dec(bytes);
  double threshold = 0.0;
  uint64_t u = 0;
  uint8_t mode = 0;
  if (!dec.GetDouble(&threshold) || !dec.GetVarint(&u) || !dec.GetU8(&mode) ||
      !dec.GetVarint(&u) || !dec.GetVarint(&u) || !dec.GetVarint(&out->num_clusters)) {
    return false;
  }
  for (uint64_t i = 0; i < out->num_clusters; ++i) {
    uint8_t active = 0;
    int64_t size = 0;
    video::Detection representative;
    uint64_t runs = 0;
    if (!dec.GetU8(&active) || !dec.GetSignedVarint(&size) ||
        !cluster::DecodeDetection(dec, &representative) || !dec.GetVarint(&runs)) {
      return false;
    }
    for (uint64_t r = 0; r < 3 * runs; ++r) {
      int64_t field = 0;
      if (!dec.GetSignedVarint(&field)) {
        return false;
      }
    }
    common::FeatureVec centroid;
    if (active == 0 && !cluster::DecodeFeatureVec(dec, &centroid)) {
      return false;
    }
  }
  out->table = std::string(bytes.substr(0, dec.offset()));
  uint64_t count = 0;
  if (!dec.GetVarint(&count)) {
    return false;
  }
  out->objects.resize(static_cast<size_t>(count));
  for (auto& [object, cluster] : out->objects) {
    if (!dec.GetSignedVarint(&object) || !dec.GetSignedVarint(&cluster)) {
      return false;
    }
  }
  if (!dec.GetVarint(&count)) {
    return false;
  }
  out->lru.resize(static_cast<size_t>(count));
  for (int64_t& id : out->lru) {
    if (!dec.GetSignedVarint(&id)) {
      return false;
    }
  }
  return dec.GetSignedVarint(&out->counters[0]) && dec.GetSignedVarint(&out->counters[1]) &&
         dec.GetSignedVarint(&out->counters[2]) && dec.Done();
}

std::string EncodeBookkeeping(const ParsedBookkeeping& b) {
  Encoder enc;
  enc.PutVarint(b.objects.size());
  for (const auto& [object, cluster] : b.objects) {
    enc.PutSignedVarint(object);
    enc.PutSignedVarint(cluster);
  }
  enc.PutVarint(b.lru.size());
  for (int64_t id : b.lru) {
    enc.PutSignedVarint(id);
  }
  for (int64_t c : b.counters) {
    enc.PutSignedVarint(c);
  }
  return b.table + enc.bytes();
}

// sharded.meta field by field (the layout ShardedClusterer::Checkpoint writes).
struct ParsedMeta {
  uint32_t version = 0;
  std::vector<int64_t> generations;
  std::vector<ParsedBookkeeping> shards;
  std::vector<int64_t> parent;
  std::vector<int64_t> merge_scanned;
  std::vector<std::vector<std::pair<int64_t, common::FeatureVec>>> candidates;
  int64_t merges_folded = 0;
  int64_t position = 0;
  std::string user_state;
};

bool ParseMeta(const std::string& blob, ParsedMeta* out) {
  if (blob.size() < 4) {
    return false;
  }
  Decoder dec(std::string_view(blob).substr(0, blob.size() - 4));
  uint64_t num_shards = 0;
  if (!dec.GetU32(&out->version) || !dec.GetVarint(&num_shards)) {
    return false;
  }
  out->generations.resize(num_shards);
  out->shards.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    uint64_t generation = 0;
    std::string bookkeeping;
    if (!dec.GetU64(&generation) || !dec.GetString(&bookkeeping) ||
        !ParseBookkeeping(bookkeeping, &out->shards[s])) {
      return false;
    }
    out->generations[s] = static_cast<int64_t>(generation);
  }
  uint64_t count = 0;
  if (!dec.GetVarint(&count)) {
    return false;
  }
  out->parent.resize(static_cast<size_t>(count));
  for (int64_t& p : out->parent) {
    if (!dec.GetSignedVarint(&p)) {
      return false;
    }
  }
  out->merge_scanned.resize(num_shards);
  for (int64_t& scanned : out->merge_scanned) {
    uint64_t v = 0;
    if (!dec.GetVarint(&v)) {
      return false;
    }
    scanned = static_cast<int64_t>(v);
  }
  out->candidates.resize(num_shards);
  for (auto& list : out->candidates) {
    if (!dec.GetVarint(&count)) {
      return false;
    }
    list.resize(static_cast<size_t>(count));
    for (auto& [local, snapshot] : list) {
      uint64_t v = 0;
      if (!dec.GetVarint(&v) || !cluster::DecodeFeatureVec(dec, &snapshot)) {
        return false;
      }
      local = static_cast<int64_t>(v);
    }
  }
  return dec.GetSignedVarint(&out->merges_folded) && dec.GetSignedVarint(&out->position) &&
         dec.GetString(&out->user_state) && dec.Done();
}

// The meta payload without its CRC.
std::string EncodeMetaPayload(const ParsedMeta& m) {
  Encoder enc;
  enc.PutU32(m.version);
  enc.PutVarint(m.shards.size());
  for (size_t s = 0; s < m.shards.size(); ++s) {
    enc.PutU64(static_cast<uint64_t>(m.generations[s]));
    enc.PutString(EncodeBookkeeping(m.shards[s]));
  }
  enc.PutVarint(m.parent.size());
  for (int64_t p : m.parent) {
    enc.PutSignedVarint(p);
  }
  for (int64_t scanned : m.merge_scanned) {
    enc.PutVarint(static_cast<uint64_t>(scanned));
  }
  for (const auto& list : m.candidates) {
    enc.PutVarint(list.size());
    for (const auto& [local, snapshot] : list) {
      enc.PutVarint(static_cast<uint64_t>(local));
      cluster::EncodeFeatureVec(enc, snapshot);
    }
  }
  enc.PutSignedVarint(m.merges_folded);
  enc.PutSignedVarint(m.position);
  enc.PutString(m.user_state);
  return enc.TakeBytes();
}

// Seals |payload| with its CRC, as the checkpoint writer does.
std::string Seal(std::string payload) {
  Encoder crc;
  crc.PutU32(Crc32(payload));
  return payload + crc.bytes();
}

// A deterministic detection stream: noisy observations of unit archetypes,
// objects sticking to one archetype, every fifth repeat observation
// pixel-diff suppressed.
struct MetaStream {
  std::vector<video::Detection> detections;
  std::vector<common::FeatureVec> features;
  std::vector<bool> suppressed;
};

constexpr size_t kStreamDim = 16;
constexpr size_t kStreamLength = 1200;
constexpr size_t kCheckpointAt = 700;
constexpr size_t kCrashAt = 900;

MetaStream MakeMetaStream() {
  constexpr size_t kObjects = 30;
  common::Pcg32 rng(0x5A4D);
  std::vector<common::FeatureVec> archetypes;
  for (int a = 0; a < 8; ++a) {
    archetypes.push_back(common::RandomUnitVector(kStreamDim, rng));
  }
  MetaStream out;
  for (size_t i = 0; i < kStreamLength; ++i) {
    video::Detection d;
    d.object_id = static_cast<common::ObjectId>(i % kObjects);
    d.frame = static_cast<common::FrameIndex>(i / kObjects);
    out.detections.push_back(d);
    out.features.push_back(
        common::PerturbedUnitVector(archetypes[(i % kObjects) % archetypes.size()], 0.15, rng));
    out.suppressed.push_back(i >= kObjects && i % 5 == 0);
  }
  return out;
}

cluster::ShardedClustererOptions MetaOptions(size_t num_shards) {
  cluster::ShardedClustererOptions opts;
  opts.base.threshold = 0.5;
  opts.base.max_active = 24;  // Small cap: retirement and slot reuse happen.
  opts.base.mode = cluster::ClustererOptions::Mode::kFast;
  opts.base.lru_probes = 8;
  opts.num_shards = num_shards;
  return opts;
}

// Feeds stream detections [begin, end), with a boundary merge pass every 50.
void FeedMetaStream(cluster::ShardedClusterer& c, const MetaStream& stream, size_t begin,
                    size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (stream.suppressed[i]) {
      c.AddSuppressed(stream.detections[i], stream.features[i]);
    } else {
      c.Add(stream.detections[i], stream.features[i]);
    }
    if ((i + 1) % 50 == 0) {
      c.BoundaryMergePass();
    }
  }
}

core::IngestParams MetaIngestParams() {
  core::IngestParams params;
  params.model = cnn::GenericCheapCandidates(5)[1];
  params.k = 3;
  params.cluster_threshold = 0.6;
  return params;
}

class ShardedMetaCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new fs::path(fs::temp_directory_path() /
                         ("focus_meta_corpus_" + std::to_string(::getpid())));
    fs::remove_all(*root_);
    stream_ = new MetaStream(MakeMetaStream());
    for (size_t shards : {size_t{1}, size_t{4}}) {
      // Checkpoint mid-stream, keep mutating (undo pre-images), crash.
      cluster::ShardedClusterer victim(MetaOptions(shards));
      ASSERT_TRUE(victim.OpenOrRecover(ClustererDir(shards)).ok());
      FeedMetaStream(victim, *stream_, 0, kCheckpointAt);
      ASSERT_TRUE(victim.Checkpoint(static_cast<int64_t>(kCheckpointAt), "cursor").ok());
      FeedMetaStream(victim, *stream_, kCheckpointAt, kCrashAt);
    }
    catalog_ = new video::ClassCatalog(17);
    video::StreamProfile profile;
    ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
    run_ = new video::StreamRun(catalog_, profile, 20.0, 10.0, 3);
    cheap_ = new cnn::Cnn(MetaIngestParams().model, catalog_);
    auto crashed = core::RunIngestChecked(*run_, *cheap_, MetaIngestParams(),
                                          PipelineOptions(PipelineDir(), run_->num_frames() / 2));
    ASSERT_TRUE(crashed.ok()) << crashed.error().message;
  }

  static void TearDownTestSuite() {
    fs::remove_all(*root_);
    delete cheap_;
    delete run_;
    delete catalog_;
    delete stream_;
    delete root_;
  }

  void TearDown() override { fs::remove_all(WorkDir()); }

  static std::string ClustererDir(size_t shards) {
    return (*root_ / ("clusterer-" + std::to_string(shards))).string();
  }
  static std::string PipelineDir() { return (*root_ / "pipeline").string(); }
  static std::string WorkDir() { return (*root_ / "work").string(); }

  static core::IngestOptions PipelineOptions(const std::string& dir, int64_t crash_after) {
    core::IngestOptions opts;
    opts.persist_dir = dir;
    opts.checkpoint_every_frames = 16;
    opts.crash_after_frames = crash_after;
    return opts;
  }

  static std::string ReadMeta(const std::string& dir) {
    auto blob = ReadFile(dir + "/sharded.meta");
    EXPECT_TRUE(blob.ok());
    return blob.ok() ? *blob : std::string();
  }

  // A fresh copy of |base| with its sharded.meta replaced by |meta|.
  static std::string Stage(const std::string& base, const std::string& meta) {
    fs::remove_all(WorkDir());
    fs::copy(base, WorkDir(), fs::copy_options::recursive);
    EXPECT_TRUE(WriteFileAtomic(WorkDir() + "/sharded.meta", meta).ok());
    return WorkDir();
  }

  // Recovers |dir|; on success the clusterer must keep working: a fresh
  // object (the fast path probes the LRU), the rest of the stream with its
  // suppressed repeats and merge passes, a checkpoint, a finalize, and a
  // second recovery of that checkpoint. Returns the recovery error, if any.
  static std::optional<common::Error> RecoverAndContinue(const std::string& dir,
                                                          size_t shards) {
    cluster::ShardedClusterer c(MetaOptions(shards));
    auto recovery = c.OpenOrRecover(dir);
    if (!recovery.ok()) {
      return recovery.error();
    }
    video::Detection fresh;
    fresh.object_id = 1 << 20;
    c.Add(fresh, stream_->features.front());
    FeedMetaStream(c, *stream_, kCheckpointAt, kStreamLength);
    EXPECT_TRUE(c.Checkpoint(static_cast<int64_t>(kStreamLength)).ok());
    EXPECT_FALSE(c.FinalizeClusters().empty());
    cluster::ShardedClusterer again(MetaOptions(shards));
    auto reopened = again.OpenOrRecover(dir);
    EXPECT_TRUE(reopened.ok()) << reopened.error().message;
    return std::nullopt;
  }

  // Resumes the crashed pipeline run in |dir| to the end of the stream.
  static std::optional<common::Error> ResumePipeline(const std::string& dir) {
    auto resumed =
        core::RunIngestChecked(*run_, *cheap_, MetaIngestParams(), PipelineOptions(dir, -1));
    if (!resumed.ok()) {
      return resumed.error();
    }
    return std::nullopt;
  }

  static fs::path* root_;
  static MetaStream* stream_;
  static video::ClassCatalog* catalog_;
  static video::StreamRun* run_;
  static cnn::Cnn* cheap_;
};

fs::path* ShardedMetaCorpus::root_ = nullptr;
MetaStream* ShardedMetaCorpus::stream_ = nullptr;
video::ClassCatalog* ShardedMetaCorpus::catalog_ = nullptr;
video::StreamRun* ShardedMetaCorpus::run_ = nullptr;
cnn::Cnn* ShardedMetaCorpus::cheap_ = nullptr;

// Every integer field of |m| that names an id, a count or a cursor — the
// pool a field swap draws from.
std::vector<int64_t*> SwappableFields(ParsedMeta& m) {
  std::vector<int64_t*> fields{&m.merges_folded, &m.position};
  for (int64_t& g : m.generations) fields.push_back(&g);
  for (int64_t& p : m.parent) fields.push_back(&p);
  for (int64_t& scanned : m.merge_scanned) fields.push_back(&scanned);
  for (auto& list : m.candidates) {
    for (auto& candidate : list) fields.push_back(&candidate.first);
  }
  for (ParsedBookkeeping& b : m.shards) {
    for (auto& [object, cluster] : b.objects) {
      fields.push_back(&object);
      fields.push_back(&cluster);
    }
    for (int64_t& id : b.lru) fields.push_back(&id);
    for (int64_t& c : b.counters) fields.push_back(&c);
  }
  return fields;
}

// One seeded mutant of |meta|, CRC re-stamped.
std::string Mutate(const std::string& meta, common::Pcg32& rng) {
  std::string payload = meta.substr(0, meta.size() - 4);
  auto pos = [&] { return rng.NextBounded(static_cast<uint32_t>(payload.size())); };
  switch (rng.NextBounded(4)) {
    case 0: {  // Bit flips.
      const uint32_t flips = 1 + rng.NextBounded(4);
      for (uint32_t f = 0; f < flips; ++f) {
        const size_t at = pos();
        payload[at] = static_cast<char>(payload[at] ^ (1u << rng.NextBounded(8)));
      }
      break;
    }
    case 1:  // Truncation.
      payload.resize(pos());
      break;
    case 2: {  // Length splice: drop a span, insert random bytes elsewhere.
      const size_t at = pos();
      payload.erase(at, rng.NextBounded(16));
      std::string inserted(rng.NextBounded(16), '\0');
      for (char& c : inserted) {
        c = static_cast<char>(rng.NextBounded(256));
      }
      payload.insert(std::min<size_t>(pos(), payload.size()), inserted);
      break;
    }
    default: {  // Field swap.
      ParsedMeta parsed;
      if (!ParseMeta(meta, &parsed)) {
        ADD_FAILURE() << "corpus meta does not parse";
        break;
      }
      std::vector<int64_t*> fields = SwappableFields(parsed);
      const size_t swaps = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < swaps; ++i) {
        std::swap(*fields[rng.NextBounded(static_cast<uint32_t>(fields.size()))],
                  *fields[rng.NextBounded(static_cast<uint32_t>(fields.size()))]);
      }
      payload = EncodeMetaPayload(parsed);
      break;
    }
  }
  return Seal(payload);
}

bool IsMetaError(common::ErrorCode code) {
  return code == common::ErrorCode::kIo || code == common::ErrorCode::kFailedPrecondition;
}

TEST_F(ShardedMetaCorpus, CorpusMetasRoundTripThroughTheTestCodec) {
  for (const std::string& dir : {ClustererDir(1), ClustererDir(4), PipelineDir()}) {
    const std::string meta = ReadMeta(dir);
    ParsedMeta parsed;
    ASSERT_TRUE(ParseMeta(meta, &parsed)) << dir;
    EXPECT_EQ(Seal(EncodeMetaPayload(parsed)), meta) << dir;
  }
  // The 4-shard corpus carries merge state for the targeted cases to break.
  ParsedMeta four;
  ASSERT_TRUE(ParseMeta(ReadMeta(ClustererDir(4)), &four));
  EXPECT_FALSE(four.parent.empty());
  EXPECT_GT(four.merges_folded, 0);
}

TEST_F(ShardedMetaCorpus, MutatedMetaIsATypedErrorOrKeepsWorking) {
  for (uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}) {
    common::Pcg32 rng(seed ^ 0x3E7A);
    int recovered = 0;
    for (size_t shards : {size_t{1}, size_t{4}}) {
      const std::string base = ClustererDir(shards);
      const std::string meta = ReadMeta(base);
      for (int trial = 0; trial < 24; ++trial) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " shards " + std::to_string(shards) +
                     " trial " + std::to_string(trial));
        const auto error = RecoverAndContinue(Stage(base, Mutate(meta, rng)), shards);
        if (error.has_value()) {
          EXPECT_TRUE(IsMetaError(error->code)) << error->message;
          EXPECT_FALSE(error->message.empty());
        } else {
          ++recovered;
        }
      }
    }
    const std::string meta = ReadMeta(PipelineDir());
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " pipeline trial " + std::to_string(trial));
      const auto error = ResumePipeline(Stage(PipelineDir(), Mutate(meta, rng)));
      if (error.has_value()) {
        EXPECT_TRUE(IsMetaError(error->code) || error->code == common::ErrorCode::kDataLoss)
            << error->message;
      }
    }
    // Payload floats carry no structure, so some mutants recover — and every
    // one of them was driven through assignment and a checkpoint above.
    EXPECT_GT(recovered, 0) << "seed " << seed;
  }
}

// Rewrites every entry of the pixel-diff reuse map inside the pipeline blob
// of |parsed| with |edit|(classes, feature). The blob leads with k, the
// pixel-diff flag, the detection count and the stage counters, then the map:
// per entry object, last_seen, the top-K (class, confidence) pairs and the
// feature.
template <typename Edit>
void EditReuseMap(ParsedMeta& parsed, Edit&& edit) {
  Decoder dec(parsed.user_state);
  Encoder enc;
  int64_t i64 = 0;
  uint8_t u8 = 0;
  double gpu = 0.0;
  uint64_t entries = 0;
  ASSERT_TRUE(dec.GetSignedVarint(&i64));
  enc.PutSignedVarint(i64);
  ASSERT_TRUE(dec.GetU8(&u8));
  enc.PutU8(u8);
  ASSERT_TRUE(dec.GetSignedVarint(&i64));
  enc.PutSignedVarint(i64);
  ASSERT_TRUE(dec.GetDouble(&gpu));
  enc.PutDouble(gpu);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(dec.GetSignedVarint(&i64));
    enc.PutSignedVarint(i64);
  }
  ASSERT_TRUE(dec.GetVarint(&entries));
  ASSERT_GT(entries, 0u);
  enc.PutVarint(entries);
  for (uint64_t e = 0; e < entries; ++e) {
    int64_t object = 0;
    int64_t last_seen = 0;
    uint64_t width = 0;
    ASSERT_TRUE(dec.GetSignedVarint(&object) && dec.GetSignedVarint(&last_seen) &&
                dec.GetVarint(&width));
    std::vector<int64_t> classes(static_cast<size_t>(width));
    std::vector<float> confidences(static_cast<size_t>(width));
    for (size_t w = 0; w < classes.size(); ++w) {
      ASSERT_TRUE(dec.GetSignedVarint(&classes[w]) && dec.GetFloat(&confidences[w]));
    }
    common::FeatureVec feature;
    ASSERT_TRUE(cluster::DecodeFeatureVec(dec, &feature));
    edit(classes, feature);
    enc.PutSignedVarint(object);
    enc.PutSignedVarint(last_seen);
    enc.PutVarint(width);
    for (size_t w = 0; w < classes.size(); ++w) {
      enc.PutSignedVarint(classes[w]);
      enc.PutFloat(confidences[w]);
    }
    cluster::EncodeFeatureVec(enc, feature);
  }
  parsed.user_state = enc.bytes() + parsed.user_state.substr(dec.offset());
}

// Targeted cases: one invariant each. At a meta that breaks it, recovery
// must fail with kIo naming the meta path and the shard; were it to succeed,
// RecoverAndContinue would index past the table it names.
class ShardedMetaGap : public ShardedMetaCorpus {
 protected:
  // Rewrites the |shards|-shard corpus meta with |edit| and expects kIo
  // naming the meta path and |shard_text|.
  template <typename Edit>
  void ExpectRejected(size_t shards, Edit&& edit, const std::string& shard_text) {
    ParsedMeta parsed;
    ASSERT_TRUE(ParseMeta(ReadMeta(ClustererDir(shards)), &parsed));
    edit(parsed);
    const std::string dir = Stage(ClustererDir(shards), Seal(EncodeMetaPayload(parsed)));
    const auto error = RecoverAndContinue(dir, shards);
    ASSERT_TRUE(error.has_value()) << "recovered a meta that breaks the invariant";
    EXPECT_EQ(error->code, common::ErrorCode::kIo) << error->message;
    EXPECT_NE(error->message.find(dir + "/sharded.meta"), std::string::npos) << error->message;
    EXPECT_NE(error->message.find(shard_text), std::string::npos) << error->message;
  }

  // Resuming the pipeline over a reuse map edited by |edit| must be refused
  // as undecodable pipeline state (kDataLoss naming the meta).
  template <typename Edit>
  void ExpectReuseMapRejected(Edit&& edit) {
    ParsedMeta parsed;
    ASSERT_TRUE(ParseMeta(ReadMeta(PipelineDir()), &parsed));
    EditReuseMap(parsed, edit);
    const std::string dir = Stage(PipelineDir(), Seal(EncodeMetaPayload(parsed)));
    const auto error = ResumePipeline(dir);
    ASSERT_TRUE(error.has_value()) << "resumed over an edited reuse map";
    EXPECT_EQ(error->code, common::ErrorCode::kDataLoss) << error->message;
    EXPECT_NE(error->message.find(dir + "/sharded.meta"), std::string::npos) << error->message;
  }
};

TEST_F(ShardedMetaGap, UnionFindParentOutOfRange) {
  ExpectRejected(4, [](ParsedMeta& m) { m.parent.back() = -3; }, "shard ");
  ExpectRejected(
      4,
      [](ParsedMeta& m) {
        // A parent above its child: the shape a cycle needs.
        m.parent.front() = static_cast<int64_t>(m.parent.size()) - 1;
      },
      "shard 0");
}

TEST_F(ShardedMetaGap, LruIdPastClusterCount) {
  ExpectRejected(
      1,
      [](ParsedMeta& m) {
        ASSERT_FALSE(m.shards[0].lru.empty());
        m.shards[0].lru.front() = static_cast<int64_t>(m.shards[0].num_clusters) + 5;
      },
      "shard 0");
}

TEST_F(ShardedMetaGap, ObjectMapClusterPastClusterCount) {
  ExpectRejected(
      1,
      [](ParsedMeta& m) {
        ParsedBookkeeping& b = m.shards[0];
        ASSERT_FALSE(b.objects.empty());
        for (auto& entry : b.objects) {
          entry.second = static_cast<int64_t>(b.num_clusters);
        }
      },
      "shard 0");
}

TEST_F(ShardedMetaGap, MergeCandidatePastClusterCount) {
  ExpectRejected(
      4,
      [](ParsedMeta& m) {
        ASSERT_FALSE(m.candidates[2].empty());
        m.candidates[2].back().first = static_cast<int64_t>(m.shards[2].num_clusters) + 3;
      },
      "shard 2");
}

TEST_F(ShardedMetaGap, MergeCandidatesNotAscending) {
  ExpectRejected(
      4,
      [](ParsedMeta& m) {
        for (size_t s = 1; s < m.candidates.size(); ++s) {
          ASSERT_GT(m.candidates[s].size(), 1u);
          std::reverse(m.candidates[s].begin(), m.candidates[s].end());
        }
      },
      "shard 1");
}

TEST_F(ShardedMetaGap, MergeCandidateSnapshotDimension) {
  ExpectRejected(
      4,
      [](ParsedMeta& m) {
        ASSERT_FALSE(m.candidates[0].empty());
        m.candidates[0].front().second.resize(kStreamDim / 2);
      },
      "shard 0");
}

// A reused top-K class past the rank table's class space (generic labels
// plus OTHER) would index past a rank-table row.
TEST_F(ShardedMetaGap, ReusedClassPastRankSpace) {
  ExpectReuseMapRejected([](std::vector<int64_t>& classes, common::FeatureVec&) {
    std::fill(classes.begin(), classes.end(), video::kNumClasses + 1);
  });
}

// A reused feature is assigned like a fresh one, so its dimension must be the
// arenas'.
TEST_F(ShardedMetaGap, ReusedFeatureOfAnotherDimension) {
  ExpectReuseMapRejected([](std::vector<int64_t>&, common::FeatureVec& feature) {
    feature.resize(feature.size() / 2);
  });
}

}  // namespace
}  // namespace focus::storage

// --- Server protocol lines (server::ParseRequest) ---
//
// A request line is untrusted input from any client. The corpus holds one
// valid line per verb and per option form; each seeded mutant stacks one to
// three bit flips, truncations, token splices and token swaps. Whatever the
// mutant, the decoder answers kInvalidArgument or a Request whose fields hold
// what the line said: |kx| is -1 or the exact value of a KX token, and
// |shm_workers| is 0 or the exact value of a WORKERS token (so nothing past
// int wraps into range), and |tenant| is a short identifier.
namespace focus::server {
namespace {

const char* const kProtocolCorpus[] = {
    "PING",
    "CAMERAS",
    "CLASSES",
    "CLASSES ped",
    "STATS",
    "STATS north",
    "HEALTH",
    "HEALTH north",
    "SHM ATTACH /focus_plane",
    "SHM STATUS",
    "SHM STATUS /focus_plane",
    "SHM SERVE /focus_plane",
    "SHM SERVE /focus_plane WORKERS 4",
    "SHM QUERY /focus_plane car",
    "SHM QUERY /focus_plane car BEGIN 10 END 90.5 KX 3",
    "QUERY north car",
    "QUERY north car BEGIN 60",
    "QUERY north car END 120.5",
    "QUERY north car KX 2",
    "QUERY north car TENANT analyst",
    "QUERY north car BEGIN 60 END 120.5 KX 2 TENANT analyst",
    "QUERY north,south car KX 2 TENANT analyst",
    "QUERY REGION downtown truck BEGIN 10 END 240 KX 1",
};

// Tokens a splice draws from besides the corpus's own: option keys in the
// wrong place, integers at and past the int edges, and tenant-shaped tokens
// that are not identifiers.
const char* const kSpliceTokens[] = {
    "KX",          "WORKERS",     "TENANT",      "BEGIN",       "END",
    "REGION",      "SHM",         "QUERY",       ",",           "a,,b",
    "0",           "-1",          "1",           "63",          "64",
    "65",          "1024",        "100000",      "2147483647",  "2147483648",
    "-2147483648", "4294967297",  "-4294967295", "4294967298",  "-0",
    "99999999999999999999",       "+7",          "0x10",        "1e3",
    "nan",         "-inf",        "",            "a.b",         "x/y",
    "tttttttttttttttttttttttttttttttt", "ttttttttttttttttttttttttttttttttt",
};

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t begin = 0;
  while (begin <= line.size()) {
    const size_t space = line.find(' ', begin);
    const size_t end = space == std::string::npos ? line.size() : space;
    tokens.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
  return tokens;
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (size_t i = 0; i < tokens.size(); ++i) {
    line += (i == 0 ? "" : " ") + tokens[i];
  }
  return line;
}

// One mutation of |line|: a bit flip, a truncation, a token splice (a token
// replaced by, or a token inserted from, |splice_pool| or a |corpus| line), or
// a swap of two tokens.
std::string MutateLine(const std::string& line, common::Pcg32& rng,
                       std::span<const std::string> corpus,
                       std::span<const char* const> splice_pool) {
  std::vector<std::string> tokens = SplitTokens(line);
  auto splice_token = [&]() -> std::string {
    if (rng.NextBool(0.5)) {
      return splice_pool[rng.NextBounded(static_cast<uint32_t>(splice_pool.size()))];
    }
    const std::vector<std::string> donor =
        SplitTokens(corpus[rng.NextBounded(static_cast<uint32_t>(corpus.size()))]);
    return donor[rng.NextBounded(static_cast<uint32_t>(donor.size()))];
  };
  switch (rng.NextBounded(5)) {
    case 0: {  // Bit flip.
      if (line.empty()) {
        return line;
      }
      std::string mutant = line;
      mutant[rng.NextBounded(static_cast<uint32_t>(mutant.size()))] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      return mutant;
    }
    case 1:  // Truncation.
      return line.substr(0, rng.NextBounded(static_cast<uint32_t>(line.size()) + 1));
    case 2:  // Splice over a token.
      tokens[rng.NextBounded(static_cast<uint32_t>(tokens.size()))] = splice_token();
      return JoinTokens(tokens);
    case 3:  // Splice in a token.
      tokens.insert(tokens.begin() + rng.NextBounded(static_cast<uint32_t>(tokens.size()) + 1),
                    splice_token());
      return JoinTokens(tokens);
    default: {  // Swap two tokens.
      const uint32_t n = static_cast<uint32_t>(tokens.size());
      std::swap(tokens[rng.NextBounded(n)], tokens[rng.NextBounded(n)]);
      return JoinTokens(tokens);
    }
  }
}

// Whether some token right after a |key| token reads, as a whole base-10
// long long, exactly |value|: the oracle for "this option holds what the line
// said", wide enough that a narrowed value never matches its token.
bool SomeOptionValueIs(const std::vector<std::string>& tokens, const std::string& key,
                       long long value) {
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    char* end = nullptr;
    const std::string& text = tokens[i + 1];
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (tokens[i] == key && end != text.c_str() && *end == '\0' && parsed == value) {
      return true;
    }
  }
  return false;
}

// The decoder's contract on any line; returns whether the line parsed.
bool ExpectTypedErrorOrFaithfulRequest(const std::string& line) {
  SCOPED_TRACE("line: \"" + line + "\"");
  const common::Result<Request> request = ParseRequest(line);
  if (!request.ok()) {
    EXPECT_EQ(request.error().code, common::ErrorCode::kInvalidArgument);
    return false;
  }
  const std::vector<std::string> tokens = Tokenize(line);
  EXPECT_TRUE(request->kx == -1 || (request->kx >= 1 && SomeOptionValueIs(tokens, "KX", request->kx)))
      << "kx " << request->kx;
  EXPECT_TRUE(request->shm_workers == 0 ||
              (request->shm_workers >= 1 &&
               SomeOptionValueIs(tokens, "WORKERS", request->shm_workers)))
      << "shm_workers " << request->shm_workers;
  EXPECT_TRUE(!request->tenant.empty() && request->tenant.size() <= 32 &&
              std::all_of(request->tenant.begin(), request->tenant.end(),
                          [](char c) {
                            return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                                   c == '-';
                          }))
      << "tenant " << request->tenant;
  return true;
}

TEST(ProtocolFuzz, CorpusLinesParse) {
  for (const char* line : kProtocolCorpus) {
    EXPECT_TRUE(ExpectTypedErrorOrFaithfulRequest(line)) << line;
  }
}

TEST(ProtocolFuzz, MutatedLinesAreATypedErrorOrAFaithfulRequest) {
  const std::vector<std::string> corpus(std::begin(kProtocolCorpus), std::end(kProtocolCorpus));
  int parsed = 0;
  int rejected = 0;
  for (uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}) {
    common::Pcg32 rng(seed ^ 0x9A75);
    for (const char* original : kProtocolCorpus) {
      for (int trial = 0; trial < 256; ++trial) {
        std::string mutant = original;
        const uint32_t depth = 1 + rng.NextBounded(3);
        for (uint32_t m = 0; m < depth; ++m) {
          mutant = MutateLine(mutant, rng, corpus, kSpliceTokens);
        }
        (ExpectTypedErrorOrFaithfulRequest(mutant) ? parsed : rejected) += 1;
      }
    }
  }
  // Both sides of the contract were exercised.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// --- Worker replies (server::DecodeWorkerReply) ---
//
// A worker reply is bytes a crashed or hostile worker process may have
// written. The corpus is replies EncodeWorkerReply produced, plus one error
// frame; each seeded mutant stacks one to three bit flips, truncations, token
// splices and token swaps. Whatever the mutant, the decoder answers a typed
// error (kIo, or the code an "E" frame names) or a well-formed answer that
// re-encodes to exactly the mutant's bytes.

ShmAnswer MakeAnswer(uint64_t epoch, int64_t watermark, int64_t centroids, int64_t matched,
                     double gpu, std::vector<std::pair<int64_t, int64_t>> runs) {
  ShmAnswer answer;
  answer.epoch = epoch;
  answer.watermark = watermark;
  answer.result.centroids_classified = centroids;
  answer.result.clusters_matched = matched;
  answer.result.gpu_millis = gpu;
  for (const auto& [first, last] : runs) {
    answer.result.frames_returned += last - first + 1;
  }
  answer.result.frame_runs = std::move(runs);
  return answer;
}

std::vector<std::string> WorkerReplyCorpus() {
  return {
      EncodeWorkerReply(MakeAnswer(0, 0, 0, 0, 0.0, {})),
      EncodeWorkerReply(MakeAnswer(3, 5400, 12, 0, 12 * 13.5, {})),
      EncodeWorkerReply(MakeAnswer(7, 9000, 40, 3, 40 * 13.5, {{30, 95}, {400, 400}})),
      EncodeWorkerReply(MakeAnswer(174, 155190, 96, 11, 96 * 13.5,
                                   {{0, 12}, {14, 14}, {2010, 2999}, {150000, 155189}})),
      EncodeWorkerError(common::Unavailable("no epoch acquired")),
  };
}

// Tokens a splice draws from besides the corpus's own: numbers at and past
// the int64 edges, negative and non-finite values, other spellings of valid
// numbers, and inverted, overlapping or malformed frame runs.
const char* const kReplySpliceTokens[] = {
    "R",  "E",  "Io", "0", "-1", "1", "007", "+7", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "99999999999999999999",
    "0x1.8p+3", "0x1.80p+3", "-0x1p+0", "0x0p+0", "nan", "inf", "-inf", "1e3",
    "5:3", "3:5", "3:3", "-1:2", "0:9223372036854775807", "1:99999999999999999999",
    "30:95", "96:96", "2:", ":2", "1:2:3", "",
};

// The decoder's contract on any reply; returns whether it decoded an answer.
bool ExpectTypedErrorOrCanonicalAnswer(const std::string& reply) {
  SCOPED_TRACE("reply: \"" + reply + "\"");
  const common::Result<ShmAnswer> answer = DecodeWorkerReply(reply, /*queried=*/4);
  if (!answer.ok()) {
    const std::vector<std::string> tokens = Tokenize(reply);
    if (tokens.empty() || tokens[0] != "E" || tokens.size() < 2) {
      EXPECT_EQ(answer.error().code, common::ErrorCode::kIo) << answer.error().message;
    }
    return false;
  }
  EXPECT_EQ(EncodeWorkerReply(*answer), reply);
  const core::QueryResult& result = answer->result;
  EXPECT_EQ(result.queried, 4);
  EXPECT_GE(answer->watermark, 0);
  EXPECT_GE(result.clusters_matched, 0);
  EXPECT_LE(result.clusters_matched, result.centroids_classified);
  EXPECT_TRUE(std::isfinite(result.gpu_millis) && result.gpu_millis >= 0.0);
  int64_t frames = 0;
  int64_t prev_last = -1;
  for (const auto& [first, last] : result.frame_runs) {
    EXPECT_GT(first, prev_last);
    EXPECT_LE(first, last);
    frames += last - first + 1;
    prev_last = last;
  }
  EXPECT_EQ(frames, result.frames_returned);
  return true;
}

TEST(WorkerReplyFuzz, CorpusRepliesDecodeOrCarryTheirError) {
  const std::vector<std::string> corpus = WorkerReplyCorpus();
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    EXPECT_TRUE(ExpectTypedErrorOrCanonicalAnswer(corpus[i]));
  }
  const common::Result<ShmAnswer> error = DecodeWorkerReply(corpus.back(), 4);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.error().code, common::ErrorCode::kUnavailable);
  EXPECT_EQ(error.error().message, "no epoch acquired");
}

TEST(WorkerReplyFuzz, HostileFieldsAreRejected) {
  for (const char* reply : {
           "R 99999999999999999999 0 0 0 0 0x0p+0",  // Past int64: not a clamp.
           "R -1 0 0 0 0 0x0p+0",                     // Negative epoch.
           "R 0 -5 0 0 0 0x0p+0",                     // Negative watermark.
           "R 0 0 -1 0 0 0x0p+0",                     // Negative count.
           "R 0 0 1 2 0 0x0p+0",                      // More matched than classified.
           "R 0 0 0 0 0 nan",                         // Non-finite gpu.
           "R 0 0 0 0 0 inf",
           "R 0 0 0 0 0 -0x1p+0",                     // Negative gpu.
           "R 0 0 1 1 3 0x1p+0 5:3",                  // Inverted run.
           "R 0 0 1 1 4 0x1p+0 5:6 1:2",              // Runs out of order.
           "R 0 0 1 1 3 0x1p+0 1:2 2:2",              // Overlapping runs.
           "R 0 0 1 1 9 0x1p+0 1:2",                  // Frames disagree with runs.
           "R 0 0 1 1 2 0x1p+0 1:2 ",                 // Not the encoder's bytes.
           "R 0 0 01 1 2 0x1p+0 1:2",
           "R 0 0 1 1 2 0x1.0p+0 1:2",
       }) {
    SCOPED_TRACE(reply);
    const common::Result<ShmAnswer> answer = DecodeWorkerReply(reply, 4);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.error().code, common::ErrorCode::kIo);
  }
}

TEST(WorkerReplyFuzz, MutatedRepliesAreATypedErrorOrReencodeIdentically) {
  const std::vector<std::string> corpus = WorkerReplyCorpus();
  int decoded = 0;
  int rejected = 0;
  for (uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}) {
    common::Pcg32 rng(seed ^ 0x3E91);
    for (const std::string& original : corpus) {
      for (int trial = 0; trial < 256; ++trial) {
        std::string mutant = original;
        const uint32_t depth = 1 + rng.NextBounded(3);
        for (uint32_t m = 0; m < depth; ++m) {
          mutant = MutateLine(mutant, rng, corpus, kReplySpliceTokens);
        }
        (ExpectTypedErrorOrCanonicalAnswer(mutant) ? decoded : rejected) += 1;
      }
    }
  }
  // Both sides of the contract were exercised.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace focus::server
