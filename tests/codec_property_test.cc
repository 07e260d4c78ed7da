// Property tests for the storage formats, parameterized over seeds — the
// seeded mutation harness (ctest label `fuzz`) for the index image decoder,
// index::IndexView::Open, and the index file around it:
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
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/common/rng.h"
#include "src/index/topk_index.h"
#include "src/storage/index_file.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"

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

}  // namespace
}  // namespace focus::storage
