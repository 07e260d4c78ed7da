// Unit tests for the storage substrate: serializer primitives, index snapshot codec,
// atomic snapshot files, the append-only record log (including torn-tail recovery),
// and the video vault's retention logic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "src/index/topk_index.h"
#include "src/storage/index_file.h"
#include "src/storage/record_log.h"
#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"
#include "src/storage/video_vault.h"

namespace focus::storage {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("focus_storage_test_" + name)).string();
}

// --- Serializer ---

TEST(SerializerTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  Decoder dec(enc.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(dec.GetU8(&u8));
  ASSERT_TRUE(dec.GetU32(&u32));
  ASSERT_TRUE(dec.GetU64(&u64));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.Done());
}

TEST(SerializerTest, VarintRoundTripAcrossMagnitudes) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  Encoder enc;
  for (uint64_t v : values) {
    enc.PutVarint(v);
  }
  Decoder dec(enc.bytes());
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(dec.GetVarint(&got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(dec.Done());
}

TEST(SerializerTest, SignedVarintRoundTripIncludingNegatives) {
  const int64_t values[] = {0, -1, 1, -64, 64, std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  Encoder enc;
  for (int64_t v : values) {
    enc.PutSignedVarint(v);
  }
  Decoder dec(enc.bytes());
  for (int64_t expected : values) {
    int64_t got = 0;
    ASSERT_TRUE(dec.GetSignedVarint(&got));
    EXPECT_EQ(got, expected);
  }
}

TEST(SerializerTest, SmallSignedValuesEncodeCompactly) {
  Encoder enc;
  enc.PutSignedVarint(-1);  // ZigZag: one byte.
  EXPECT_EQ(enc.size(), 1u);
}

TEST(SerializerTest, DoubleAndFloatRoundTripExactly) {
  Encoder enc;
  enc.PutDouble(3.14159265358979);
  enc.PutDouble(-0.0);
  enc.PutFloat(2.5f);
  Decoder dec(enc.bytes());
  double d1 = 0;
  double d2 = 0;
  float f = 0;
  ASSERT_TRUE(dec.GetDouble(&d1));
  ASSERT_TRUE(dec.GetDouble(&d2));
  ASSERT_TRUE(dec.GetFloat(&f));
  EXPECT_DOUBLE_EQ(d1, 3.14159265358979);
  EXPECT_EQ(std::signbit(d2), true);
  EXPECT_FLOAT_EQ(f, 2.5f);
}

TEST(SerializerTest, StringRoundTripIncludingEmbeddedNul) {
  Encoder enc;
  enc.PutString(std::string("ab\0cd", 5));
  enc.PutString("");
  Decoder dec(enc.bytes());
  std::string a;
  std::string b;
  ASSERT_TRUE(dec.GetString(&a));
  ASSERT_TRUE(dec.GetString(&b));
  EXPECT_EQ(a, std::string("ab\0cd", 5));
  EXPECT_TRUE(b.empty());
}

TEST(SerializerTest, TruncatedReadsFailCleanly) {
  Encoder enc;
  enc.PutU64(42);
  Decoder dec(std::string_view(enc.bytes()).substr(0, 5));
  uint64_t v = 0;
  EXPECT_FALSE(dec.GetU64(&v));
}

TEST(SerializerTest, MalformedVarintFails) {
  // Eleven continuation bytes exceed the 64-bit range.
  std::string bad(11, static_cast<char>(0xFF));
  Decoder dec(bad);
  uint64_t v = 0;
  EXPECT_FALSE(dec.GetVarint(&v));
}

TEST(SerializerTest, StringLengthBeyondPayloadFails) {
  Encoder enc;
  enc.PutVarint(1000);  // Claims 1000 bytes; none follow.
  Decoder dec(enc.bytes());
  std::string s;
  EXPECT_FALSE(dec.GetString(&s));
}

TEST(SerializerTest, SkipAdvancesAndBoundsChecks) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutU8(9);
  Decoder dec(enc.bytes());
  ASSERT_TRUE(dec.Skip(4));
  uint8_t v = 0;
  ASSERT_TRUE(dec.GetU8(&v));
  EXPECT_EQ(v, 9);
  EXPECT_FALSE(dec.Skip(1));
}

TEST(SerializerTest, Crc32MatchesKnownVector) {
  // Standard check value for the IEEE polynomial.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chaining over any split equals one pass: the eight-byte steps and the
  // byte tail agree at every alignment.
  std::string data(1000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  uint32_t bitwise = 0xFFFFFFFFu;  // Reference: one bit at a time.
  for (char c : data) {
    bitwise ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      bitwise = (bitwise >> 1) ^ ((bitwise & 1) != 0 ? 0xEDB88320u : 0u);
    }
  }
  EXPECT_EQ(Crc32(data), ~bitwise);
  const std::string_view all(data);
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{13}, size_t{999}}) {
    EXPECT_EQ(Crc32(all.substr(split), Crc32(all.substr(0, split))), Crc32(all)) << split;
  }
}

TEST(SerializerTest, Crc32DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  uint32_t clean = Crc32(data);
  data[3] = static_cast<char>(data[3] ^ 0x01);
  EXPECT_NE(Crc32(data), clean);
}

// --- Index file ---

index::TopKIndex MakeSmallIndex() {
  index::IndexBuilder builder;
  for (int64_t c = 0; c < 3; ++c) {
    index::ClusterEntry entry;
    entry.size = 10 * (c + 1);
    entry.representative.frame = 100 * c;
    entry.representative.object_id = 7 + c;
    entry.representative.bbox = {1.0f, 2.0f, 14.0f, 14.0f};
    entry.representative.true_class = static_cast<common::ClassId>(42 + c);
    entry.members.push_back({7 + c, 100 * c, 100 * c + 30});
    entry.topk_classes = {static_cast<common::ClassId>(42 + c),
                          static_cast<common::ClassId>(142 + c)};
    entry.topk_ranks = {1, 3};
    builder.Add(entry);
  }
  return builder.Finish();
}

std::string WrittenIndexFile(const std::string& name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteIndexFile(path, IndexFileMeta{}, MakeSmallIndex()).ok());
  auto bytes = ReadFile(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::string();
}

TEST(IndexFileTest, RoundTripPreservesEverything) {
  const index::TopKIndex original = MakeSmallIndex();
  IndexFileMeta meta;
  meta.stream_name = "auburn_c";
  meta.k = 4;
  meta.cluster_threshold = 0.6;
  meta.world_seed = 42;
  meta.fps = 10.0;
  meta.model.name = "spec12_px56";
  meta.model.layers = 12;
  meta.model.input_px = 56;
  meta.model.classes = {3, 9, 27};
  meta.model.has_other_class = true;
  meta.model.training_variability = 0.55;
  meta.model.weights_seed = 77;

  const std::string path = TempPath("index_roundtrip.idx");
  ASSERT_TRUE(WriteIndexFile(path, meta, original).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  std::filesystem::remove(path);

  const IndexFileMeta& got = loaded->meta;
  EXPECT_EQ(got.stream_name, "auburn_c");
  EXPECT_EQ(got.k, 4);
  EXPECT_DOUBLE_EQ(got.cluster_threshold, 0.6);
  EXPECT_EQ(got.world_seed, 42u);
  EXPECT_DOUBLE_EQ(got.fps, 10.0);
  EXPECT_EQ(got.model.name, "spec12_px56");
  EXPECT_EQ(got.model.layers, 12);
  EXPECT_EQ(got.model.input_px, 56);
  EXPECT_EQ(got.model.classes, (std::vector<common::ClassId>{3, 9, 27}));
  EXPECT_TRUE(got.model.has_other_class);
  EXPECT_DOUBLE_EQ(got.model.training_variability, 0.55);
  EXPECT_EQ(got.model.weights_seed, 77u);

  // The file carries the image itself: same bytes, same postings.
  EXPECT_EQ(loaded->index.image(), original.image());
  const index::IndexView view = loaded->index.view();
  ASSERT_EQ(view.num_clusters(), 3u);
  EXPECT_EQ(view.centroid(1).object_id, 8);
  EXPECT_EQ(view.runs(2)[0].first_frame, 200);
  EXPECT_EQ(view.postings(42).size(), 1u);
  EXPECT_EQ(view.postings(143).size(), 1u);
  EXPECT_EQ(view.postings(143)[0].rank, 3);
}

TEST(IndexFileTest, EmptyIndexRoundTrips) {
  const std::string path = TempPath("index_empty.idx");
  ASSERT_TRUE(WriteIndexFile(path, IndexFileMeta{}, index::TopKIndex()).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded->index.num_clusters(), 0u);
  std::filesystem::remove(path);
}

TEST(IndexFileTest, RejectsCorruptedByteInMetadataOrImage) {
  const std::string clean = WrittenIndexFile("index_corrupt.idx");
  const std::string path = TempPath("index_corrupt.idx");
  for (const size_t pos : {size_t{14}, clean.size() / 2, clean.size() - 1}) {
    std::string blob = clean;
    blob[pos] = static_cast<char>(blob[pos] ^ 0x40);
    ASSERT_TRUE(WriteFileAtomic(path, blob).ok());
    auto loaded = ReadIndexFile(path);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << pos;
    EXPECT_EQ(loaded.error().code, common::ErrorCode::kDataLoss) << loaded.error().message;
  }
  std::filesystem::remove(path);
}

TEST(IndexFileTest, RejectsTruncationAndEmptyFile) {
  const std::string clean = WrittenIndexFile("index_truncated.idx");
  const std::string path = TempPath("index_truncated.idx");
  for (const size_t keep : {size_t{0}, size_t{11}, clean.size() - 7}) {
    ASSERT_TRUE(WriteFileAtomic(path, clean.substr(0, keep)).ok());
    EXPECT_FALSE(ReadIndexFile(path).ok()) << "kept " << keep << " bytes";
  }
  std::filesystem::remove(path);
}

TEST(IndexFileTest, RejectsBadMagicAndNamesBothVersions) {
  const std::string clean = WrittenIndexFile("index_magic.idx");
  const std::string path = TempPath("index_magic.idx");
  std::string blob = clean;
  blob[0] = 'X';
  ASSERT_TRUE(WriteFileAtomic(path, blob).ok());
  auto loaded = ReadIndexFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("magic"), std::string::npos);

  blob = clean;
  blob[8] = static_cast<char>(kIndexFileVersion + 6);  // Version field, little-endian.
  ASSERT_TRUE(WriteFileAtomic(path, blob).ok());
  loaded = ReadIndexFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, common::ErrorCode::kFailedPrecondition);
  EXPECT_NE(loaded.error().message.find(std::to_string(kIndexFileVersion + 6)),
            std::string::npos);
  EXPECT_NE(loaded.error().message.find(std::to_string(kIndexFileVersion)), std::string::npos);
  std::filesystem::remove(path);
}

// --- Snapshot store ---

TEST(SnapshotStoreTest, WriteThenReadBack) {
  const std::string path = TempPath("snap.bin");
  std::string payload = "hello\0world";
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  EXPECT_TRUE(FileExists(path));
  std::filesystem::remove(path);
}

TEST(SnapshotStoreTest, OverwriteReplacesAtomically) {
  const std::string path = TempPath("snap_overwrite.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "v1").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "v2-longer-content").ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "v2-longer-content");
  EXPECT_FALSE(FileExists(path + ".tmp"));  // Temp cleaned up.
  std::filesystem::remove(path);
}

TEST(SnapshotStoreTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadFile(TempPath("does_not_exist.bin")).ok());
  EXPECT_FALSE(FileExists(TempPath("does_not_exist.bin")));
}

// --- Record log ---

TEST(RecordLogTest, AppendAndReplay) {
  const std::string path = TempPath("log1.bin");
  std::filesystem::remove(path);
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("alpha").ok());
    ASSERT_TRUE(writer->Append("beta").ok());
    ASSERT_TRUE(writer->Append(std::string("\0\x01\x02", 3)).ok());
    EXPECT_EQ(writer->records_written(), 3);
  }
  auto contents = ReadRecordLog(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0], "alpha");
  EXPECT_EQ(contents->records[1], "beta");
  EXPECT_EQ(contents->records[2], std::string("\0\x01\x02", 3));
  EXPECT_FALSE(contents->truncated_tail);
  std::filesystem::remove(path);
}

TEST(RecordLogTest, MissingLogReadsAsEmpty) {
  auto contents = ReadRecordLog(TempPath("never_created.bin"));
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->records.empty());
  EXPECT_FALSE(contents->truncated_tail);
}

TEST(RecordLogTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = TempPath("log_reopen.bin");
  std::filesystem::remove(path);
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("first").ok());
  }
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("second").ok());
  }
  auto contents = ReadRecordLog(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[0], "first");
  EXPECT_EQ(contents->records[1], "second");
  std::filesystem::remove(path);
}

TEST(RecordLogTest, TornTailIsDroppedNotFatal) {
  const std::string path = TempPath("log_torn.bin");
  std::filesystem::remove(path);
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("complete-record").ok());
    ASSERT_TRUE(writer->Append("will-be-torn").ok());
  }
  // Simulate a crash mid-append: chop bytes off the final record's payload.
  auto blob = ReadFile(path);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(WriteFileAtomic(path, blob->substr(0, blob->size() - 4)).ok());

  auto contents = ReadRecordLog(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], "complete-record");
  EXPECT_TRUE(contents->truncated_tail);
  std::filesystem::remove(path);
}

TEST(RecordLogTest, CorruptMiddleRecordStopsReplayAtThatPoint) {
  const std::string path = TempPath("log_corrupt.bin");
  std::filesystem::remove(path);
  {
    auto writer = RecordLogWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append("good").ok());
    ASSERT_TRUE(writer->Append("bad-soon").ok());
    ASSERT_TRUE(writer->Append("unreachable").ok());
  }
  auto blob = ReadFile(path);
  ASSERT_TRUE(blob.ok());
  std::string mutated = *blob;
  // Flip a byte inside the second record's payload (after the first frame: 8 header
  // bytes + 4 payload bytes; second frame header is 8 more; flip its first byte).
  mutated[8 + 4 + 8] = static_cast<char>(mutated[8 + 4 + 8] ^ 0xFF);
  ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());

  auto contents = ReadRecordLog(path);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], "good");
  EXPECT_TRUE(contents->truncated_tail);
  std::filesystem::remove(path);
}

// --- Video vault ---

RecordingChunk Chunk(double begin, double end, int64_t bytes) {
  RecordingChunk c;
  c.begin_sec = begin;
  c.end_sec = end;
  c.size_bytes = bytes;
  c.uri = "chunk://" + std::to_string(static_cast<int64_t>(begin));
  return c;
}

TEST(VideoVaultTest, AppendAndAccounting) {
  VideoVault vault;
  ASSERT_TRUE(vault.AppendChunk("cam1", Chunk(0, 60, 1000)).ok());
  ASSERT_TRUE(vault.AppendChunk("cam1", Chunk(60, 120, 1200)).ok());
  ASSERT_TRUE(vault.AppendChunk("cam2", Chunk(0, 30, 500)).ok());
  const StreamManifest* cam1 = vault.Find("cam1");
  ASSERT_NE(cam1, nullptr);
  EXPECT_DOUBLE_EQ(cam1->RetainedSeconds(), 120.0);
  EXPECT_EQ(cam1->RetainedBytes(), 2200);
  EXPECT_DOUBLE_EQ(cam1->OldestSec().value(), 0.0);
  EXPECT_EQ(vault.TotalBytes(), 2700);
  EXPECT_EQ(vault.StreamNames().size(), 2u);
}

TEST(VideoVaultTest, RejectsOverlapAndBadChunks) {
  VideoVault vault;
  ASSERT_TRUE(vault.AppendChunk("cam", Chunk(0, 60, 10)).ok());
  EXPECT_FALSE(vault.AppendChunk("cam", Chunk(30, 90, 10)).ok());   // Overlap.
  EXPECT_FALSE(vault.AppendChunk("cam", Chunk(100, 100, 10)).ok()); // Zero length.
  EXPECT_FALSE(vault.AppendChunk("cam", Chunk(100, 90, 10)).ok());  // Negative length.
  RecordingChunk negative = Chunk(100, 160, -5);
  EXPECT_FALSE(vault.AppendChunk("cam", negative).ok());
}

TEST(VideoVaultTest, TrimBeforeDropsWholeChunksOnly) {
  VideoVault vault;
  ASSERT_TRUE(vault.AppendChunk("cam", Chunk(0, 60, 10)).ok());
  ASSERT_TRUE(vault.AppendChunk("cam", Chunk(60, 120, 10)).ok());
  ASSERT_TRUE(vault.AppendChunk("cam", Chunk(120, 180, 10)).ok());
  EXPECT_EQ(vault.TrimBefore(119.0), 1);  // Second chunk ends at 120 > 119: kept.
  EXPECT_EQ(vault.Find("cam")->chunks.size(), 2u);
  EXPECT_EQ(vault.TrimBefore(180.0), 2);
  EXPECT_TRUE(vault.Find("cam")->chunks.empty());
}

TEST(VideoVaultTest, TrimToBudgetEvictsOldestFirst) {
  VideoVault vault;
  ASSERT_TRUE(vault.AppendChunk("a", Chunk(0, 60, 100)).ok());
  ASSERT_TRUE(vault.AppendChunk("a", Chunk(60, 120, 100)).ok());
  ASSERT_TRUE(vault.AppendChunk("b", Chunk(10, 70, 100)).ok());
  EXPECT_EQ(vault.TrimToBudget(250), 1);  // Drops a's [0,60) — globally oldest.
  EXPECT_EQ(vault.TotalBytes(), 200);
  EXPECT_DOUBLE_EQ(vault.Find("a")->OldestSec().value(), 60.0);
  EXPECT_EQ(vault.TrimToBudget(0), 2);
  EXPECT_EQ(vault.TotalBytes(), 0);
}

TEST(VideoVaultTest, ManifestRoundTrip) {
  VideoVault vault;
  ASSERT_TRUE(vault.AppendChunk("cam1", Chunk(0, 60, 1000)).ok());
  ASSERT_TRUE(vault.AppendChunk("cam2", Chunk(5, 35, 700)).ok());
  vault.SetIndexSnapshot("cam1", "snap://cam1/latest");

  VideoVault restored;
  ASSERT_TRUE(restored.DecodeManifest(vault.EncodeManifest()).ok());
  const StreamManifest* cam1 = restored.Find("cam1");
  ASSERT_NE(cam1, nullptr);
  EXPECT_EQ(cam1->index_snapshot_uri, "snap://cam1/latest");
  ASSERT_EQ(cam1->chunks.size(), 1u);
  EXPECT_DOUBLE_EQ(cam1->chunks[0].end_sec, 60.0);
  EXPECT_EQ(restored.TotalBytes(), 1700);
}

TEST(VideoVaultTest, ManifestRejectsCorruption) {
  VideoVault vault;
  ASSERT_TRUE(vault.AppendChunk("cam", Chunk(0, 60, 10)).ok());
  std::string blob = vault.EncodeManifest();
  blob[6] = static_cast<char>(blob[6] ^ 0x10);
  VideoVault restored;
  EXPECT_FALSE(restored.DecodeManifest(blob).ok());
}

}  // namespace
}  // namespace focus::storage
