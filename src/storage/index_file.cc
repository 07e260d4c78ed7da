#include "src/storage/index_file.h"

#include <utility>

#include "src/storage/serializer.h"
#include "src/storage/snapshot_store.h"

namespace focus::storage {

namespace {

constexpr uint64_t kFileMagic = 0x464F435553494631ULL;  // "FOCUSIF1"

void PutModelDesc(Encoder& enc, const cnn::ModelDesc& m) {
  enc.PutString(m.name);
  enc.PutSignedVarint(m.layers);
  enc.PutSignedVarint(m.input_px);
  enc.PutVector(m.classes, [](Encoder& e, common::ClassId cls) { e.PutSignedVarint(cls); });
  enc.PutU8(m.has_other_class ? 1 : 0);
  enc.PutDouble(m.training_variability);
  enc.PutU64(m.weights_seed);
}

bool GetModelDesc(Decoder& dec, cnn::ModelDesc* m) {
  int64_t layers = 0;
  int64_t input_px = 0;
  uint8_t has_other = 0;
  const auto get_class = [](Decoder& d, common::ClassId* cls) {
    int64_t v = 0;
    if (!d.GetSignedVarint(&v)) {
      return false;
    }
    *cls = static_cast<common::ClassId>(v);
    return true;
  };
  const bool ok = dec.GetString(&m->name) && dec.GetSignedVarint(&layers) &&
                  dec.GetSignedVarint(&input_px) && dec.GetVector(&m->classes, get_class) &&
                  dec.GetU8(&has_other) && dec.GetDouble(&m->training_variability) &&
                  dec.GetU64(&m->weights_seed);
  m->layers = static_cast<int>(layers);
  m->input_px = static_cast<int>(input_px);
  m->has_other_class = has_other != 0;
  return ok;
}

common::Error FileError(const std::string& path, const std::string& what) {
  return common::DataLoss("index file " + path + ": " + what);
}

}  // namespace

common::Result<bool> WriteIndexFile(const std::string& path, const IndexFileMeta& meta,
                                    const index::TopKIndex& index) {
  Encoder enc;
  enc.PutU64(kFileMagic);
  enc.PutU32(kIndexFileVersion);
  enc.PutString(meta.stream_name);
  enc.PutSignedVarint(meta.k);
  enc.PutDouble(meta.cluster_threshold);
  enc.PutU64(meta.world_seed);
  enc.PutDouble(meta.fps);
  PutModelDesc(enc, meta.model);
  enc.PutU32(Crc32(enc.bytes()));
  std::string file = enc.TakeBytes();
  file += index.image();
  return WriteFileAtomic(path, file);
}

common::Result<IndexFile> ReadIndexFile(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) {
    return bytes.error();
  }
  Decoder dec(*bytes);
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!dec.GetU64(&magic) || magic != kFileMagic) {
    return FileError(path, "bad magic (not an index file)");
  }
  if (!dec.GetU32(&version)) {
    return FileError(path, "truncated version");
  }
  if (version != kIndexFileVersion) {
    return common::FailedPrecondition("index file " + path + ": version " +
                                      std::to_string(version) + ", this build reads version " +
                                      std::to_string(kIndexFileVersion));
  }
  IndexFileMeta meta;
  int64_t k = 0;
  if (!dec.GetString(&meta.stream_name) || !dec.GetSignedVarint(&k) ||
      !dec.GetDouble(&meta.cluster_threshold) || !dec.GetU64(&meta.world_seed) ||
      !dec.GetDouble(&meta.fps) || !GetModelDesc(dec, &meta.model)) {
    return FileError(path, "truncated metadata");
  }
  meta.k = static_cast<int32_t>(k);
  const size_t meta_end = dec.offset();
  uint32_t crc = 0;
  if (!dec.GetU32(&crc) || crc != Crc32(std::string_view(*bytes).substr(0, meta_end))) {
    return FileError(path, "metadata CRC mismatch");
  }
  auto index = index::TopKIndex::FromImage(bytes->substr(dec.offset()));
  if (!index.ok()) {
    return index.error();
  }
  return IndexFile{std::move(meta), std::move(*index)};
}

}  // namespace focus::storage
