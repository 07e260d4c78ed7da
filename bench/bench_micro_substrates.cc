// Substrate microbenchmarks (google-benchmark): the per-operation costs behind the
// system-level numbers — simulated CNN classification and feature extraction,
// incremental clustering, top-K index lookup, the index file round trip, and the
// pixel-level vision path.
#include <benchmark/benchmark.h>

#include "src/cluster/incremental_clusterer.h"
#include "src/cnn/cnn.h"
#include "src/cnn/ground_truth.h"
#include "src/cnn/model_zoo.h"
#include "src/common/logging.h"
#include "src/index/topk_index.h"
#include "src/storage/index_file.h"
#include "src/video/renderer.h"
#include "src/video/stream_generator.h"
#include "src/vision/motion_detector.h"

namespace {

using namespace focus;

const video::ClassCatalog& Catalog() {
  static video::ClassCatalog catalog(42);
  return catalog;
}

video::Detection MakeDetection(common::ObjectId object, common::FrameIndex frame) {
  video::Detection d;
  d.object_id = object;
  d.frame = frame;
  d.true_class = static_cast<common::ClassId>(object % 50);
  common::Pcg32 rng(common::DeriveSeed(7, static_cast<uint64_t>(object)));
  d.appearance = common::PerturbedUnitVector(Catalog().Archetype(d.true_class), 0.75, rng);
  return d;
}

void BM_CnnClassifyTopK(benchmark::State& state) {
  cnn::Cnn cheap(cnn::GenericCheapCandidates(42)[0], &Catalog());
  int k = static_cast<int>(state.range(0));
  int64_t i = 0;
  for (auto _ : state) {
    video::Detection d = MakeDetection(i % 256, i / 256);
    benchmark::DoNotOptimize(cheap.Classify(d, k));
    ++i;
  }
}
BENCHMARK(BM_CnnClassifyTopK)->Arg(4)->Arg(16)->Arg(64)->Arg(192);

void BM_CnnExtractFeature(benchmark::State& state) {
  cnn::Cnn cheap(cnn::GenericCheapCandidates(42)[0], &Catalog());
  int64_t i = 0;
  for (auto _ : state) {
    video::Detection d = MakeDetection(i % 256, i / 256);
    benchmark::DoNotOptimize(cheap.ExtractFeature(d));
    ++i;
  }
}
BENCHMARK(BM_CnnExtractFeature);

void BM_GtCnnTop1(benchmark::State& state) {
  cnn::Cnn gt(cnn::GtCnnDesc(42), &Catalog());
  int64_t i = 0;
  for (auto _ : state) {
    video::Detection d = MakeDetection(i % 256, i / 256);
    benchmark::DoNotOptimize(gt.Top1(d));
    ++i;
  }
}
BENCHMARK(BM_GtCnnTop1);

void BM_ClustererAdd(benchmark::State& state) {
  cluster::ClustererOptions opts;
  opts.threshold = 0.6;
  opts.mode = state.range(0) == 0 ? cluster::ClustererOptions::Mode::kExact
                                  : cluster::ClustererOptions::Mode::kFast;
  cluster::IncrementalClusterer clusterer(opts);
  cnn::Cnn cheap(cnn::GenericCheapCandidates(42)[0], &Catalog());
  int64_t i = 0;
  for (auto _ : state) {
    video::Detection d = MakeDetection(i % 64, i / 64);
    clusterer.Add(d, cheap.ExtractFeature(d));
    ++i;
  }
  state.counters["clusters"] = static_cast<double>(clusterer.num_clusters());
}
BENCHMARK(BM_ClustererAdd)->Arg(0)->Arg(1);

index::TopKIndex RandomIndex(int64_t clusters) {
  index::IndexBuilder builder;
  common::Pcg32 rng(5);
  for (int64_t c = 0; c < clusters; ++c) {
    index::ClusterEntry e;
    e.size = 10;
    e.members.push_back({c, c * 10, c * 10 + 9});
    for (int j = 0; j < 4; ++j) {
      e.topk_classes.push_back(static_cast<common::ClassId>(rng.NextBounded(1000)));
    }
    builder.Add(e);
  }
  return builder.Finish();
}

void BM_TopKIndexLookup(benchmark::State& state) {
  const index::TopKIndex idx = RandomIndex(20000);
  const index::IndexView view = idx.view();
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.postings(static_cast<common::ClassId>(i++ % 1000)));
  }
}
BENCHMARK(BM_TopKIndexLookup);

void BM_IndexFileRoundTrip(benchmark::State& state) {
  const index::TopKIndex idx = RandomIndex(1000);
  const std::string path = "/tmp/focus_bench_index_roundtrip.idx";
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::WriteIndexFile(path, {}, idx).ok());
    benchmark::DoNotOptimize(storage::ReadIndexFile(path).ok());
  }
}
BENCHMARK(BM_IndexFileRoundTrip);

void BM_BackgroundSubtraction(benchmark::State& state) {
  video::StreamProfile profile;
  video::FindProfile("jacksonh", &profile);
  video::StreamRun run(&Catalog(), profile, 30.0, 30.0, 3);
  video::Renderer renderer(&run);
  vision::MotionDetector detector(profile.frame_width, profile.frame_height);
  common::FrameIndex f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(renderer.Render(f % 900)));
    ++f;
  }
}
BENCHMARK(BM_BackgroundSubtraction);

void BM_StreamSweep(benchmark::State& state) {
  video::StreamProfile profile;
  video::FindProfile("auburn_c", &profile);
  video::StreamRun run(&Catalog(), profile, 60.0, 30.0, 3);
  for (auto _ : state) {
    int64_t n = 0;
    run.ForEachFrame([&](common::FrameIndex, const std::vector<video::Detection>& dets) {
      n += static_cast<int64_t>(dets.size());
    });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_StreamSweep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  focus::common::SetLogLevel(focus::common::LogLevel::kWarning);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
