// Runtime- and storage-substrate microbenchmarks (google-benchmark): virtual GPU
// scheduling throughput, worker-pool task dispatch, metrics updates, serializer
// encode/decode, CRC32, index file write/read, and record-log append/replay.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "src/index/topk_index.h"
#include "src/runtime/gpu_device.h"
#include "src/runtime/metrics.h"
#include "src/runtime/task_queue.h"
#include "src/runtime/worker_pool.h"
#include "src/storage/index_file.h"
#include "src/storage/record_log.h"
#include "src/storage/serializer.h"

namespace {

using namespace focus;

void BM_GpuClusterSubmit(benchmark::State& state) {
  runtime::GpuCluster cluster(static_cast<int>(state.range(0)));
  double now = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Submit(now, 13.0));
    now += 1.0;
  }
}
BENCHMARK(BM_GpuClusterSubmit)->Arg(1)->Arg(10)->Arg(100);

void BM_GpuClusterBatch(benchmark::State& state) {
  const int64_t batch = state.range(0);
  for (auto _ : state) {
    runtime::GpuCluster cluster(10);
    benchmark::DoNotOptimize(cluster.SubmitBatch(0.0, batch, 13.0));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GpuClusterBatch)->Arg(100)->Arg(10000);

void BM_TaskQueuePushPop(benchmark::State& state) {
  runtime::TaskQueue<int64_t> queue(1024);
  int64_t i = 0;
  for (auto _ : state) {
    queue.Push(i);
    benchmark::DoNotOptimize(queue.Pop());
    ++i;
  }
}
BENCHMARK(BM_TaskQueuePushPop)->Iterations(100000);

void BM_WorkerPoolDispatch(benchmark::State& state) {
  runtime::WorkerPool pool(static_cast<int>(state.range(0)));
  std::atomic<int64_t> counter{0};
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Drain();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
// Fixed iteration count: on a single-core host the pool's context switches make
// google-benchmark's auto-tuning run for minutes otherwise.
BENCHMARK(BM_WorkerPoolDispatch)->Arg(1)->Arg(4)->Iterations(200);

void BM_MetricsIncrement(benchmark::State& state) {
  runtime::MetricsRegistry metrics;
  for (auto _ : state) {
    metrics.IncrementCounter("bench.counter");
  }
}
BENCHMARK(BM_MetricsIncrement);

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(65536);

void BM_VarintEncodeDecode(benchmark::State& state) {
  for (auto _ : state) {
    storage::Encoder enc;
    for (uint64_t v = 1; v < (1ull << 42); v <<= 3) {
      enc.PutVarint(v);
    }
    storage::Decoder dec(enc.bytes());
    uint64_t out = 0;
    while (!dec.Done()) {
      dec.GetVarint(&out);
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_VarintEncodeDecode);

index::TopKIndex MakeIndex(int64_t clusters) {
  index::IndexBuilder builder;
  for (int64_t c = 0; c < clusters; ++c) {
    index::ClusterEntry entry;
    entry.size = 30;
    entry.representative.frame = c * 100;
    entry.representative.object_id = c;
    entry.members.push_back({c, c * 100, c * 100 + 30});
    for (int i = 0; i < 4; ++i) {
      entry.topk_classes.push_back(static_cast<common::ClassId>((c + i) % 100));
      entry.topk_ranks.push_back(i + 1);
    }
    builder.Add(entry);
  }
  return builder.Finish();
}

void BM_IndexFileWrite(benchmark::State& state) {
  const index::TopKIndex idx = MakeIndex(state.range(0));
  const std::string path = "/tmp/focus_bench_index_" + std::to_string(state.range(0)) + ".idx";
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::WriteIndexFile(path, {}, idx).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexFileWrite)->Arg(100)->Arg(2000);

void BM_IndexFileRead(benchmark::State& state) {
  const std::string path = "/tmp/focus_bench_index_" + std::to_string(state.range(0)) + ".idx";
  if (!storage::WriteIndexFile(path, {}, MakeIndex(state.range(0))).ok()) {
    state.SkipWithError("index file write failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::ReadIndexFile(path).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexFileRead)->Arg(100)->Arg(2000);

void BM_RecordLogAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "focus_bench_log.bin").string();
  std::filesystem::remove(path);
  auto writer = storage::RecordLogWriter::Open(path);
  std::string payload(256, 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer->Append(payload));
  }
  state.SetBytesProcessed(state.iterations() * 256);
  std::filesystem::remove(path);
}
BENCHMARK(BM_RecordLogAppend);

}  // namespace

BENCHMARK_MAIN();
