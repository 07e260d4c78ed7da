// focus_perfbench: the end-to-end benchmark binary. perfbench/run.py builds
// and drives it; see perfbench/README.md for the workloads and metrics.
//
//   focus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--trace-out FILE]
//
// Prints a human-readable report, then three machine lines that run.py
// parses: "E2E {...}" (end-to-end metrics), "LAYER {...}" (per-layer
// metrics) and "OPS {...}" (attempted/failed per op kind, correctness).
// Traced runs also write every span and the ledger to --trace-out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "perfbench/workloads.h"
#include "src/common/logging.h"

namespace {

using focus::perfbench::Ledger;
using focus::perfbench::RunContext;
using focus::perfbench::RunOptions;
using focus::perfbench::Span;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json end_to_end).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ok_frac", "ratio"},
    {"op_ms_p50", "ms"},
    {"ingest_cheaper_by", "x"},
    {"query_faster_by", "x"},
    {"precision", "ratio"},
    {"recall", "ratio"},
    {"gpu_ms_per_query", "vgpu_ms"},
};

// The per-layer metrics (BENCHMARK.json per_layer). A layer that does no work
// on a workload reports 0 there.
constexpr MetricDef kPerLayer[] = {
    {"ingest_vsps", "1/s"},
    {"op_ms_p90", "ms"},
    {"op_ms_p99", "ms"},
    {"service_rate", "1/s"},
    {"query_gpu_ms_p99", "vgpu_ms"},
    {"publish_delay_ms_p50", "ms"},
    {"publish_delay_ms_p99", "ms"},
    {"query_ms_p50", "ms"},
    {"query_ms_p99", "ms"},
    {"shm_query_ms_p50", "ms"},
    {"shm_query_ms_p99", "ms"},
    {"video.gen_ms", "ms"},
    {"cnn.classify_ms", "ms"},
    {"cnn.invocations", "count"},
    {"cnn.suppressed_frac", "ratio"},
    {"cluster.assign_ms", "ms"},
    {"cluster.fast_hit_rate", "ratio"},
    {"cluster.clusters_per_kdet", "count"},
    {"snapshot.epochs", "count"},
    {"snapshot.cut_ms", "ms"},
    {"snapshot.stall_ms", "ms"},
    {"snapshot.build_ms", "ms"},
    {"snapshot.reused_frac", "ratio"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.arena_mb", "MiB"},
    {"storage.undo_mb", "MiB"},
    {"shm.flatten_ms_p50", "ms"},
    {"shm.flatten_ms_p99", "ms"},
    {"shm.arena_used_mb", "MiB"},
    {"shm.publish_failed", "count"},
    {"shm.pin_violations", "count"},
    {"shm.regions_compacted", "count"},
    {"shm.acquire_ms", "ms"},
    {"rpc.call_ms", "ms"},
    {"rpc.timeouts", "count"},
    {"rpc.restarts", "count"},
    {"rpc.degraded", "count"},
    {"fleet.execute_us", "us"},
    {"fleet.cache_hit_rate", "ratio"},
    {"fleet.dedup_hits", "count"},
    {"fleet.launches", "count"},
    {"fleet.batch_fill", "ratio"},
    {"fleet.cache_retired", "count"},
    {"gpu.ingest_busy_ms", "vgpu_ms"},
    {"gpu.ingest_imbalance", "ratio"},
    {"ingest.lag_ms_p99", "ms"},
    {"ingest.restarts", "count"},
    {"ingest.streams_down", "count"},
    {"query.plan_us", "us"},
    {"query.classify_us", "us"},
    {"query.resolve_us", "us"},
    {"query.work_items", "count"},
    {"server.parse_us", "us"},
    {"server.residual_us", "us"},
    {"tune.ms", "ms"},
    {"tune.configs", "count"},
    {"proc.minflt", "count"},
    {"proc.majflt", "count"},
    {"proc.nvcsw", "count"},
    {"proc.nivcsw", "count"},
    {"gen.late_ms_p99", "ms"},
    {"ledger.residual_frac", "ratio"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <size_t N>
std::string MetricsJson(const MetricDef (&defs)[N], const RunContext& ctx) {
  std::string out = "{";
  for (size_t i = 0; i < N; ++i) {
    const auto it = ctx.metrics.find(defs[i].name);
    const double value = it != ctx.metrics.end() ? it->second : 0.0;
    out += (i > 0 ? ", " : "") + JsonString(defs[i].name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  return out + "}";
}

void WriteTrace(const std::string& path, const std::vector<Span>& spans, const Ledger& ledger) {
  std::ofstream out(path);
  out << "{\"ledger\": {\"wall_ms\": " << JsonNumber(ledger.wall_ms)
      << ", \"residual_ms\": " << JsonNumber(ledger.residual_ms) << ", \"layers\": [";
  for (size_t i = 0; i < ledger.rows.size(); ++i) {
    const auto& row = ledger.rows[i];
    out << (i > 0 ? ", " : "") << "{\"layer\": " << JsonString(row.layer)
        << ", \"self_ms\": " << JsonNumber(row.self_ms) << ", \"share\": " << JsonNumber(row.share)
        << ", \"spans\": " << row.spans << "}";
  }
  out << "]},\n\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n" : "") << "[" << JsonString(s.name) << ", " << s.start_ns << ", "
        << s.end_ns << ", " << s.parent << ", " << s.request_id << ", " << s.thread << "]";
  }
  out << "\n]}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: focus_perfbench --workload ingest_backlog|query_fleet|live_mixed "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  focus::common::SetLogLevel(focus::common::LogLevel::kError);
  RunOptions options;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0.0) {
    return Usage();
  }
  void (*run)(RunContext&) = nullptr;
  if (options.workload == "ingest_backlog") {
    run = focus::perfbench::RunIngestBacklog;
  } else if (options.workload == "query_fleet") {
    run = focus::perfbench::RunQueryFleet;
  } else if (options.workload == "live_mixed") {
    run = focus::perfbench::RunLiveMixed;
  } else {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir);

  RunContext ctx(options);
  run(ctx);

  const int64_t attempted = ctx.ops.attempted();
  const int64_t failed = ctx.ops.failed();
  ctx.Set("ok_frac", attempted > 0 ? static_cast<double>(attempted - failed) /
                                         static_cast<double>(attempted)
                                   : 0.0);
  if (options.trace) {
    const std::vector<Span> spans = ctx.spans.spans();
    const Ledger ledger =
        focus::perfbench::BuildLedger(spans, ctx.ledger_wall_ms, ctx.derived_rows);
    ctx.Set("ledger.residual_frac", ledger.wall_ms > 0.0 ? ledger.residual_ms / ledger.wall_ms : 0.0);
    if (ctx.metrics.find("cnn.classify_ms") == ctx.metrics.end()) {
      ctx.Set("cnn.classify_ms", ledger.SelfOf("cnn.classify"));
    }
    if (ctx.metrics.find("cluster.assign_ms") == ctx.metrics.end()) {
      ctx.Set("cluster.assign_ms", ledger.SelfOf("cluster.assign"));
    }
    std::printf("ledger (%s, seed %llu): measured %.3f ms = layers %.3f ms + residual %.3f ms\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                ledger.wall_ms, ledger.AttributedMillis(), ledger.residual_ms);
    for (const auto& row : ledger.rows) {
      std::printf("  %-22s %12.3f ms  %6.2f%%  (%lld spans)\n", row.layer.c_str(), row.self_ms,
                  100.0 * row.share, static_cast<long long>(row.spans));
    }
    std::printf("  %-22s %12.3f ms  %6.2f%%\n", "(residual)", ledger.residual_ms,
                ledger.wall_ms > 0.0 ? 100.0 * ledger.residual_ms / ledger.wall_ms : 0.0);
    if (!trace_out.empty()) {
      WriteTrace(trace_out, spans, ledger);
    }
  }

  // Every end-to-end metric must be measured: a zero means the workload did
  // not exercise the path it claims to measure.
  bool correct = !ctx.checks_failed && failed == 0 && attempted > 0;
  for (const MetricDef& def : kEndToEnd) {
    const auto it = ctx.metrics.find(def.name);
    if (it == ctx.metrics.end() || !(it->second > 0.0) || !std::isfinite(it->second)) {
      ctx.Note(std::string("FAIL metric ") + def.name + " was not measured");
      correct = false;
    }
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& line : ctx.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& [kind, counts] : ctx.ops.by_kind()) {
    std::printf("ops %-16s attempted %8lld failed %6lld\n", kind.c_str(),
                static_cast<long long>(counts.first), static_cast<long long>(counts.second));
  }
  for (const std::string& failure : ctx.ops.first_failures()) {
    std::printf("failure: %s\n", failure.c_str());
  }
  std::printf("setup skips: %lld\n", static_cast<long long>(ctx.setup_skips));
  for (const MetricDef& def : kEndToEnd) {
    std::printf("e2e   %-26s %16.6f %s\n", def.name, ctx.metrics[def.name], def.unit);
  }
  for (const MetricDef& def : kPerLayer) {
    std::printf("layer %-26s %16.6f %s\n", def.name, ctx.metrics[def.name], def.unit);
  }
  std::string ops = "{";
  bool first = true;
  for (const auto& [kind, counts] : ctx.ops.by_kind()) {
    ops += (first ? "" : ", ") + JsonString(kind) + ": [" + std::to_string(counts.first) + ", " +
           std::to_string(counts.second) + "]";
    first = false;
  }
  ops += "}";
  std::printf("E2E %s\n", MetricsJson(kEndToEnd, ctx).c_str());
  std::printf("LAYER %s\n", MetricsJson(kPerLayer, ctx).c_str());
  std::printf("OPS {\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"by_kind\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), ops.c_str());
  std::fflush(stdout);
  return 0;
}
