// §6.7: applicability under extreme query rates.
//
// Case A — everything gets queried: every indexed class of every stream is queried
// once. Ingest-all then amortizes its cost perfectly, yet Focus's total GPU time
// (ingest + all queries) still comes out cheaper because the cheap CNN indexes
// everything once and the GT-CNN touches each cluster centroid at most once per
// class. Paper: Focus remains ~4x cheaper on average (up to 6x).
//
// Case B — almost nothing gets queried: Focus defers its whole pipeline to query
// time (query-time-only variant). Latency grows but remains far below Query-all.
// Paper: still 22x (up to 34x) faster than Query-all.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/cnn/ground_truth.h"
#include "src/common/logging.h"
#include "src/common/stats.h"
#include "src/core/parameter_tuner.h"

int main() {
  using namespace focus;
  common::SetLogLevel(common::LogLevel::kWarning);
  bench::BenchConfig config = bench::ConfigFromEnv();
  video::ClassCatalog catalog(config.world_seed);
  cnn::Cnn gt(cnn::GtCnnDesc(catalog.world_seed()), &catalog);

  bench::PrintHeader("Sec 6.7: Extreme query rates");
  std::printf("%-12s %18s %22s\n", "Stream", "AllQueried:cheaper", "QueryTimeOnly:faster");

  std::vector<double> all_queried;
  std::vector<double> query_time_only;
  for (const std::string& name : video::RepresentativeNineStreams()) {
    video::StreamRun run = bench::MakeRun(catalog, name, config);
    video::StreamProfile profile;
    video::FindProfile(name, &profile);

    core::FocusOptions options;
    auto focus_or = core::FocusStream::Build(&run, &catalog, options);
    if (!focus_or.ok()) {
      std::fprintf(stderr, "build failed for %s\n", name.c_str());
      continue;
    }
    const core::FocusStream& focus = **focus_or;

    // Case A: query every class the index knows about, once each.
    double total_query_millis = 0.0;
    for (const index::PostingList& list : focus.ingest().index.view().lists()) {
      // Map OTHER back through real queries: query the underlying classes.
      if (list.cls == cnn::kOtherClass) {
        continue;
      }
      total_query_millis += focus.Query(list.cls).gpu_millis;
    }
    double ingest_all =
        static_cast<double>(focus.ingest().detections) * gt.inference_cost_millis();
    double focus_total = focus.ingest().gpu_millis + total_query_millis;
    double cheaper = focus_total > 0 ? ingest_all / focus_total : 0.0;

    // Case B: run the whole pipeline at query time for the top dominant class.
    cnn::SegmentGroundTruth truth(run, gt);
    std::vector<common::ClassId> dominant = truth.DominantClasses(0.5, 1);
    double faster = 0.0;
    if (!dominant.empty()) {
      baseline::QueryTimeOnlyResult lazy = baseline::RunFocusQueryTimeOnly(
          run, focus.ingest_cnn(), gt, focus.chosen_params(), dominant[0]);
      double query_all = baseline::QueryAllCostMillis(run, gt);
      faster = lazy.total_gpu_millis > 0 ? query_all / lazy.total_gpu_millis : 0.0;
    }

    std::printf("%-12s %17.1fx %21.1fx\n", name.c_str(), cheaper, faster);
    all_queried.push_back(cheaper);
    query_time_only.push_back(faster);
  }
  std::printf("%-12s %17.1fx %21.1fx\n", "Average", common::Mean(all_queried),
              common::Mean(query_time_only));
  std::printf("\nPaper: all-queried case ~4x cheaper than Ingest-all (up to 6x); query-time-only\n"
              "Focus still ~22x faster than Query-all (up to 34x).\n");
  return 0;
}
