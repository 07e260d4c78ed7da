// Tests of the benchmark harness: the tail percentile rule, self-time and
// ledger arithmetic (residual included), and the paced decorator delivering
// exactly what the undecorated recording delivers.
#include <gtest/gtest.h>

#include <vector>

#include "perfbench/harness.h"
#include "src/video/class_catalog.h"
#include "src/video/stream_profile.h"

namespace focus::perfbench {
namespace {

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(10), 0);    // Nothing leaves ten samples beyond.
  EXPECT_EQ(TailPercentile(11), 9);    // ceil(0.09 * 11) = 1: ten beyond.
  EXPECT_EQ(TailPercentile(100), 90);  // Exactly ten beyond p90.
  EXPECT_EQ(TailPercentile(999), 98);  // p99 would leave only 9.
  EXPECT_EQ(TailPercentile(1000), 99);
  EXPECT_EQ(TailPercentile(100000), 99);  // Capped.
  for (size_t n = 11; n < 3000; n += 7) {
    const int p = TailPercentile(n);
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>(i);
    }
    const double at = Percentile(values, p);
    const auto beyond = static_cast<size_t>(n - 1 - static_cast<size_t>(at));
    EXPECT_GE(beyond, 10u) << "n=" << n << " p=" << p;
    if (p < 99) {
      const double next = Percentile(values, p + 1);
      EXPECT_LT(n - 1 - static_cast<size_t>(next), 10u) << "n=" << n << " p=" << p;
    }
  }
}

TEST(PercentileTest, NearestRankAndMedian) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Median(v), 3);
  EXPECT_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_EQ(Percentile({}, 50), 0);
}

Span MakeSpan(const char* name, int64_t start_ms, int64_t end_ms, int64_t parent) {
  Span span;
  span.name = name;
  span.start_ns = start_ms * 1000000;
  span.end_ns = end_ms * 1000000;
  span.parent = parent;
  return span;
}

TEST(SelfTimeTest, SubtractsMergedChildCoverage) {
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, -1),     // 0
      MakeSpan("a", 10, 40, 0),         // 1
      MakeSpan("b", 30, 50, 0),         // 2: overlaps a by 10
      MakeSpan("a.child", 15, 25, 1),   // 3
      MakeSpan("late", 90, 120, 0),     // 4: clipped to the root at 100
  };
  const std::vector<double> self = SelfMillis(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - (50 - 10) - (100 - 90));  // 50
  EXPECT_DOUBLE_EQ(self[1], 30 - 10);
  EXPECT_DOUBLE_EQ(self[2], 20);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(LedgerTest, RowsPlusResidualEqualMeasuredWall) {
  std::vector<Span> spans = {
      MakeSpan("verify", 0, 5, -1),   // Not under a replay: ignored.
      MakeSpan("check", 1, 4, 0),     // Ignored with its parent.
      MakeSpan("replay", 10, 80, -1),
      MakeSpan("parse", 10, 20, 2),
      MakeSpan("execute", 20, 70, 2),
      MakeSpan("classify", 30, 60, 4),
      MakeSpan("replay", 90, 110, -1),
      MakeSpan("parse", 90, 100, 6),
  };
  const Ledger ledger = BuildLedger(spans, 120, {{"storage", 5, 0, 1}});
  EXPECT_DOUBLE_EQ(ledger.wall_ms, 120);
  EXPECT_DOUBLE_EQ(ledger.SelfOf("parse"), 20);
  EXPECT_EQ(ledger.SpansOf("parse"), 2);
  EXPECT_DOUBLE_EQ(ledger.SelfOf("execute"), 20);
  EXPECT_DOUBLE_EQ(ledger.SelfOf("classify"), 30);
  EXPECT_DOUBLE_EQ(ledger.SelfOf("storage"), 5);
  // Replay containers and spans outside them are not layers.
  EXPECT_DOUBLE_EQ(ledger.SelfOf("replay"), 0);
  EXPECT_DOUBLE_EQ(ledger.SelfOf("verify"), 0);
  EXPECT_DOUBLE_EQ(ledger.SelfOf("check"), 0);
  // The residual is the measured time no layer call explains.
  EXPECT_DOUBLE_EQ(ledger.residual_ms, 120 - 20 - 20 - 30 - 5);
  EXPECT_DOUBLE_EQ(ledger.AttributedMillis() + ledger.residual_ms, ledger.wall_ms);
  EXPECT_EQ(ledger.rows.front().layer, "classify");  // Largest first.
  EXPECT_DOUBLE_EQ(ledger.rows.front().share, 0.25);
}

TEST(LedgerTest, ResidualIsNegativeWhenLayersExceedTheWall) {
  std::vector<Span> spans = {
      MakeSpan("replay", 0, 40, -1),
      MakeSpan("execute", 0, 40, 0),
  };
  const Ledger ledger = BuildLedger(spans, 30);
  EXPECT_DOUBLE_EQ(ledger.residual_ms, -10);
  EXPECT_DOUBLE_EQ(ledger.AttributedMillis() + ledger.residual_ms, 30);
}

TEST(LedgerTest, RecordedReplaysPartitionTheMeasuredWall) {
  SpanRecorder recorder(true);
  {
    ScopedSpan setup(&recorder, "setup");
  }
  for (int i = 0; i < 3; ++i) {
    ScopedSpan replay(&recorder, kReplaySpan, i);
    {
      ScopedSpan parse(&recorder, "parse");
    }
    const int64_t now = NowNs();
    recorder.AddChild("reported", now - 1000, now);
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 10u);
  EXPECT_EQ(spans[2].request_id, 0);  // Inherited from its replay.
  EXPECT_EQ(spans[2].parent, 1);
  const Ledger ledger = BuildLedger(spans, 5.0);
  EXPECT_NEAR(ledger.AttributedMillis() + ledger.residual_ms, 5.0, 1e-9);
  EXPECT_EQ(ledger.SpansOf("parse"), 3);
  EXPECT_EQ(ledger.SpansOf("reported"), 3);
  EXPECT_EQ(ledger.SpansOf("setup"), 0);
}

TEST(SpanRecorderTest, DisabledRecordsNothing) {
  SpanRecorder recorder(false);
  {
    ScopedSpan span(&recorder, "x");
  }
  EXPECT_EQ(recorder.Open("y"), -1);
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(OpTallyTest, CountsPerKind) {
  OpTally tally;
  tally.Ok("query");
  tally.Ok("query");
  tally.Fail("query", "wrong answer");
  tally.Ok("publish");
  EXPECT_EQ(tally.attempted(), 4);
  EXPECT_EQ(tally.failed(), 1);
  EXPECT_EQ(tally.by_kind().at("query"), (std::pair<int64_t, int64_t>(3, 1)));
  ASSERT_EQ(tally.first_failures().size(), 1u);
}

struct Delivered {
  std::vector<std::pair<common::FrameIndex, std::vector<video::Detection>>> frames;
  video::SweepStats stats;
};

Delivered Sweep(const video::StreamRun& run) {
  Delivered out;
  out.stats = run.ForEachFrame([&](common::FrameIndex frame,
                                   const std::vector<video::Detection>& detections) {
    out.frames.emplace_back(frame, detections);
  });
  return out;
}

bool SameDetections(const std::vector<video::Detection>& a,
                    const std::vector<video::Detection>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].object_id != b[i].object_id || a[i].frame != b[i].frame ||
        a[i].pixel_diff_suppressed != b[i].pixel_diff_suppressed ||
        a[i].appearance != b[i].appearance) {
      return false;
    }
  }
  return true;
}

TEST(PacedStreamRunTest, DeliversTheUndecoratedRunAndStampsDueTimes) {
  const video::ClassCatalog catalog(7);
  video::StreamProfile profile;
  ASSERT_TRUE(video::FindProfile("auburn_c", &profile));
  const video::StreamRun base(&catalog, profile, 20.0, 10.0, 99);
  const Delivered want = Sweep(base);

  for (double pace : {0.0, 400.0}) {
    const PacedStreamRun paced(base, pace);
    const int64_t start = NowNs();
    const Delivered got = Sweep(paced);
    const int64_t end = NowNs();
    ASSERT_EQ(got.frames.size(), want.frames.size()) << "pace " << pace;
    for (size_t i = 0; i < want.frames.size(); ++i) {
      EXPECT_EQ(got.frames[i].first, want.frames[i].first);
      EXPECT_TRUE(SameDetections(got.frames[i].second, want.frames[i].second)) << "frame " << i;
    }
    EXPECT_EQ(got.stats.total_frames, want.stats.total_frames);
    EXPECT_EQ(got.stats.frames_with_moving_objects, want.stats.frames_with_moving_objects);
    EXPECT_EQ(got.stats.total_detections, want.stats.total_detections);
    EXPECT_EQ(got.stats.suppressed_detections, want.stats.suppressed_detections);
    EXPECT_EQ(got.stats.num_objects, want.stats.num_objects);
    EXPECT_EQ(got.stats.aborted, want.stats.aborted);
    for (common::FrameIndex f = 1; f < base.num_frames(); ++f) {
      EXPECT_GE(paced.StampNs(f), paced.StampNs(f - 1));
    }
    EXPECT_GE(paced.StampNs(0), start);
    EXPECT_LE(paced.StampNs(base.num_frames() - 1), end);
    if (pace > 0.0) {
      // 200 frames at 400x of 10 fps: due times span ~49.75 ms.
      EXPECT_GE(MillisBetween(start, end), 49.0);
      EXPECT_EQ(paced.LagMillis().size(), want.frames.size());
      EXPECT_NEAR(MillisBetween(paced.StampNs(0), paced.StampNs(100)), 25.0, 0.01);
    } else {
      EXPECT_TRUE(paced.LagMillis().empty());
    }
  }
}

}  // namespace
}  // namespace focus::perfbench
