// Tests for dataset streams, environment profiles, domain schedules, and
// the per-experiment preset tables.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/stats.hpp"
#include "workload/dataset.hpp"
#include "workload/environment.hpp"
#include "workload/presets.hpp"

namespace lotus::workload {
namespace {

TEST(DatasetSpecs, KittiAndVisdroneDiffer) {
    const auto k = kitti();
    const auto v = visdrone2019();
    EXPECT_EQ(k.name, "KITTI");
    EXPECT_EQ(v.name, "VisDrone2019");
    // VisDrone: higher resolution, more proposals (aerial small objects).
    EXPECT_GT(v.resolution_scale, k.resolution_scale);
    EXPECT_GT(v.proposal_log_mean, k.proposal_log_mean);
}

TEST(DatasetSpecs, LookupByName) {
    EXPECT_EQ(dataset_by_name("KITTI").name, "KITTI");
    EXPECT_EQ(dataset_by_name("kitti").name, "KITTI");
    EXPECT_EQ(dataset_by_name("VisDrone2019").name, "VisDrone2019");
    EXPECT_EQ(dataset_by_name("visdrone").name, "VisDrone2019");
    EXPECT_THROW((void)dataset_by_name("COCO"), std::invalid_argument);
}

TEST(FrameStream, DeterministicForSeed) {
    FrameStream a(kitti(), 7);
    FrameStream b(kitti(), 7);
    for (int i = 0; i < 200; ++i) {
        const auto fa = a.next();
        const auto fb = b.next();
        ASSERT_EQ(fa.proposals, fb.proposals);
        ASSERT_DOUBLE_EQ(fa.jitter, fb.jitter);
        ASSERT_DOUBLE_EQ(fa.complexity, fb.complexity);
    }
}

TEST(FrameStream, DifferentSeedsDiffer) {
    FrameStream a(kitti(), 7);
    FrameStream b(kitti(), 8);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next().proposals == b.next().proposals) ++same;
    }
    EXPECT_LT(same, 30);
}

TEST(FrameStream, ProposalsWithinBounds) {
    const auto spec = visdrone2019();
    FrameStream s(spec, 3);
    for (int i = 0; i < 5000; ++i) {
        const auto f = s.next();
        ASSERT_GE(f.proposals, spec.proposal_min);
        ASSERT_LE(f.proposals, spec.proposal_max);
    }
}

TEST(FrameStream, MarginalMeanNearLogNormalMean) {
    const auto spec = kitti();
    FrameStream s(spec, 11);
    util::RunningStats stats;
    for (int i = 0; i < 20000; ++i) stats.add(s.next().proposals);
    // Clamping trims the tail, so allow a tolerant band around the
    // analytical log-normal mean.
    EXPECT_NEAR(stats.mean(), s.expected_proposals(), s.expected_proposals() * 0.15);
}

TEST(FrameStream, VisdroneHasMoreProposalsThanKitti) {
    FrameStream k(kitti(), 5);
    FrameStream v(visdrone2019(), 5);
    util::RunningStats ks;
    util::RunningStats vs;
    for (int i = 0; i < 5000; ++i) {
        ks.add(k.next().proposals);
        vs.add(v.next().proposals);
    }
    EXPECT_GT(vs.mean(), 1.7 * ks.mean());
}

TEST(FrameStream, TemporalCorrelationFromAr1) {
    // Consecutive frames of a video stream must correlate; shuffled frames
    // must not. Pearson on (x_t, x_{t+1}) should be near ar1_rho.
    FrameStream s(kitti(), 13);
    std::vector<double> xs;
    for (int i = 0; i < 8000; ++i) xs.push_back(s.next().proposals);
    std::vector<double> a(xs.begin(), xs.end() - 1);
    std::vector<double> b(xs.begin() + 1, xs.end());
    const double rho = util::pearson(a, b);
    EXPECT_GT(rho, 0.6);
    EXPECT_LT(rho, 0.95);
}

TEST(FrameStream, JitterCentredOnOne) {
    FrameStream s(kitti(), 17);
    util::RunningStats stats;
    for (int i = 0; i < 10000; ++i) stats.add(s.next().jitter);
    EXPECT_NEAR(stats.mean(), 1.0, 0.01);
    EXPECT_GT(stats.stddev(), 0.005);
    EXPECT_LT(stats.stddev(), 0.06);
}

TEST(FrameStream, IndicesIncrement) {
    FrameStream s(kitti(), 19);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(s.next().index, i);
    }
    EXPECT_EQ(s.frames_emitted(), 10u);
}

TEST(FrameStream, Validation) {
    auto spec = kitti();
    spec.proposal_max = spec.proposal_min;
    EXPECT_THROW(FrameStream(spec, 1), std::invalid_argument);
    spec = kitti();
    spec.ar1_rho = 1.0;
    EXPECT_THROW(FrameStream(spec, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Environments.
// ---------------------------------------------------------------------------

TEST(AmbientProfile, Constant) {
    const auto p = AmbientProfile::constant(25.0);
    EXPECT_DOUBLE_EQ(p.at(0), 25.0);
    EXPECT_DOUBLE_EQ(p.at(99999), 25.0);
}

TEST(AmbientProfile, ZonesFollowBreakpoints) {
    // The Fig. 7a profile: warm -> cold -> warm.
    const auto p = AmbientProfile::zones({{0, 25.0}, {1000, 0.0}, {2000, 25.0}});
    EXPECT_DOUBLE_EQ(p.at(0), 25.0);
    EXPECT_DOUBLE_EQ(p.at(999), 25.0);
    EXPECT_DOUBLE_EQ(p.at(1000), 0.0);
    EXPECT_DOUBLE_EQ(p.at(1999), 0.0);
    EXPECT_DOUBLE_EQ(p.at(2000), 25.0);
    EXPECT_DOUBLE_EQ(p.at(5000), 25.0);
}

TEST(AmbientProfile, ZoneValidation) {
    EXPECT_THROW((void)AmbientProfile::zones({}), std::invalid_argument);
    EXPECT_THROW((void)AmbientProfile::zones({{5, 25.0}}), std::invalid_argument);
    EXPECT_THROW((void)AmbientProfile::zones({{0, 25.0}, {0, 0.0}}),
                 std::invalid_argument);
}

TEST(AmbientProfile, PiecewiseFlatAndRampSegments) {
    // 10 iterations: flat 20 C, a ramp 20 -> 30 C over 0.4 of the run, flat 30 C.
    const auto p = AmbientProfile::piecewise(
        10,
        {{.start = 0.0, .from_c = 20.0, .to_c = 20.0},
         {.start = 0.3, .from_c = 20.0, .to_c = 30.0, .span = 0.4},
         {.start = 0.7, .from_c = 30.0, .to_c = 30.0}},
        "ramp");
    EXPECT_EQ(p.description(), "ramp");
    ASSERT_EQ(p.segments().size(), 3u);
    // First iteration whose fraction i / 10 reaches the start (3/10 = 0.3,
    // 7/10 = 0.7 in binary64).
    EXPECT_EQ(p.segments()[0].first_iteration, 0u);
    EXPECT_EQ(p.segments()[1].first_iteration, 3u);
    EXPECT_EQ(p.segments()[2].first_iteration, 7u);
    EXPECT_EQ(p.at(0), 20.0);
    EXPECT_EQ(p.at(2), 20.0);
    EXPECT_DOUBLE_EQ(p.at(3), 20.0);
    EXPECT_DOUBLE_EQ(p.at(5), 25.0);
    EXPECT_EQ(p.at(7), 30.0);
    EXPECT_EQ(p.at(100), 30.0);
}

TEST(AmbientProfile, PiecewiseBoundaryIsFirstIterationReachingTheFraction) {
    // 600 iterations: 7/18 of the run is 233.33..., so iteration 233 is
    // still before the boundary and 234 is the first past it.
    const auto p = AmbientProfile::piecewise(
        600, {{.start = 0.0, .from_c = 1.0, .to_c = 1.0}, {.start = 7.0 / 18.0, .from_c = 2.0,
                                                          .to_c = 2.0}},
        "step");
    EXPECT_EQ(p.segments()[1].first_iteration, 234u);
    EXPECT_EQ(p.at(233), 1.0);
    EXPECT_EQ(p.at(234), 2.0);
    // Boundaries so close that a segment covers no iteration: skipped.
    const auto q = AmbientProfile::piecewise(
        2,
        {{.start = 0.0, .from_c = 1.0, .to_c = 1.0},
         {.start = 0.1, .from_c = 2.0, .to_c = 2.0},
         {.start = 0.2, .from_c = 3.0, .to_c = 3.0}},
        "narrow");
    EXPECT_EQ(q.segments()[1].first_iteration, 1u);
    EXPECT_EQ(q.segments()[2].first_iteration, 1u);
    EXPECT_EQ(q.at(0), 1.0);
    EXPECT_EQ(q.at(1), 3.0);
}

TEST(AmbientProfile, PiecewiseValidation) {
    const auto make = [](std::size_t n, std::vector<AmbientSegment> segs) {
        return AmbientProfile::piecewise(n, std::move(segs), "x");
    };
    const AmbientSegment flat{.start = 0.0, .from_c = 25.0, .to_c = 25.0};
    EXPECT_NO_THROW((void)make(10, {flat}));
    EXPECT_THROW((void)make(0, {flat}), std::invalid_argument);  // no run
    EXPECT_THROW((void)make(10, {}), std::invalid_argument);     // no segment
    EXPECT_THROW((void)make(10, {{.start = 0.1, .from_c = 25.0, .to_c = 25.0}}),
                 std::invalid_argument); // does not start at 0
    EXPECT_THROW((void)make(10, {flat, {.start = 1.5, .from_c = 1.0, .to_c = 1.0}}),
                 std::invalid_argument); // starts past the run
    EXPECT_THROW((void)make(10, {flat, {.start = 0.5, .from_c = 1.0, .to_c = 1.0},
                                 {.start = 0.5, .from_c = 2.0, .to_c = 2.0}}),
                 std::invalid_argument); // starts do not ascend
    EXPECT_THROW((void)make(10, {flat, {.start = 0.5, .from_c = 25.0, .to_c = 30.0}}),
                 std::invalid_argument); // flat segment with two values
    EXPECT_THROW(
        (void)make(10, {flat, {.start = 0.5, .from_c = 25.0, .to_c = 30.0, .span = -0.1}}),
        std::invalid_argument); // negative span
    EXPECT_THROW((void)make(10, {flat, {.start = 0.5,
                                        .from_c = 25.0,
                                        .to_c = 30.0,
                                        .span = std::numeric_limits<double>::infinity()}}),
                 std::invalid_argument); // non-finite span
    EXPECT_THROW((void)make(10, {flat, {.start = 0.5,
                                        .from_c = std::numeric_limits<double>::quiet_NaN(),
                                        .to_c = 30.0,
                                        .span = 0.1}}),
                 std::invalid_argument); // non-finite value
}

TEST(AmbientProfile, ConstantAndZonesAreFlatSegments) {
    const auto c = AmbientProfile::constant(25.0);
    ASSERT_EQ(c.segments().size(), 1u);
    EXPECT_EQ(c.segments()[0].span, 0.0);
    EXPECT_EQ(c.description(), "constant 25 C");
    const auto z = AmbientProfile::zones({{0, 25.0}, {200, 0.0}, {400, 25.0}});
    ASSERT_EQ(z.segments().size(), 3u);
    EXPECT_EQ(z.segments()[1].first_iteration, 200u);
    EXPECT_EQ(z.segments()[2].first_iteration, 400u);
    EXPECT_EQ(z.description(), "zones: @0->25C @200->0C @400->25C");
}

TEST(DomainSchedule, ConstantSchedule) {
    const auto s = DomainSchedule::constant("KITTI", 0.45);
    EXPECT_EQ(s.at(0).dataset, "KITTI");
    EXPECT_EQ(s.at(12345).dataset, "KITTI");
    EXPECT_DOUBLE_EQ(s.at(0).latency_constraint_s, 0.45);
}

TEST(DomainSchedule, SegmentsSwitch) {
    // The Fig. 7b schedule: KITTI -> VisDrone with a different constraint.
    const auto s = DomainSchedule::segments({
        {0, "KITTI", 0.45},
        {1500, "VisDrone2019", 0.56},
    });
    EXPECT_EQ(s.at(1499).dataset, "KITTI");
    EXPECT_EQ(s.at(1500).dataset, "VisDrone2019");
    EXPECT_DOUBLE_EQ(s.at(2000).latency_constraint_s, 0.56);
}

TEST(DomainSchedule, Validation) {
    EXPECT_THROW((void)DomainSchedule::segments({}), std::invalid_argument);
    EXPECT_THROW((void)DomainSchedule::segments({{5, "KITTI", 0.4}}),
                 std::invalid_argument);
    EXPECT_THROW((void)DomainSchedule::constant("KITTI", 0.0), std::invalid_argument);
    EXPECT_THROW((void)DomainSchedule::segments(
                     {{0, "KITTI", 0.4}, {0, "VisDrone2019", 0.5}}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Presets.
// ---------------------------------------------------------------------------

TEST(Presets, LatencyConstraintsCoverMatrix) {
    using detector::DetectorKind;
    for (const char* device : {"jetson-orin-nano", "mi-11-lite"}) {
        for (const auto kind : {DetectorKind::faster_rcnn, DetectorKind::mask_rcnn,
                                DetectorKind::yolo_v5}) {
            for (const char* ds : {"KITTI", "VisDrone2019"}) {
                const double L = latency_constraint_s(device, kind, ds);
                ASSERT_GT(L, 0.0);
                ASSERT_LT(L, 10.0);
            }
        }
    }
}

TEST(Presets, ConstraintsScaleWithWorkload) {
    using detector::DetectorKind;
    // VisDrone budgets exceed KITTI budgets; Mi 11 budgets exceed Orin's.
    EXPECT_GT(latency_constraint_s("jetson-orin-nano", DetectorKind::faster_rcnn,
                                   "VisDrone2019"),
              latency_constraint_s("jetson-orin-nano", DetectorKind::faster_rcnn,
                                   "KITTI"));
    EXPECT_GT(
        latency_constraint_s("mi-11-lite", DetectorKind::faster_rcnn, "KITTI"),
        latency_constraint_s("jetson-orin-nano", DetectorKind::faster_rcnn, "KITTI"));
    // MaskRCNN gets more budget than FasterRCNN.
    EXPECT_GT(latency_constraint_s("jetson-orin-nano", DetectorKind::mask_rcnn,
                                   "KITTI"),
              latency_constraint_s("jetson-orin-nano", DetectorKind::faster_rcnn,
                                   "KITTI"));
}

TEST(Presets, UnknownDeviceOrDatasetThrows) {
    using detector::DetectorKind;
    EXPECT_THROW((void)latency_constraint_s("pixel-9", DetectorKind::faster_rcnn,
                                            "KITTI"),
                 std::invalid_argument);
    EXPECT_THROW((void)latency_constraint_s("jetson-orin-nano",
                                            DetectorKind::faster_rcnn, "COCO"),
                 std::invalid_argument);
}

TEST(Presets, Map50MatchesPaperOrdering) {
    using detector::DetectorKind;
    for (const char* ds : {"KITTI", "VisDrone2019"}) {
        const double yolo = map50(DetectorKind::yolo_v5, ds);
        const double frcnn = map50(DetectorKind::faster_rcnn, ds);
        const double mrcnn = map50(DetectorKind::mask_rcnn, ds);
        // Fig. 1: two-stage detectors outscore YOLOv5; MaskRCNN leads.
        EXPECT_GT(frcnn, yolo) << ds;
        EXPECT_GT(mrcnn, frcnn) << ds;
    }
    // Small-object aerial imagery is harder for everyone.
    EXPECT_GT(map50(detector::DetectorKind::faster_rcnn, "KITTI"),
              map50(detector::DetectorKind::faster_rcnn, "VisDrone2019"));
}

} // namespace
} // namespace lotus::workload
