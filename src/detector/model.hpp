#pragma once
// Detector pipeline models (Sec. 4.1.2 of the paper).
//
// A two-stage detector decomposes into:
//   stage 1: pre-processing (CPU) -> backbone (GPU) -> RPN (GPU)
//   stage 2: RoI pooling + classifier (GPU, affine in #proposals)
//            (-> mask head for Mask R-CNN, also per-proposal)
//            -> post-processing (CPU, affine in #kept detections)
//
// One-stage detectors (YOLOv5) run a single fixed-cost network plus NMS:
// their per-frame work does not depend on image content, which is why their
// latency variation is negligible (Fig. 1).

#include <string>
#include <vector>

#include "detector/work.hpp"

namespace lotus::detector {

enum class DetectorKind { faster_rcnn, mask_rcnn, yolo_v5 };

[[nodiscard]] const char* to_string(DetectorKind kind) noexcept;

/// Component-level cost model of a detector. All costs are in abstract ops
/// at a reference input resolution; callers scale resolution-dependent parts
/// by the dataset's resolution factor.
struct DetectorSpec {
    std::string name;
    DetectorKind kind = DetectorKind::faster_rcnn;

    // --- stage 1 (resolution-dependent) ------------------------------------
    WorkItem preprocess;
    WorkItem backbone;
    WorkItem rpn;

    // --- stage 2 ------------------------------------------------------------
    WorkItem roi_base;         // fixed per frame
    WorkItem roi_per_proposal; // multiplied by #proposals
    WorkItem post_base;        // fixed per frame (CPU)
    WorkItem post_per_kept;    // multiplied by #kept detections (CPU)
    /// Fraction of proposals surviving to post-processing.
    double keep_fraction = 0.3;
    /// RPN keeps at most this many proposals (test-time top-N config).
    int max_proposals = 1000;

    [[nodiscard]] bool is_two_stage() const noexcept {
        return kind != DetectorKind::yolo_v5;
    }
};

class DetectorModel {
public:
    explicit DetectorModel(DetectorSpec spec);

    [[nodiscard]] const DetectorSpec& spec() const noexcept { return spec_; }
    [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
    [[nodiscard]] DetectorKind kind() const noexcept { return spec_.kind; }
    [[nodiscard]] bool is_two_stage() const noexcept { return spec_.is_two_stage(); }
    [[nodiscard]] int max_proposals() const noexcept { return spec_.max_proposals; }

    /// Clamp a raw RPN proposal count to the model's top-N configuration.
    [[nodiscard]] int clamp_proposals(int raw) const noexcept;

    /// Stage-1 components in execution order, scaled for resolution and
    /// per-frame complexity.
    [[nodiscard]] std::vector<WorkItem> stage1_components(double resolution_scale,
                                                          double complexity) const;

    /// Stage-2 components in execution order for the given proposal count.
    [[nodiscard]] std::vector<WorkItem> stage2_components(int proposals) const;

    /// Total stage work (sums of the component lists), for profiling.
    [[nodiscard]] WorkItem stage1_total(double resolution_scale, double complexity) const;
    [[nodiscard]] WorkItem stage2_total(int proposals) const;

private:
    DetectorSpec spec_;
};

/// Model zoo calibrated against the paper's profiling (Fig. 2 and Tables
/// 1-2; open gaps: ROADMAP.md item 9): stage 1 carries ~80% of fixed-frequency
/// latency; stage-2 latency is affine in the proposal count with the
/// Fig. 2 slopes (Mask R-CNN per-proposal cost >> Faster R-CNN's).
[[nodiscard]] DetectorModel faster_rcnn_r50();
[[nodiscard]] DetectorModel mask_rcnn_r50();
[[nodiscard]] DetectorModel yolov5s();

[[nodiscard]] DetectorModel make_detector(DetectorKind kind);

} // namespace lotus::detector
