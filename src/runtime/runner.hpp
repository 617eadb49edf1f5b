#pragma once
// ExperimentRunner: the harness behind every figure and table.
//
// One run = one (device, detector, governor) triple executed over a domain
// schedule (dataset + latency constraint per segment) and an ambient
// profile, for a configured number of iterations. An optional pre-training
// phase runs the governor on the first segment without recording -- the
// paper trains its agents for 10,000 iterations (Sec. 4.4.1) before the
// comparisons; the device is reset to a cold start afterwards while the
// agent keeps its learned weights. runtime::pretrain is that warm-up, shared
// with the serving and fleet engines.

#include <cstdint>
#include <functional>
#include <memory>

#include "detector/model.hpp"
#include "platform/device.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"
#include "workload/dataset.hpp"
#include "workload/environment.hpp"

namespace lotus::runtime {

/// Transform applied to a sampled frame before execution.
using FrameHook = std::function<void(workload::FrameSample&, std::size_t iteration)>;

/// Warm a governor up: run `iterations` unrecorded frames from `frames`
/// against `constraint_s` (each passed through `hook` when set), with
/// telemetry suspended, then cold-restart the device and the engine. The
/// governor keeps its learned state. A no-op for zero iterations.
void pretrain(platform::EdgeDevice& device, InferenceEngine& engine,
              const detector::DetectorModel& model, governors::Governor& governor,
              workload::FrameStream& frames, double constraint_s, std::size_t iterations,
              const FrameHook& hook = nullptr);

struct ExperimentConfig {
    platform::DeviceSpec device_spec;
    detector::DetectorKind detector = detector::DetectorKind::faster_rcnn;
    workload::DomainSchedule schedule;
    workload::AmbientProfile ambient;
    std::size_t iterations = 3000;
    std::size_t pretrain_iterations = 0;
    std::uint64_t seed = 42;
    /// Optional transform applied to every sampled frame before execution.
    /// Probe scenarios (e.g. the Fig. 2 proposal sweep) use it to pin frame
    /// properties that are normally drawn from the dataset stream.
    FrameHook frame_hook;
};

class ExperimentRunner {
public:
    explicit ExperimentRunner(ExperimentConfig config);

    /// Execute the experiment under the given governor. Each call constructs
    /// a fresh device, engine and frame stream (cold start); the governor
    /// keeps whatever state it accumulated (call with a fresh governor for
    /// independent runs). The method is const and touches no shared state,
    /// so one runner -- or many runners -- can execute episodes from
    /// concurrent threads as long as each thread brings its own governor.
    [[nodiscard]] Trace run(governors::Governor& governor) const;

    [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

private:
    ExperimentConfig config_;
};

/// Convenience: the static-environment single-dataset configuration used by
/// Figs. 4-6 and Tables 1-2.
[[nodiscard]] ExperimentConfig static_experiment(platform::DeviceSpec device_spec,
                                                 detector::DetectorKind detector,
                                                 const std::string& dataset_name,
                                                 std::size_t iterations,
                                                 std::size_t pretrain_iterations,
                                                 std::uint64_t seed = 42);

} // namespace lotus::runtime
