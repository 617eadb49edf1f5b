#include "runtime/runner.hpp"

#include <map>
#include <stdexcept>

#include "telemetry/recorder.hpp"
#include "workload/presets.hpp"

namespace lotus::runtime {

namespace {

std::uint64_t stream_seed(std::uint64_t base, const std::string& dataset) {
    std::uint64_t h = base ^ 0x9e3779b97f4a7c15ULL;
    for (const char c : dataset) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
    return h;
}

} // namespace

void pretrain(platform::EdgeDevice& device, InferenceEngine& engine,
              const detector::DetectorModel& model, governors::Governor& governor,
              workload::FrameStream& frames, double constraint_s, std::size_t iterations) {
    if (iterations == 0) return;
    // Pretrain advances the clock and then rewinds it via reset();
    // recording it would break the trace's monotonic timeline.
    telemetry::SuspendScope no_telemetry;
    for (std::size_t i = 0; i < iterations; ++i) {
        engine.run_frame(model, frames.next(), governor, constraint_s, i);
    }
    // Cold restart for the measured phase: the device cools down and the
    // clock resets, but the governor keeps its learned state.
    device.reset();
    engine.reset();
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config) : config_(std::move(config)) {
    if (config_.iterations == 0) {
        throw std::invalid_argument("ExperimentRunner: zero iterations");
    }
}

Trace ExperimentRunner::run(governors::Governor& governor) const {
    platform::EdgeDevice device(config_.device_spec);
    InferenceEngine engine(device);
    const auto model = detector::make_detector(config_.detector);

    // One frame stream per dataset, shared across pre-training and the
    // measured phase (streams are cheap; determinism comes from the seed).
    std::map<std::string, workload::FrameStream> streams;
    const auto stream_for = [&](const std::string& dataset) -> workload::FrameStream& {
        auto it = streams.find(dataset);
        if (it == streams.end()) {
            it = streams
                     .emplace(dataset,
                              workload::FrameStream(workload::dataset_by_name(dataset),
                                                    stream_seed(config_.seed, dataset)))
                     .first;
        }
        return it->second;
    };

    // --- pre-training phase (not recorded) ----------------------------------
    const auto& seg0 = config_.schedule.at(0);
    device.set_ambient(config_.ambient.at(0));
    pretrain(device, engine, model, governor, stream_for(seg0.dataset),
             seg0.latency_constraint_s, config_.pretrain_iterations);

    // --- measured phase ------------------------------------------------------
    Trace trace;
    trace.reserve(config_.iterations);
    for (std::size_t i = 0; i < config_.iterations; ++i) {
        const auto& seg = config_.schedule.at(i);
        const double ambient = config_.ambient.at(i);
        device.set_ambient(ambient);
        auto& stream = stream_for(seg.dataset);
        auto frame = stream.next();
        if (const auto& pin = config_.pinned_proposals) {
            frame.proposals = *pin;
            frame.resolution_scale = 1.0;
            frame.complexity = 1.0;
            frame.jitter = 1.0;
        }
        const auto result =
            engine.run_frame(model, frame, governor, seg.latency_constraint_s, i);

        TraceRow row;
        row.iteration = i;
        row.start_time_s = result.start_time_s;
        row.latency_s = result.latency_s;
        row.stage1_s = result.stage1_s;
        row.stage2_s = result.stage2_s;
        row.proposals = result.proposals_used;
        row.cpu_temp = result.cpu_temp;
        row.gpu_temp = result.gpu_temp;
        row.cpu_level = result.cpu_level_stage2;
        row.gpu_level = result.gpu_level_stage2;
        row.constraint_s = result.constraint_s;
        row.throttled = result.throttled;
        row.energy_j = result.energy_j;
        row.ambient_c = ambient;
        row.dataset = seg.dataset;
        trace.add(std::move(row));
    }
    return trace;
}

ExperimentConfig static_experiment(platform::DeviceSpec device_spec,
                                   detector::DetectorKind detector,
                                   const std::string& dataset_name, std::size_t iterations,
                                   std::size_t pretrain_iterations, std::uint64_t seed) {
    const double constraint =
        workload::latency_constraint_s(device_spec.name, detector, dataset_name);
    ExperimentConfig cfg{
        .device_spec = std::move(device_spec),
        .detector = detector,
        .schedule = workload::DomainSchedule::constant(dataset_name, constraint),
        .ambient = workload::AmbientProfile::constant(25.0),
        .iterations = iterations,
        .pretrain_iterations = pretrain_iterations,
        .seed = seed,
        .pinned_proposals = std::nullopt,
    };
    return cfg;
}

} // namespace lotus::runtime
