// Property suite: engine invariants over the full (device x detector x GPU
// level) matrix. These are the guarantees every experiment in the bench
// harness silently relies on.

#include <gtest/gtest.h>

#include <tuple>

#include "governors/linux_governors.hpp"
#include "platform/presets.hpp"
#include "runtime/engine.hpp"

namespace lotus::runtime {
namespace {

using detector::DetectorKind;

using MatrixParam = std::tuple<const char*, DetectorKind>;

class EngineMatrix : public ::testing::TestWithParam<MatrixParam> {
protected:
    static platform::DeviceSpec spec() {
        return std::string(std::get<0>(GetParam())) == "orin"
                   ? platform::orin_nano_spec()
                   : platform::mi11_lite_spec();
    }
    static detector::DetectorModel model() {
        return detector::make_detector(std::get<1>(GetParam()));
    }
    static workload::FrameSample frame(int proposals = 150) {
        workload::FrameSample f;
        f.proposals = proposals;
        return f;
    }
};

TEST_P(EngineMatrix, FrameInvariantsHold) {
    auto device_spec = spec();
    platform::EdgeDevice device(device_spec);
    InferenceEngine engine(device);
    const auto m = model();
    governors::FixedGovernor governor(device_spec.cpu.opp.num_levels() - 1,
                                      device_spec.gpu.opp.num_levels() - 1);

    for (std::size_t i = 0; i < 5; ++i) {
        const auto r = engine.run_frame(m, frame(), governor, 10.0, i);
        ASSERT_GT(r.latency_s, 0.0);
        ASSERT_GT(r.stage1_s, 0.0);
        ASSERT_GE(r.stage2_s, 0.0);
        ASSERT_NEAR(r.latency_s, r.stage1_s + r.stage2_s, 1e-9);
        ASSERT_GT(r.energy_j, 0.0);
        ASSERT_GE(r.cpu_temp, device.ambient());
        ASSERT_GE(r.gpu_temp, device.ambient());
        ASSERT_LT(r.latency_s, 20.0) << "frame latency out of any plausible range";
    }
    // Clock and energy are cumulative and consistent.
    EXPECT_GT(device.now(), 0.0);
    EXPECT_GT(device.energy_joules(), 0.0);
}

TEST_P(EngineMatrix, LatencyMonotoneInGpuLevel) {
    auto device_spec = spec();
    const auto m = model();
    double prev = 1e300;
    for (std::size_t gpu_level = 0; gpu_level < device_spec.gpu.opp.num_levels();
         ++gpu_level) {
        platform::EdgeDevice device(device_spec);
        InferenceEngine engine(device);
        governors::FixedGovernor governor(device_spec.cpu.opp.num_levels() - 1, gpu_level);
        const auto r = engine.run_frame(m, frame(), governor, 10.0, 0);
        ASSERT_LT(r.latency_s, prev)
            << "higher GPU level must not be slower (level " << gpu_level << ")";
        prev = r.latency_s;
    }
}

TEST_P(EngineMatrix, LatencyMonotoneInCpuLevel) {
    auto device_spec = spec();
    const auto m = model();
    double prev = 1e300;
    for (std::size_t cpu_level = 0; cpu_level < device_spec.cpu.opp.num_levels();
         ++cpu_level) {
        platform::EdgeDevice device(device_spec);
        InferenceEngine engine(device);
        governors::FixedGovernor governor(cpu_level, device_spec.gpu.opp.num_levels() - 1);
        const auto r = engine.run_frame(m, frame(), governor, 10.0, 0);
        ASSERT_LE(r.latency_s, prev + 1e-9)
            << "higher CPU level must not be slower (level " << cpu_level << ")";
        prev = r.latency_s;
    }
}

TEST_P(EngineMatrix, EnergyMonotoneInGpuLevelPerFrame) {
    // Power rises superlinearly with level while latency falls sublinearly
    // (memory floor), so the top levels must cost more energy per frame than
    // the mid ladder -- the race-to-idle trade-off the agents navigate.
    auto device_spec = spec();
    const auto m = model();
    const auto n = device_spec.gpu.opp.num_levels();
    auto energy_at = [&](std::size_t level) {
        platform::EdgeDevice device(device_spec);
        InferenceEngine engine(device);
        governors::FixedGovernor governor(device_spec.cpu.opp.num_levels() - 1, level);
        return engine.run_frame(m, frame(), governor, 10.0, 0).energy_j;
    };
    EXPECT_GT(energy_at(n - 1), energy_at(n - 3));
}

TEST_P(EngineMatrix, GovernorTicksReceiveSaneUtilization) {
    auto device_spec = spec();
    platform::EdgeDevice device(device_spec);
    InferenceEngine engine(device);
    const auto m = model();
    const bool orin = device_spec.name.find("orin") != std::string::npos;
    auto governor = orin ? governors::KernelGovernor::orin_nano()
                         : governors::KernelGovernor::mi11_lite();
    for (std::size_t i = 0; i < 3; ++i) {
        const auto r = engine.run_frame(m, frame(), governor, 10.0, i);
        ASSERT_GT(r.latency_s, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    DeviceDetectorMatrix, EngineMatrix,
    ::testing::Combine(::testing::Values("orin", "mi11"),
                       ::testing::Values(DetectorKind::faster_rcnn,
                                         DetectorKind::mask_rcnn,
                                         DetectorKind::yolo_v5)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
        return std::string(std::get<0>(info.param)) + "_" +
               detector::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace lotus::runtime
