#include "harness/scenario.hpp"

#include <algorithm>

#include "governors/linux_governors.hpp"
#include "governors/ztt.hpp"
#include "platform/presets.hpp"

namespace lotus::harness {

bool Scenario::has_tag(const std::string& tag) const {
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

ArmSpec fleet_arm(ArmSpec base, const std::string& router, bool migrate) {
    base.name += "+" + router + (migrate ? "+migrate" : "");
    base.overrides.router = router;
    base.overrides.migrate_on_throttle = migrate;
    return base;
}

namespace {

/// Spec-dependent arms define the device-parameterised factory once and
/// derive the classic single-spec `make` from it, so fleet episodes hand
/// every pool device a governor sized for *its* ladder and thresholds
/// while single-device episodes keep their baked-in spec.
ArmSpec spec_arm(std::string name, const platform::DeviceSpec& spec,
                 std::function<std::unique_ptr<governors::Governor>(
                     const platform::DeviceSpec&, std::uint64_t)>
                     make_for) {
    ArmSpec arm;
    arm.name = std::move(name);
    arm.make_for = std::move(make_for);
    arm.make = [f = arm.make_for, spec](std::uint64_t seed) { return f(spec, seed); };
    return arm;
}

} // namespace

ArmSpec default_arm(const platform::DeviceSpec& spec) {
    return spec_arm("default", spec,
                    [](const platform::DeviceSpec& dev,
                       std::uint64_t) -> std::unique_ptr<governors::Governor> {
                        const bool orin = dev.name.find("orin") != std::string::npos;
                        return std::make_unique<governors::KernelGovernor>(
                            orin ? governors::KernelGovernor::orin_nano()
                                 : governors::KernelGovernor::mi11_lite());
                    });
}

ArmSpec ztt_arm(const platform::DeviceSpec& spec) {
    return spec_arm("zTT", spec,
                    [](const platform::DeviceSpec& dev,
                       std::uint64_t seed) -> std::unique_ptr<governors::Governor> {
                        governors::ZttConfig cfg;
                        cfg.t_thres_celsius = platform::reward_threshold_celsius(dev);
                        cfg.seed = seed;
                        return std::make_unique<governors::ZttGovernor>(
                            dev.cpu.opp.num_levels(), dev.gpu.opp.num_levels(), cfg);
                    });
}

ArmSpec lotus_arm(const platform::DeviceSpec& spec) {
    core::LotusConfig cfg;
    cfg.reward.t_thres_celsius = platform::reward_threshold_celsius(spec);
    return lotus_arm_with(spec, "Lotus", cfg);
}

ArmSpec lotus_arm_with(const platform::DeviceSpec& spec, const std::string& label,
                       core::LotusConfig cfg) {
    return spec_arm(
        label, spec,
        [cfg](const platform::DeviceSpec& dev,
              std::uint64_t seed) -> std::unique_ptr<governors::Governor> {
            auto run_cfg = cfg;
            // A threshold at/above the device's hardware trip would reward
            // riding the throttler; clamp to the device's safety margin
            // (per pool device in heterogeneous fleets).
            if (run_cfg.reward.t_thres_celsius >= platform::throttle_bound_celsius(dev)) {
                run_cfg.reward.t_thres_celsius = platform::reward_threshold_celsius(dev);
            }
            run_cfg.seed = seed;
            return std::make_unique<core::LotusAgent>(dev.cpu.opp.num_levels(),
                                                      dev.gpu.opp.num_levels(), run_cfg);
        });
}

ArmSpec fixed_arm(std::size_t cpu_level, std::size_t gpu_level) {
    ArmSpec arm;
    arm.name = "fixed(" + std::to_string(cpu_level) + "," + std::to_string(gpu_level) + ")";
    arm.make = [=](std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<governors::FixedGovernor>(cpu_level, gpu_level);
    };
    return arm;
}

ArmSpec performance_arm() {
    ArmSpec arm;
    arm.name = "performance";
    arm.make = [](std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<governors::PerformanceGovernor>();
    };
    return arm;
}

ArmSpec powersave_arm() {
    ArmSpec arm;
    arm.name = "powersave";
    arm.make = [](std::uint64_t) -> std::unique_ptr<governors::Governor> {
        return std::make_unique<governors::PowersaveGovernor>();
    };
    return arm;
}

} // namespace lotus::harness
