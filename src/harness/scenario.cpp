#include "harness/scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "governors/linux_governors.hpp"
#include "governors/ztt.hpp"
#include "platform/presets.hpp"
#include "workload/presets.hpp"

namespace lotus::harness {

bool Scenario::has_tag(const std::string& tag) const {
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

Scenario load_scenario(const platform::DeviceSpec& spec, std::string name, std::string title,
                       const LoadShape& shape) {
    Scenario s(runtime::static_experiment(spec, shape.detector, shape.dataset, 1, 0));
    s.name = std::move(name);
    s.title = std::move(title);
    s.tags = {"serving"};
    serving::LoadConfig* load = nullptr;
    if (shape.fleet) {
        s.tags.push_back("fleet");
        load = &s.fleet.emplace();
    } else {
        load = &s.serving.emplace(spec);
    }
    load->detector = shape.detector;
    load->scheduler = shape.scheduler;
    load->pretrain_iterations = shape.pretrain_iterations;
    load->pretrain_constraint_s =
        workload::latency_constraint_s(spec.name, shape.detector, shape.dataset);
    return s;
}

ArmSpec fleet_arm(ArmSpec base, const std::string& router, bool migrate) {
    base.name += "+" + router + (migrate ? "+migrate" : "");
    base.overrides.router = router;
    base.overrides.migrate_on_throttle = migrate;
    return base;
}

namespace {

using namespace governors;

/// build()'s visitor: one overload per GovernorSpec alternative.
struct Builder {
    const platform::DeviceSpec& dev;
    std::uint64_t seed;
    using Ptr = std::unique_ptr<Governor>;

    Ptr operator()(const Custom& c) const {
        throw std::invalid_argument("custom governor '" + c.name +
                                    "' has no vocabulary governor to build; its arm sets "
                                    "make_for");
    }
    Ptr operator()(const StockGovernors&) const {
        const bool orin = dev.name.find("orin") != std::string::npos;
        return std::make_unique<KernelGovernor>(orin ? KernelGovernor::orin_nano()
                                                     : KernelGovernor::mi11_lite());
    }
    Ptr operator()(const Ondemand&) const {
        return std::make_unique<KernelGovernor>("ondemand+simple_ondemand",
                                                CpuPolicyKind::ondemand, SimpleOndemandParams{});
    }
    Ptr operator()(const Conservative&) const {
        return std::make_unique<KernelGovernor>("conservative+simple_ondemand",
                                                CpuPolicyKind::conservative,
                                                SimpleOndemandParams{});
    }
    Ptr operator()(const Ztt&) const {
        return std::make_unique<ZttGovernor>(
            dev.cpu.opp.num_levels(), dev.gpu.opp.num_levels(),
            ZttConfig{.t_thres_celsius = platform::reward_threshold_celsius(dev), .seed = seed});
    }
    Ptr operator()(const Lotus& l) const {
        auto cfg = l.config;
        // A threshold at/above the device's hardware trip would reward
        // riding the throttler; clamp to the device's safety margin
        // (per pool device in heterogeneous fleets).
        if (cfg.reward.t_thres_celsius >= platform::throttle_bound_celsius(dev)) {
            cfg.reward.t_thres_celsius = platform::reward_threshold_celsius(dev);
        }
        cfg.seed = seed;
        return std::make_unique<core::LotusAgent>(dev.cpu.opp.num_levels(),
                                                  dev.gpu.opp.num_levels(), cfg);
    }
    Ptr operator()(const Fixed& f) const {
        const auto cpus = dev.cpu.opp.num_levels();
        const auto gpus = dev.gpu.opp.num_levels();
        if (f.cpu >= cpus || f.gpu >= gpus) {
            throw std::invalid_argument(
                "fixed:" + std::to_string(f.cpu) + "," + std::to_string(f.gpu) +
                " is outside the device's ladder (" + std::to_string(cpus) + " CPU x " +
                std::to_string(gpus) + " GPU levels)");
        }
        return std::make_unique<FixedGovernor>(f.cpu, f.gpu);
    }
    Ptr operator()(const Performance&) const { return std::make_unique<PerformanceGovernor>(); }
    Ptr operator()(const Powersave&) const { return std::make_unique<PowersaveGovernor>(); }
    Ptr operator()(const Random&) const { return std::make_unique<RandomGovernor>(seed); }
};

/// The vocabulary name of each alternative (the default arm name).
struct VocabularyName {
    std::string operator()(const Custom& c) const { return c.name; }
    std::string operator()(const StockGovernors&) const { return "default"; }
    std::string operator()(const Ondemand&) const { return "ondemand"; }
    std::string operator()(const Conservative&) const { return "conservative"; }
    std::string operator()(const Ztt&) const { return "zTT"; }
    std::string operator()(const Lotus&) const { return "Lotus"; }
    std::string operator()(const Fixed& f) const {
        return "fixed(" + std::to_string(f.cpu) + "," + std::to_string(f.gpu) + ")";
    }
    std::string operator()(const Performance&) const { return "performance"; }
    std::string operator()(const Powersave&) const { return "powersave"; }
    std::string operator()(const Random&) const { return "random"; }
};

} // namespace

std::unique_ptr<governors::Governor> build(const GovernorSpec& g,
                                           const platform::DeviceSpec& dev,
                                           std::uint64_t seed) {
    return std::visit(Builder{dev, seed}, g);
}

ArmSpec governor_arm(GovernorSpec g, std::string name) {
    ArmSpec arm;
    arm.name = name.empty() ? std::visit(VocabularyName{}, g) : std::move(name);
    arm.make_for = [g](const platform::DeviceSpec& dev, std::uint64_t seed) {
        return build(g, dev, seed);
    };
    arm.governor = std::move(g);
    return arm;
}

core::LotusConfig lotus_config(const platform::DeviceSpec& spec) {
    core::LotusConfig cfg;
    cfg.reward.t_thres_celsius = platform::reward_threshold_celsius(spec);
    return cfg;
}

} // namespace lotus::harness
