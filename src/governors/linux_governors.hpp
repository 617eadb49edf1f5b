#pragma once
// The kernel-governor baseline family (Sec. 2 "Existing DVFS techniques" and
// Sec. 5.1.1 "Baselines").
//
// * SchedutilPolicy     -- Linux's utilization-driven CPU governor:
//                          f_next = headroom * util * f_max (EWMA-smoothed,
//                          fast up / slow down like the kernel's rate limits).
// * SimpleOndemandPolicy-- devfreq's GPU governor: jump to max above the
//                          up-threshold, proportionally scale down below it.
//                          With NVIDIA-ish thresholds it doubles for the
//                          Jetson's nvhost_podgov; with Qualcomm-ish ones it
//                          approximates msm-adreno-tz (Mi 11 Lite).
// * KernelGovernor      -- a CPU policy + a devfreq GPU policy, both running
//                          on kernel ticks, application-agnostic. Its board
//                          presets (schedutil + the board's devfreq) are
//                          the paper's "default" baseline.
// * FixedGovernor / RandomGovernor -- diagnostics and lower/upper anchors.

#include <cstdint>
#include <string>

#include "governors/governor.hpp"
#include "util/rng.hpp"

namespace lotus::governors {

struct SchedutilParams {
    /// Kernel applies a 25% headroom: target = 1.25 * util * f_max.
    double headroom = 1.25;
    /// EWMA coefficient for the utilization estimate (per tick).
    double util_ewma = 0.35;
    /// Minimum seconds between down-scaling decisions (kernel rate limit).
    double down_rate_limit_s = 0.1;
};

/// CPU-side utilization policy; produces a desired CPU level per tick.
class SchedutilPolicy {
public:
    explicit SchedutilPolicy(SchedutilParams params = {});

    [[nodiscard]] std::size_t decide(const TickObservation& tick);

    [[nodiscard]] double smoothed_util() const noexcept { return util_; }

private:
    SchedutilParams params_;
    double util_ = 0.0;
    double last_down_s_ = -1e9;
    std::size_t level_ = 0;
    bool initialized_ = false;
};

struct SimpleOndemandParams {
    /// Busy ratio above which the policy jumps straight to the max level.
    double upthreshold = 0.90;
    /// Hysteresis band below the up-threshold.
    double downdifferential = 0.05;
    /// EWMA coefficient for the busy estimate (per tick).
    double busy_ewma = 0.5;
};

/// GPU-side devfreq policy; produces a desired GPU level per tick.
class SimpleOndemandPolicy {
public:
    explicit SimpleOndemandPolicy(SimpleOndemandParams params = {});

    [[nodiscard]] std::size_t decide(const TickObservation& tick);

    [[nodiscard]] double smoothed_busy() const noexcept { return busy_; }

private:
    SimpleOndemandParams params_;
    double busy_ = 0.0;
    bool initialized_ = false;
};

struct OndemandParams {
    /// Busy percentage above which the governor jumps to max frequency.
    double up_threshold = 0.80;
    /// Sampling-down factor: hold this many ticks before scaling down.
    int sampling_down_factor = 5;
};

/// The classic Linux `ondemand` CPU governor [Pallipadi & Starikovskiy '06],
/// referenced by the paper's related-work section: jump straight to max when
/// utilization crosses the up-threshold, step down proportionally when load
/// subsides (rate-limited by the sampling-down factor).
class OndemandPolicy {
public:
    explicit OndemandPolicy(OndemandParams params = {});

    [[nodiscard]] std::size_t decide(const TickObservation& tick);

private:
    OndemandParams params_;
    int hold_ticks_ = 0;
    std::size_t level_ = 0;
    bool initialized_ = false;
};

struct ConservativeParams {
    double up_threshold = 0.80;
    double down_threshold = 0.20;
};

/// The Linux `conservative` CPU governor: like ondemand but moves one
/// frequency step at a time in both directions (designed for battery-powered
/// devices; included for governor-family completeness and tests).
class ConservativePolicy {
public:
    explicit ConservativePolicy(ConservativeParams params = {});

    [[nodiscard]] std::size_t decide(const TickObservation& tick);

private:
    ConservativeParams params_;
    std::size_t level_ = 0;
    bool initialized_ = false;
};

/// CPU policy variants selectable for the composite kernel governor.
enum class CpuPolicyKind { schedutil, ondemand, conservative };

/// Composite kernel governor: a selectable CPU policy and a devfreq GPU
/// policy, both acting only on kernel ticks (CPU decides first).
class KernelGovernor final : public Governor {
public:
    KernelGovernor(std::string label, CpuPolicyKind cpu_kind,
                   SimpleOndemandParams gpu_params, double tick_interval_s = 0.02);

    /// The paper's "default" baseline on the Jetson Orin Nano: schedutil +
    /// nvhost_podgov-like devfreq.
    [[nodiscard]] static KernelGovernor orin_nano();
    /// The paper's "default" baseline on the Mi 11 Lite: schedutil +
    /// msm-adreno-tz-like devfreq.
    [[nodiscard]] static KernelGovernor mi11_lite();

    [[nodiscard]] std::string name() const override { return label_; }
    [[nodiscard]] double tick_interval_s() const override { return tick_interval_s_; }
    LevelRequest on_tick(const TickObservation& tick) override;

private:
    std::string label_;
    CpuPolicyKind cpu_kind_;
    SchedutilPolicy schedutil_;
    OndemandPolicy ondemand_;
    ConservativePolicy conservative_;
    SimpleOndemandPolicy gpu_policy_;
    double tick_interval_s_;
};

/// Pins both domains to fixed levels (profiling runs, Fig. 2).
class FixedGovernor final : public Governor {
public:
    FixedGovernor(std::size_t cpu_level, std::size_t gpu_level);

    [[nodiscard]] std::string name() const override { return "fixed"; }
    LevelRequest on_frame_start(const Observation& obs) override;

private:
    std::size_t cpu_level_;
    std::size_t gpu_level_;
};

/// Uniformly random levels each frame (exploration sanity baseline).
class RandomGovernor final : public Governor {
public:
    explicit RandomGovernor(std::uint64_t seed);

    [[nodiscard]] std::string name() const override { return "random"; }
    LevelRequest on_frame_start(const Observation& obs) override;

private:
    util::Rng rng_;
};

/// Linux `performance` governor: both domains pinned to the top level.
class PerformanceGovernor final : public Governor {
public:
    [[nodiscard]] std::string name() const override { return "performance"; }
    LevelRequest on_frame_start(const Observation& obs) override {
        return LevelRequest::set(obs.cpu_levels - 1, obs.gpu_levels - 1);
    }
};

/// Linux `powersave` governor: both domains pinned to the bottom level.
class PowersaveGovernor final : public Governor {
public:
    [[nodiscard]] std::string name() const override { return "powersave"; }
    LevelRequest on_frame_start(const Observation&) override {
        return LevelRequest::set(0, 0);
    }
};

} // namespace lotus::governors
