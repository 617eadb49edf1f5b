#include "governors/linux_governors.hpp"

#include <algorithm>
#include <cmath>

namespace lotus::governors {

SchedutilPolicy::SchedutilPolicy(SchedutilParams params) : params_(params) {}

std::size_t SchedutilPolicy::decide(const TickObservation& tick) {
    if (!initialized_) {
        util_ = tick.cpu_util;
        level_ = tick.cpu_level;
        initialized_ = true;
    } else {
        util_ += params_.util_ewma * (tick.cpu_util - util_);
    }

    // Kernel formula: next_freq = headroom * util * max_freq, mapped onto
    // the ladder by picking the lowest level able to serve the target.
    const double target_frac = std::clamp(params_.headroom * util_, 0.0, 1.0);
    const auto max_level = tick.cpu_levels - 1;
    auto desired = static_cast<std::size_t>(
        std::ceil(target_frac * static_cast<double>(max_level)));
    desired = std::min(desired, max_level);

    if (desired > level_) {
        level_ = desired; // scale up immediately
    } else if (desired < level_) {
        // Rate-limited down-scaling, one step at a time (schedutil's
        // down_rate_limit_us behaviour).
        if (tick.now_s - last_down_s_ >= params_.down_rate_limit_s) {
            --level_;
            last_down_s_ = tick.now_s;
        }
    }
    level_ = std::min(level_, max_level);
    return level_;
}

SimpleOndemandPolicy::SimpleOndemandPolicy(SimpleOndemandParams params) : params_(params) {}

std::size_t SimpleOndemandPolicy::decide(const TickObservation& tick) {
    if (!initialized_) {
        busy_ = tick.gpu_util;
        initialized_ = true;
    } else {
        busy_ += params_.busy_ewma * (tick.gpu_util - busy_);
    }

    const auto max_level = tick.gpu_levels - 1;
    if (busy_ > params_.upthreshold) {
        return max_level; // devfreq simple_ondemand: jump straight to max
    }
    if (busy_ > params_.upthreshold - params_.downdifferential) {
        return tick.gpu_level; // hysteresis band: hold
    }
    // Proportional scale-down: pick the lowest level that still serves the
    // observed load with the up-threshold as headroom.
    const double target_frac =
        std::clamp(busy_ / params_.upthreshold, 0.0, 1.0);
    const auto desired = static_cast<std::size_t>(
        std::ceil(target_frac * static_cast<double>(max_level)));
    return std::min(desired, max_level);
}

OndemandPolicy::OndemandPolicy(OndemandParams params) : params_(params) {}

std::size_t OndemandPolicy::decide(const TickObservation& tick) {
    if (!initialized_) {
        level_ = tick.cpu_level;
        initialized_ = true;
    }
    const auto max_level = tick.cpu_levels - 1;
    if (tick.cpu_util > params_.up_threshold) {
        level_ = max_level; // ondemand's signature: jump straight to max
        hold_ticks_ = params_.sampling_down_factor;
        return level_;
    }
    if (hold_ticks_ > 0) {
        --hold_ticks_;
        return level_;
    }
    // Below threshold and past the hold window: proportional scale-down with
    // the up-threshold as headroom.
    const double target_frac = std::clamp(tick.cpu_util / params_.up_threshold, 0.0, 1.0);
    const auto desired = static_cast<std::size_t>(
        std::ceil(target_frac * static_cast<double>(max_level)));
    level_ = std::min(desired, max_level);
    return level_;
}

ConservativePolicy::ConservativePolicy(ConservativeParams params) : params_(params) {}

std::size_t ConservativePolicy::decide(const TickObservation& tick) {
    if (!initialized_) {
        level_ = tick.cpu_level;
        initialized_ = true;
    }
    const auto max_level = tick.cpu_levels - 1;
    if (tick.cpu_util > params_.up_threshold && level_ < max_level) {
        ++level_; // one step at a time, by design
    } else if (tick.cpu_util < params_.down_threshold && level_ > 0) {
        --level_;
    }
    return level_;
}

KernelGovernor::KernelGovernor(std::string label, CpuPolicyKind cpu_kind,
                               SimpleOndemandParams gpu_params, double tick_interval_s)
    : label_(std::move(label)),
      cpu_kind_(cpu_kind),
      gpu_policy_(gpu_params),
      tick_interval_s_(tick_interval_s) {}

KernelGovernor KernelGovernor::orin_nano() {
    // nvhost_podgov ramps aggressively under sustained load.
    SimpleOndemandParams gpu;
    gpu.upthreshold = 0.85;
    gpu.downdifferential = 0.05;
    return KernelGovernor("default(schedutil+nvhost_podgov)", CpuPolicyKind::schedutil, gpu);
}

KernelGovernor KernelGovernor::mi11_lite() {
    // msm-adreno-tz is slightly more conservative scaling up.
    SimpleOndemandParams gpu;
    gpu.upthreshold = 0.93;
    gpu.downdifferential = 0.07;
    gpu.busy_ewma = 0.4;
    return KernelGovernor("default(schedutil+msm-adreno-tz)", CpuPolicyKind::schedutil, gpu);
}

LevelRequest KernelGovernor::on_tick(const TickObservation& tick) {
    std::size_t cpu = tick.cpu_level;
    switch (cpu_kind_) {
        case CpuPolicyKind::schedutil: cpu = schedutil_.decide(tick); break;
        case CpuPolicyKind::ondemand: cpu = ondemand_.decide(tick); break;
        case CpuPolicyKind::conservative: cpu = conservative_.decide(tick); break;
    }
    const auto gpu = gpu_policy_.decide(tick);
    if (cpu == tick.cpu_level && gpu == tick.gpu_level) return LevelRequest::none();
    return LevelRequest::set(cpu, gpu);
}

FixedGovernor::FixedGovernor(std::size_t cpu_level, std::size_t gpu_level)
    : cpu_level_(cpu_level), gpu_level_(gpu_level) {}

LevelRequest FixedGovernor::on_frame_start(const Observation& obs) {
    return LevelRequest::set(std::min(cpu_level_, obs.cpu_levels - 1),
                             std::min(gpu_level_, obs.gpu_levels - 1));
}

RandomGovernor::RandomGovernor(std::uint64_t seed) : rng_(seed) {}

LevelRequest RandomGovernor::on_frame_start(const Observation& obs) {
    const auto cpu = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(obs.cpu_levels) - 1));
    const auto gpu = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(obs.gpu_levels) - 1));
    return LevelRequest::set(cpu, gpu);
}

} // namespace lotus::governors
