#pragma once
// Calibrated device presets for the paper's two evaluation platforms.
//
// The constants are calibrated (open gaps: ROADMAP.md item 9) so that:
//  * sustained max-frequency inference overheats both devices (engaging the
//    step_wise throttler), while mid-ladder operation is thermally
//    sustainable -- the regime split that makes DVFS control non-trivial;
//  * the Jetson Orin Nano operates in the 55-85 degC band of Figs. 4/5/7 and
//    the Mi 11 Lite in the 28-40 degC skin-limited band of Fig. 6;
//  * absolute detector latencies land in the range of Tables 1-2
//    (Orin: ~0.3-0.8 s, Mi 11 Lite: ~1.2-3.2 s per frame).

#include "platform/device.hpp"

namespace lotus::platform {

/// NVIDIA Jetson Orin Nano: 6-core Cortex-A78AE @ 1.5 GHz, 1024-core Ampere
/// GPU @ 624.75 MHz, 8 GB LPDDR5 (Sec. 4.4 of the paper). 8 CPU x 6 GPU OPP
/// levels -> 48 joint actions.
[[nodiscard]] DeviceSpec orin_nano_spec();

/// Xiaomi Mi 11 Lite: Snapdragon 780G (Kryo 670 CPU, Adreno 642 GPU). The
/// tri-cluster CPU is modelled as a single DVFS domain, matching the paper's
/// single f_cpu action dimension. 8 CPU x 8 GPU levels -> 64 joint actions.
[[nodiscard]] DeviceSpec mi11_lite_spec();

/// Throttling trip temperature [deg C] for a spec (max of the domain trips);
/// the red dashed "throttling bound" line in the paper's figures.
[[nodiscard]] double throttle_bound_celsius(const DeviceSpec& spec);

/// The reward threshold T_thres used by the learning governors: a safety
/// margin below the hardware trip so the agent learns to avoid throttling
/// rather than ride it.
[[nodiscard]] double reward_threshold_celsius(const DeviceSpec& spec);

} // namespace lotus::platform
