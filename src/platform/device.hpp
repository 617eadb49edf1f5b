#pragma once
// EdgeDevice: the simulated edge platform.
//
// Ties together the two DVFS domains (CPU cluster + GPU), the power model,
// the RC thermal network, the per-domain thermal throttlers and a simulated
// clock. Client code (the inference engine / governors) interacts with it
// the way user space interacts with a Jetson or Android device:
//   * request OPP levels (granted levels are clamped by the throttle caps),
//   * burn compute time via advance(dt, cpu_util, gpu_util),
//   * observe temperatures, frequencies, power and energy.
//
// advance() is the *single time-advance authority*: every path that moves
// the simulated clock -- work slices, idle gaps, agent decision overhead
// and the DVFS-transition latency charged inside request_levels() -- runs
// through the same event-driven loop. The loop splits time at "events"
// (throttle-poll instants, the registered listener's next deadline, and the
// thermal stepper's accuracy bound) and notifies the AdvanceListener at
// each of them, so kernel-governor ticks land at their exact cadence and
// throttle engagements are observable no matter which code path burned the
// time. Between events the RC network advances by the exact closed-form
// exponential step (ThermalNetwork::advance_bounded), with each segment
// bounded by DeviceSpec::thermal_accuracy_k.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "platform/opp.hpp"
#include "platform/power.hpp"
#include "platform/thermal.hpp"
#include "platform/throttle.hpp"

namespace lotus::platform {

/// Observer of the device's time-advance loop. The InferenceEngine
/// registers one to receive kernel-tick deadlines and throttle flips for
/// *all* advanced time (work, idle, decision overhead, DVFS transitions).
///
/// Contract: on_event() fires whenever the clock reaches next_event_s()
/// (never later -- the advance loop splits its integration segment there);
/// after each call the listener must move next_event_s() strictly forward,
/// or the device throws std::logic_error. on_event() may re-enter
/// EdgeDevice::advance()/request_levels() (e.g. a governor tick changing
/// levels mid-slice); the nested time is charged on top of the in-flight
/// advance, exactly like a DVFS stall on hardware extends the work around
/// it. on_throttle() fires after any throttle poll that leaves a domain
/// engaged.
class AdvanceListener {
public:
    virtual ~AdvanceListener() = default;
    /// Next absolute simulated time [s] at which the listener needs control
    /// (e.g. a kernel-governor tick deadline); +infinity when it does not.
    [[nodiscard]] virtual double next_event_s() const { return kNoEvent; }
    /// The clock reached next_event_s(); utils are those of the advancing
    /// work at that instant.
    virtual void on_event(double now_s, double cpu_util, double gpu_util) {
        (void)now_s;
        (void)cpu_util;
        (void)gpu_util;
    }
    /// A throttle poll just ran and at least one domain is engaged.
    virtual void on_throttle(double now_s, bool cpu_engaged, bool gpu_engaged) {
        (void)now_s;
        (void)cpu_engaged;
        (void)gpu_engaged;
    }

    static constexpr double kNoEvent = 1e300;
};

/// One DVFS domain: its OPP ladder, power parameters and compute
/// characteristics used by the detector latency model.
struct DomainSpec {
    OppTable opp;
    PowerParams power;
    /// Effective ops per cycle: throughput at frequency f is f * ops_per_cycle
    /// (ops in the abstract work units used by lotus::detector).
    double ops_per_cycle = 1.0;
};

struct DeviceSpec {
    std::string name;
    DomainSpec cpu;
    DomainSpec gpu;
    ThermalParams thermal;
    ThrottleParams cpu_throttle;
    ThrottleParams gpu_throttle;
    /// Memory bandwidth seen by the accelerators [bytes/s]; the memory-bound
    /// part of a kernel does not speed up with core frequency.
    double mem_bandwidth = 50e9;
    /// Latency of one frequency-scaling syscall pair [s] (paper: "dozens of
    /// microseconds").
    double dvfs_latency_s = 50e-6;
    double initial_ambient_celsius = 25.0;
    /// Maximum temperature drift allowed per frozen-power segment of the
    /// closed-form stepper [K]. Bounds the error of holding the
    /// (temperature-dependent) leakage power constant within a segment.
    double thermal_accuracy_k = 0.25;
};

struct PowerSample {
    double cpu_w = 0.0;
    double gpu_w = 0.0;
    [[nodiscard]] double total() const noexcept { return cpu_w + gpu_w; }
};

class EdgeDevice {
public:
    explicit EdgeDevice(DeviceSpec spec);

    // --- DVFS -------------------------------------------------------------
    [[nodiscard]] std::size_t cpu_levels() const noexcept { return spec_.cpu.opp.num_levels(); }
    [[nodiscard]] std::size_t gpu_levels() const noexcept { return spec_.gpu.opp.num_levels(); }

    /// Request OPP levels; the granted level is min(request, throttle cap).
    /// Advances the clock by the DVFS transition latency when the request
    /// changes anything.
    void request_levels(std::size_t cpu_level, std::size_t gpu_level);

    [[nodiscard]] std::size_t requested_cpu_level() const noexcept { return req_cpu_; }
    [[nodiscard]] std::size_t requested_gpu_level() const noexcept { return req_gpu_; }
    /// Granted (throttle-clamped) levels.
    [[nodiscard]] std::size_t cpu_level() const noexcept;
    [[nodiscard]] std::size_t gpu_level() const noexcept;
    [[nodiscard]] double cpu_freq() const noexcept;
    [[nodiscard]] double gpu_freq() const noexcept;

    /// Effective compute throughput [ops/s] at the granted levels.
    [[nodiscard]] double cpu_throughput() const noexcept;
    [[nodiscard]] double gpu_throughput() const noexcept;
    [[nodiscard]] double mem_bandwidth() const noexcept { return spec_.mem_bandwidth; }

    // --- time / physics ----------------------------------------------------
    /// Advance simulated time by dt seconds with the given domain
    /// utilizations: integrates the thermal network between events, polls
    /// the throttlers at their exact instants, accumulates energy and
    /// notifies the registered AdvanceListener. The ONLY place the clock
    /// moves. Listener events may nest further advances (DVFS stalls); the
    /// nested time is in addition to dt.
    void advance(double dt, double cpu_util, double gpu_util);

    /// Like advance(), but returns as soon as a segment ends with different
    /// granted levels than it started with (throttle clamp or a listener
    /// event changing the request). Returns the time actually advanced
    /// (nested listener-triggered advances excluded), which is <= dt.
    /// Callers integrating work at a sampled throughput stay exact: the
    /// throughput is constant over the returned interval by construction.
    [[nodiscard]] double advance_work(double dt, double cpu_util, double gpu_util);

    /// Register the advance-loop observer (nullptr to clear). One listener
    /// at a time; the runtime's InferenceEngine owns it in practice.
    void set_advance_listener(AdvanceListener* listener) noexcept { listener_ = listener; }
    [[nodiscard]] AdvanceListener* advance_listener() const noexcept { return listener_; }

    [[nodiscard]] double now() const noexcept { return now_; }

    /// Thermal integration steps taken since construction/reset() (the
    /// denominator of bench_overhead's stepper comparison).
    [[nodiscard]] std::uint64_t thermal_steps() const noexcept { return thermal_.steps(); }

    // --- observability -----------------------------------------------------
    [[nodiscard]] double cpu_temp() const noexcept {
        return thermal_.temperature(ThermalNode::cpu);
    }
    [[nodiscard]] double gpu_temp() const noexcept {
        return thermal_.temperature(ThermalNode::gpu);
    }
    [[nodiscard]] double board_temp() const noexcept {
        return thermal_.temperature(ThermalNode::board);
    }
    [[nodiscard]] bool cpu_throttled() const noexcept { return cpu_throttle_.engaged(); }
    [[nodiscard]] bool gpu_throttled() const noexcept { return gpu_throttle_.engaged(); }
    [[nodiscard]] bool throttled() const noexcept { return cpu_throttled() || gpu_throttled(); }
    [[nodiscard]] PowerSample last_power() const noexcept { return last_power_; }
    [[nodiscard]] double energy_joules() const noexcept { return energy_j_; }

    // --- environment --------------------------------------------------------
    void set_ambient(double celsius) noexcept { ambient_ = celsius; }
    [[nodiscard]] double ambient() const noexcept { return ambient_; }

    /// Reset temperatures (to ambient), throttlers, clock and energy; keeps
    /// the requested levels.
    void reset();

    [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }

    // --- telemetry ----------------------------------------------------------
    /// Process name this device reports its telemetry under. Defaults to
    /// the spec name; the fleet engine overrides it with the slot id so
    /// identical twins stay distinguishable in a trace.
    void set_telemetry_label(std::string label) {
        tel_label_ = std::move(label);
        tel_track_ = -1;
    }
    [[nodiscard]] const std::string& telemetry_label() const noexcept { return tel_label_; }

private:
    /// Shared event-driven advance loop behind advance()/advance_work().
    double advance_segmented(double dt, double cpu_util, double gpu_util,
                             bool stop_on_level_change);
    /// Deliver every listener event whose deadline is already due.
    void fire_due_events(double cpu_util, double gpu_util);
    /// Emit platform telemetry for the segment that just ended: OPP-change
    /// and throttle trip/clear instants, plus the periodic temperature /
    /// frequency / power samples. No-op when no recorder is bound.
    void publish_telemetry();

    DeviceSpec spec_;
    PowerModel cpu_power_;
    PowerModel gpu_power_;
    ThermalNetwork thermal_;
    ThermalThrottler cpu_throttle_;
    ThermalThrottler gpu_throttle_;
    AdvanceListener* listener_ = nullptr;

    std::size_t req_cpu_;
    std::size_t req_gpu_;
    double now_ = 0.0;
    double ambient_;
    double energy_j_ = 0.0;
    PowerSample last_power_;

    // Telemetry state: cached track + last-published granted levels /
    // throttle engagements (change detection) + next sample deadline.
    std::string tel_label_;
    const void* tel_recorder_ = nullptr; // identity of the recorder tel_track_ is valid for
    int tel_track_ = -1;
    double tel_next_sample_ = 0.0;
    std::size_t tel_cpu_level_ = 0;
    std::size_t tel_gpu_level_ = 0;
    bool tel_cpu_engaged_ = false;
    bool tel_gpu_engaged_ = false;
    // Rollup span state: sim time / energy already folded into the windowed
    // rollups, and the OPP/throttle state that held since then.
    double tel_rollup_t_ = 0.0;
    double tel_rollup_energy_j_ = 0.0;
    std::size_t tel_rollup_level_ = 0;
    bool tel_rollup_throttled_ = false;
};

} // namespace lotus::platform
