#include "platform/device.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "prof/profiler.hpp"
#include "telemetry/recorder.hpp"

namespace lotus::platform {

namespace {
/// Tolerance when comparing the clock against event deadlines (absorbs
/// floating-point residue of stepping exactly onto an event instant).
constexpr double kTimeEps = 1e-12;
} // namespace

EdgeDevice::EdgeDevice(DeviceSpec spec)
    : spec_(std::move(spec)),
      cpu_power_(spec_.cpu.power),
      gpu_power_(spec_.gpu.power),
      thermal_(spec_.thermal),
      cpu_throttle_([&] {
          auto p = spec_.cpu_throttle;
          p.num_levels = spec_.cpu.opp.num_levels();
          return p;
      }()),
      gpu_throttle_([&] {
          auto p = spec_.gpu_throttle;
          p.num_levels = spec_.gpu.opp.num_levels();
          return p;
      }()),
      req_cpu_(spec_.cpu.opp.num_levels() - 1),
      req_gpu_(spec_.gpu.opp.num_levels() - 1),
      ambient_(spec_.initial_ambient_celsius),
      tel_label_(spec_.name) {
    if (spec_.mem_bandwidth <= 0.0) {
        throw std::invalid_argument("EdgeDevice: mem_bandwidth must be > 0");
    }
    if (spec_.dvfs_latency_s < 0.0) {
        throw std::invalid_argument("EdgeDevice: negative dvfs latency");
    }
    if (spec_.thermal_accuracy_k <= 0.0) {
        throw std::invalid_argument("EdgeDevice: thermal_accuracy_k must be > 0");
    }
    thermal_.reset(ambient_);
}

void EdgeDevice::request_levels(std::size_t cpu_level, std::size_t gpu_level) {
    if (cpu_level >= cpu_levels() || gpu_level >= gpu_levels()) {
        throw std::out_of_range("EdgeDevice::request_levels: level out of range");
    }
    const bool changed = cpu_level != req_cpu_ || gpu_level != req_gpu_;
    req_cpu_ = cpu_level;
    req_gpu_ = gpu_level;
    if (changed && spec_.dvfs_latency_s > 0.0) {
        // The frequency-scaling syscalls themselves take time (the paper
        // measures dozens of microseconds); the device is essentially idle
        // while they execute.
        advance(spec_.dvfs_latency_s, 0.0, 0.0);
    }
}

std::size_t EdgeDevice::cpu_level() const noexcept {
    return std::min(req_cpu_, cpu_throttle_.cap());
}

std::size_t EdgeDevice::gpu_level() const noexcept {
    return std::min(req_gpu_, gpu_throttle_.cap());
}

double EdgeDevice::cpu_freq() const noexcept {
    return spec_.cpu.opp.freq(cpu_level());
}

double EdgeDevice::gpu_freq() const noexcept {
    return spec_.gpu.opp.freq(gpu_level());
}

double EdgeDevice::cpu_throughput() const noexcept {
    return cpu_freq() * spec_.cpu.ops_per_cycle;
}

double EdgeDevice::gpu_throughput() const noexcept {
    return gpu_freq() * spec_.gpu.ops_per_cycle;
}

void EdgeDevice::advance(double dt, double cpu_util, double gpu_util) {
    (void)advance_segmented(dt, cpu_util, gpu_util, /*stop_on_level_change=*/false);
}

double EdgeDevice::advance_work(double dt, double cpu_util, double gpu_util) {
    return advance_segmented(dt, cpu_util, gpu_util, /*stop_on_level_change=*/true);
}

double EdgeDevice::fire_due_events(double cpu_util, double gpu_util) {
    if (!listener_) return std::numeric_limits<double>::infinity();
    for (int guard = 0;; ++guard) {
        const double next = listener_->next_event_s();
        if (next > now_ + kTimeEps) return next;
        if (guard > 4096) {
            throw std::logic_error(
                "EdgeDevice::advance: listener does not move its event deadline forward");
        }
        listener_->on_event(now_, cpu_util, gpu_util);
    }
}

double EdgeDevice::advance_segmented(double dt, double cpu_util, double gpu_util,
                                     bool stop_on_level_change) {
    if (dt < 0.0) throw std::invalid_argument("EdgeDevice::advance: negative dt");
    if (dt == 0.0) return 0.0;
    LOTUS_PROF_SCOPE("device.advance");

    // The bound recorder is fixed for the whole call: a listener callback
    // binds or suspends recorders only in scopes that close before it returns.
    telemetry::Recorder* const tel = telemetry::current();
    double remaining = dt;
    double elapsed = 0.0;
    std::uint64_t segments = 0;
    std::uint64_t exact_bounds = 0;
    // Each domain's voltage and dynamic power depend only on its granted
    // level within this call (the utilizations are fixed), so they are
    // recomputed only when that level changes; the sum below is
    // PowerModel::total()'s, term for term.
    std::size_t cl_powered = cpu_levels();
    std::size_t gl_powered = gpu_levels();
    double v_cpu = 0.0;
    double v_gpu = 0.0;
    double dyn_cpu = 0.0;
    double dyn_gpu = 0.0;
    // The listener's next deadline, as read after its last callback: it
    // moves only inside listener callbacks, and fire_due_events() runs after
    // each segment's.
    double next_event = fire_due_events(cpu_util, gpu_util);
    while (remaining > 0.0) {
        const auto cl = cpu_level();
        const auto gl = gpu_level();
        if (cl != cl_powered) {
            cl_powered = cl;
            v_cpu = spec_.cpu.opp.voltage(cl);
            dyn_cpu = cpu_power_.dynamic_power(spec_.cpu.opp.freq(cl), v_cpu, cpu_util);
        }
        if (gl != gl_powered) {
            gl_powered = gl;
            v_gpu = spec_.gpu.opp.voltage(gl);
            dyn_gpu = gpu_power_.dynamic_power(spec_.gpu.opp.freq(gl), v_gpu, gpu_util);
        }
        const double p_cpu = dyn_cpu + cpu_power_.leakage(v_cpu, cpu_temp());
        const double p_gpu = dyn_gpu + gpu_power_.leakage(v_gpu, gpu_temp());
        const std::array<double, kNumThermalNodes> power{p_cpu, p_gpu, 0.0};

        // Segment budget: up to the earliest of caller deadline, throttle
        // polls and the listener's next event. Power (and hence the
        // linearised thermal input) is frozen across the segment, so every
        // throttle poll and listener event sees the temperature evaluated at
        // its exact instant.
        double t_next = now_ + remaining;
        t_next = std::min(t_next, cpu_throttle_.next_poll_s());
        t_next = std::min(t_next, gpu_throttle_.next_poll_s());
        t_next = std::min(t_next, next_event);
        t_next = std::max(t_next, now_ + 1e-9); // progress guarantee
        const double budget = std::min(t_next - now_, remaining);

        // One modal projection bounds the step (thermal_accuracy_k) and
        // advances it; h <= budget.
        const std::uint64_t exact_before = thermal_.exact_bounds();
        const double h =
            thermal_.advance_bounded(budget, power, ambient_, spec_.thermal_accuracy_k);
        ++segments;
        exact_bounds += thermal_.exact_bounds() - exact_before;
        last_power_ = {p_cpu, p_gpu};
        energy_j_ += (p_cpu + p_gpu) * h;
        now_ += h;
        remaining -= h;
        elapsed += h;

        // Polls only run on their own grid; remember whether this segment
        // reached one so on_throttle keeps its "after a poll" contract.
        const bool polled = now_ + kTimeEps >= cpu_throttle_.next_poll_s() ||
                            now_ + kTimeEps >= gpu_throttle_.next_poll_s();
        cpu_throttle_.update(now_, cpu_temp());
        gpu_throttle_.update(now_, gpu_temp());
        if (listener_ && polled && (cpu_throttle_.engaged() || gpu_throttle_.engaged())) {
            listener_->on_throttle(now_, cpu_throttle_.engaged(), gpu_throttle_.engaged());
        }
        if (tel) publish_telemetry(tel);
        // Deliver due listener events (kernel ticks). These may nest another
        // advance (a tick requesting new levels pays the DVFS stall), which
        // runs this loop re-entrantly on top of the current segment.
        next_event = fire_due_events(cpu_util, gpu_util);

        if (stop_on_level_change && (cpu_level() != cl || gl != gpu_level())) break;
    }
    LOTUS_PROF_COUNT("device.thermal_segments", segments);
    LOTUS_PROF_COUNT("device.thermal_exact_bounds", exact_bounds);
    return elapsed;
}

void EdgeDevice::reset() {
    thermal_.reset(ambient_);
    cpu_throttle_.reset();
    gpu_throttle_.reset();
    now_ = 0.0;
    energy_j_ = 0.0;
    last_power_ = {};
    // Telemetry change-detection must re-prime: the clock rewound, and the
    // published levels/engagements no longer describe the device.
    tel_track_ = -1;
    tel_next_sample_ = 0.0;
}

void EdgeDevice::publish_telemetry(telemetry::Recorder* tel) {
    if (tel != tel_recorder_ || tel_track_ < 0) {
        // First publication under this recorder (or after reset/relabel):
        // prime the change detectors and schedule an immediate sample. The
        // track id is cached so the per-segment cost is a TLS load and a
        // few comparisons, not a map lookup.
        tel_recorder_ = tel;
        tel_track_ = tel->track(tel_label_, "platform");
        tel_cpu_level_ = cpu_level();
        tel_gpu_level_ = gpu_level();
        tel_cpu_engaged_ = cpu_throttle_.engaged();
        tel_gpu_engaged_ = gpu_throttle_.engaged();
        tel_next_sample_ = now_;
        tel_rollup_t_ = now_;
        tel_rollup_energy_j_ = energy_j_;
        tel_rollup_level_ = cpu_level();
        tel_rollup_throttled_ = cpu_throttle_.engaged() || gpu_throttle_.engaged();
    }
    const int track = tel_track_;

    // Fold the span since the last publication in under the OPP level and
    // throttle state that held across it; the energy delta is the device's
    // own integrator, so window sums reconcile exactly with energy_joules().
    tel->rollup().record_device_span(tel_label_, tel_rollup_t_, now_, tel_rollup_level_,
                                     tel_rollup_throttled_,
                                     energy_j_ - tel_rollup_energy_j_);
    tel_rollup_t_ = now_;
    tel_rollup_energy_j_ = energy_j_;
    tel_rollup_level_ = cpu_level();
    tel_rollup_throttled_ = cpu_throttle_.engaged() || gpu_throttle_.engaged();

    if (cpu_level() != tel_cpu_level_ || gpu_level() != tel_gpu_level_) {
        tel_cpu_level_ = cpu_level();
        tel_gpu_level_ = gpu_level();
        tel->instant(track, "opp_change", now_,
                     telemetry::Args()
                         .integer("cpu_level", tel_cpu_level_)
                         .integer("gpu_level", tel_gpu_level_)
                         .num("cpu_mhz", cpu_freq() / 1e6)
                         .num("gpu_mhz", gpu_freq() / 1e6));
    }
    if (cpu_throttle_.engaged() != tel_cpu_engaged_) {
        tel_cpu_engaged_ = cpu_throttle_.engaged();
        tel->instant(track, tel_cpu_engaged_ ? "throttle_trip" : "throttle_clear", now_,
                     telemetry::Args()
                         .str("domain", "cpu")
                         .integer("cap", cpu_throttle_.cap())
                         .num("temp_c", cpu_temp()));
    }
    if (gpu_throttle_.engaged() != tel_gpu_engaged_) {
        tel_gpu_engaged_ = gpu_throttle_.engaged();
        tel->instant(track, tel_gpu_engaged_ ? "throttle_trip" : "throttle_clear", now_,
                     telemetry::Args()
                         .str("domain", "gpu")
                         .integer("cap", gpu_throttle_.cap())
                         .num("temp_c", gpu_temp()));
    }
    if (now_ + kTimeEps >= tel_next_sample_) {
        tel->counter(track, "cpu_temp_c", now_, cpu_temp());
        tel->counter(track, "gpu_temp_c", now_, gpu_temp());
        tel->counter(track, "board_temp_c", now_, board_temp());
        tel->counter(track, "cpu_freq_mhz", now_, cpu_freq() / 1e6);
        tel->counter(track, "gpu_freq_mhz", now_, gpu_freq() / 1e6);
        tel->counter(track, "power_w", now_, last_power_.total());
        tel->rollup().record_temp_sample(
            tel_label_, now_, std::max(cpu_temp(), gpu_temp()),
            std::min(spec_.cpu_throttle.trip_celsius - cpu_temp(),
                     spec_.gpu_throttle.trip_celsius - gpu_temp()));
        tel_next_sample_ = now_ + telemetry::kSamplePeriodS;
    }
}

} // namespace lotus::platform
