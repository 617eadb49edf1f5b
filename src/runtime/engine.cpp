#include "runtime/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "prof/profiler.hpp"
#include "telemetry/recorder.hpp"

namespace lotus::runtime {

namespace {
/// Work below this many ops/bytes is considered finished (guards against
/// floating-point residue in the integration loop).
constexpr double kWorkEpsilon = 1.0;
/// CPU utilization while the GPU executes (host thread, kernel launches).
constexpr double kCpuUtilDuringGpu = 0.15;
/// CPU utilization while idle / waiting for the agent.
constexpr double kIdleCpuUtil = 0.05;
/// Upper bound on one work-integration slice [s]. A guard only: work
/// accounting and kernel-tick delivery are exact for any value (the device
/// splits time at frequency changes, tick deadlines and throttle polls), so
/// this merely caps how much work the engine commits to one throughput
/// sample.
constexpr double kMaxSliceS = 0.25;
} // namespace

InferenceEngine::InferenceEngine(platform::EdgeDevice& device) : device_(device) {
    device_.set_advance_listener(this);
}

InferenceEngine::~InferenceEngine() {
    if (device_.advance_listener() == this) device_.set_advance_listener(nullptr);
}

void InferenceEngine::reset() {
    last_latency_ = 0.0;
    tick_initialized_ = false;
    next_tick_due_ = 0.0;
}

// --- AdvanceListener ---------------------------------------------------------

double InferenceEngine::next_event_s() const {
    if (!tick_initialized_ || tick_interval_s_ <= 0.0) {
        return platform::AdvanceListener::kNoEvent;
    }
    return next_tick_due_;
}

void InferenceEngine::on_event(double now_s, double cpu_util, double gpu_util) {
    const double interval = tick_interval_s_;
    if (auto* tel = telemetry::current()) {
        // Per-tick observation: what the kernel-style governor sees at this
        // cadence instant (its action shows up as an opp_change on the
        // platform thread).
        tel->set_context(device_.telemetry_label());
        tel->instant(tel->context_track("governor"), "tick", now_s,
                     telemetry::Args()
                         .num("cpu_temp_c", device_.cpu_temp())
                         .num("gpu_temp_c", device_.gpu_temp())
                         .integer("cpu_level", device_.cpu_level())
                         .integer("gpu_level", device_.gpu_level()));
    }
    governors::TickObservation tick;
    tick.now_s = now_s;
    tick.dt_s = interval;
    tick.cpu_util = cpu_util;
    tick.gpu_util = gpu_util;
    tick.cpu_temp = device_.cpu_temp();
    tick.gpu_temp = device_.gpu_temp();
    tick.cpu_level = device_.cpu_level();
    tick.gpu_level = device_.gpu_level();
    tick.cpu_levels = device_.cpu_levels();
    tick.gpu_levels = device_.gpu_levels();
    // Move the deadline before delivering: on_tick may request new levels,
    // whose DVFS stall re-enters the advance loop (and must not re-fire the
    // same tick).
    next_tick_due_ += interval;
    apply(gov_->on_tick(tick));
}

void InferenceEngine::on_throttle(double, bool, bool) {
    frame_saw_throttle_ = true;
}

void InferenceEngine::bind(governors::Governor& governor) {
    gov_ = &governor;
    tick_interval_s_ = governor.tick_interval_s();
    if (tick_interval_s_ > 0.0 && !tick_initialized_) {
        next_tick_due_ = device_.now() + tick_interval_s_;
        tick_initialized_ = true;
    }
}

// -----------------------------------------------------------------------------

governors::Observation InferenceEngine::make_observation(std::size_t iteration,
                                                         double constraint_s,
                                                         double elapsed_s, int proposals,
                                                         double queue_wait_s) const {
    governors::Observation obs;
    obs.iteration = iteration;
    obs.queue_wait_s = queue_wait_s;
    obs.now_s = device_.now();
    obs.cpu_temp = device_.cpu_temp();
    obs.gpu_temp = device_.gpu_temp();
    obs.cpu_level = device_.cpu_level();
    obs.gpu_level = device_.gpu_level();
    obs.cpu_levels = device_.cpu_levels();
    obs.gpu_levels = device_.gpu_levels();
    obs.latency_constraint_s = constraint_s;
    obs.last_frame_latency_s = last_latency_;
    obs.elapsed_in_frame_s = elapsed_s;
    obs.proposals = proposals;
    obs.throttled = device_.throttled();
    return obs;
}

void InferenceEngine::apply(const governors::LevelRequest& request) {
    if (!request.has_request) return;
    // request_levels advances the clock through the DVFS stall; the device
    // keeps delivering ticks and throttle flips to us meanwhile (single
    // time-advance authority).
    device_.request_levels(std::min(request.cpu, device_.cpu_levels() - 1),
                           std::min(request.gpu, device_.gpu_levels() - 1));
}

void InferenceEngine::charge_decision_overhead() {
    const double overhead = gov_->decision_overhead_s();
    if (overhead > 0.0) {
        // The device idles while the observation travels to the agent and
        // the action comes back (socket + Q-network, Sec. 4.4.2).
        device_.advance(overhead, kIdleCpuUtil, 0.0);
    }
}

void InferenceEngine::execute_cpu_work(double ops) {
    while (ops > kWorkEpsilon) {
        const double throughput = device_.cpu_throughput();
        const double t_need = std::min(ops / throughput, kMaxSliceS);
        // advance_work returns early if the granted frequency changed, so
        // `throughput` is exact over the h it reports.
        const double h = device_.advance_work(t_need, 1.0, 0.0);
        ops -= h * throughput;
    }
}

void InferenceEngine::execute_gpu_work(double ops, double bytes) {
    while (ops > kWorkEpsilon || bytes > kWorkEpsilon) {
        const double throughput = device_.gpu_throughput();
        const double bw = device_.mem_bandwidth();
        const double t_need = ops / throughput + bytes / bw;
        const double t_slice = std::min(t_need, kMaxSliceS);
        const double h = device_.advance_work(t_slice, kCpuUtilDuringGpu, 1.0);
        const double frac = h / t_need;
        ops -= ops * frac;
        bytes -= bytes * frac;
    }
}

void InferenceEngine::run_idle(double duration_s, governors::Governor& governor) {
    if (duration_s < 0.0) {
        throw std::invalid_argument("run_idle: negative duration");
    }
    bind(governor);
    device_.advance(duration_s, kIdleCpuUtil, 0.0);
}

FrameResult InferenceEngine::run_frame(const detector::DetectorModel& model,
                                       const workload::FrameSample& frame,
                                       governors::Governor& governor,
                                       double latency_constraint_s, std::size_t iteration,
                                       double queue_wait_s) {
    if (latency_constraint_s <= 0.0) {
        throw std::invalid_argument("run_frame: latency constraint must be > 0");
    }
    if (queue_wait_s < 0.0) {
        throw std::invalid_argument("run_frame: negative queue wait");
    }
    LOTUS_PROF_SCOPE("engine.run_frame");
    LOTUS_PROF_COUNT("engine.frames", 1);
    bind(governor);

    auto* tel = telemetry::current();
    int tel_engine = -1;
    int tel_gov = -1;
    if (tel) {
        // Everything this frame emits (agent counters included) belongs to
        // this device's process.
        tel->set_context(device_.telemetry_label());
        tel_engine = tel->context_track("engine");
        tel_gov = tel->context_track("governor");
        tel->begin(tel_engine, "frame", device_.now(),
                   telemetry::Args()
                       .integer("iteration", iteration)
                       .num("constraint_ms", latency_constraint_s * 1e3)
                       .num("queue_wait_ms", queue_wait_s * 1e3));
    }

    FrameResult result;
    result.iteration = iteration;
    result.start_time_s = device_.now();
    result.queue_wait_s = queue_wait_s;
    result.constraint_s = latency_constraint_s;
    result.proposals_raw = frame.proposals;
    frame_saw_throttle_ = device_.throttled();

    const double t0 = device_.now();
    const double e0 = device_.energy_joules();

    // --- decision 1: frame start (s_2i) ------------------------------------
    const auto obs_start = make_observation(iteration, latency_constraint_s, queue_wait_s,
                                            -1, queue_wait_s);
    const auto req_start = governor.on_frame_start(obs_start);
    charge_decision_overhead();
    apply(req_start);
    result.cpu_level_stage1 = device_.cpu_level();
    result.gpu_level_stage1 = device_.gpu_level();
    if (tel) {
        tel->instant(tel_gov, "decision", device_.now(),
                     telemetry::Args()
                         .str("point", "frame_start")
                         .boolean("requested", req_start.has_request)
                         .integer("cpu_level", result.cpu_level_stage1)
                         .integer("gpu_level", result.gpu_level_stage1));
    }

    // --- stage 1: pre-processing -> backbone -> RPN -------------------------
    for (const auto& component :
         model.stage1_components(frame.resolution_scale, frame.complexity)) {
        execute_cpu_work(component.cpu_ops * frame.jitter);
        execute_gpu_work(component.gpu_ops * frame.jitter, component.mem_bytes * frame.jitter);
    }
    result.stage1_s = device_.now() - t0;

    // --- decision 2: post-RPN (s_2i+1, proposals known) ---------------------
    const int proposals_used = model.clamp_proposals(frame.proposals);
    result.proposals_used = proposals_used;
    if (model.is_two_stage()) {
        const auto obs_rpn =
            make_observation(iteration, latency_constraint_s,
                             queue_wait_s + (device_.now() - t0), proposals_used,
                             queue_wait_s);
        const auto req_rpn = governor.on_post_rpn(obs_rpn);
        charge_decision_overhead();
        apply(req_rpn);
        if (tel) {
            tel->instant(tel_gov, "decision", device_.now(),
                         telemetry::Args()
                             .str("point", "post_rpn")
                             .boolean("requested", req_rpn.has_request)
                             .integer("proposals", proposals_used)
                             .integer("cpu_level", device_.cpu_level())
                             .integer("gpu_level", device_.gpu_level()));
        }
    }
    result.cpu_level_stage2 = device_.cpu_level();
    result.gpu_level_stage2 = device_.gpu_level();

    // --- stage 2: RoI head (+mask) -> post-processing -----------------------
    for (const auto& component : model.stage2_components(proposals_used)) {
        execute_cpu_work(component.cpu_ops * frame.jitter);
        execute_gpu_work(component.gpu_ops * frame.jitter, component.mem_bytes * frame.jitter);
    }

    result.latency_s = device_.now() - t0;
    result.stage2_s = result.latency_s - result.stage1_s;
    result.cpu_temp = device_.cpu_temp();
    result.gpu_temp = device_.gpu_temp();
    result.energy_j = device_.energy_joules() - e0;
    result.throttled = frame_saw_throttle_ || device_.throttled();

    if (tel) {
        tel->end(tel_engine, device_.now());
    }

    governors::FrameOutcome outcome;
    outcome.iteration = iteration;
    outcome.now_s = device_.now();
    outcome.latency_s = result.e2e_latency_s();
    outcome.queue_wait_s = queue_wait_s;
    outcome.stage1_latency_s = result.stage1_s;
    outcome.stage2_latency_s = result.stage2_s;
    outcome.proposals = proposals_used;
    outcome.cpu_temp = result.cpu_temp;
    outcome.gpu_temp = result.gpu_temp;
    outcome.latency_constraint_s = latency_constraint_s;
    outcome.throttled = result.throttled;
    outcome.energy_j = result.energy_j;
    governor.on_frame_end(outcome);

    last_latency_ = result.e2e_latency_s();
    return result;
}

} // namespace lotus::runtime
