// Sec. 4.4.2 reproduction: overhead analysis of the LOTUS agent.
//
// The paper reports, per inference: Q-network forward 0.42 ms (on an RTX
// 2080Ti), 1.92 ms per socket message, 8.52 ms total across the two
// decisions. Two views here:
//
//  * wall-clock microbenchmarks of *our* Q-network and decision path (the
//    absolute values depend on the host CPU; the point is that the compute
//    is sub-millisecond, dwarfed by the detector's hundreds of
//    milliseconds);
//  * the `overhead_analysis` registry scenario run on the shared
//    ExperimentHarness: the modelled per-decision communication cost that
//    the engine charges to every frame, as a share of the measured frame
//    latency, for zTT (one decision) vs LOTUS (two decisions).
//
// Beyond the paper, the bench checks the simulator and FAILS (non-zero
// exit; it runs as a CTest smoke) when a bar is missed. Every bar is a
// count, which does not move with the host's speed, or a ratio of two runs
// timed in this process:
//
//  * thermal stepper on serve_saturation: the closed-form exponential must
//    spend <= 1/3 of the integration steps the deleted 20 ms-slice Euler
//    integrator took (counts recorded before it was deleted), with the
//    serving-level latency and temperature metrics within 1% of a run at
//    1/100 of the default accuracy bound;
//  * counts on serve_saturation: at most kActMatvecCalls single-sample
//    Q-network forwards (the act path), fewer allocated bytes with
//    summary-only ledgers than with the full ledger, and at most
//    kMaxAllocsPerEvent allocations per recorded telemetry event;
//  * profiler timers on serve_fleet_saturation: scopes entered x CPU cost
//    per scope must stay <= 2% of the run's timers-off CPU time;
//  * telemetry recording and trace replay on serve_saturation: each fails
//    only past 50% AND 100 ms over its plain run;
//  * the queue gate: 8 streams x 5,000 requests (20,000 in full mode)
//    under edf at 0.3 Hz per stream, where the queue grows to thousands,
//    must finish within 1.5x the wall-clock of the same load at 0.2 Hz,
//    where it stays short.
//
// Sanitizer builds (CMake's LOTUS_SANITIZE) skip the last three, the timed
// ones: instrumentation slows code 5-15x, unevenly. How fast the simulator
// runs is perfbench's to measure (perfbench/run.py, calibrated CPU time);
// CI gates serve_saturation_short's ref_cpu_s against
// bench/perfbench_baseline.json with tools/check_bench_regression.py.
// Byte-identity (summary-only vs full ledger, telemetry on vs off, replay
// vs generation) is the test suite's job.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "lotus_repro.hpp"
#include "prof/profiler.hpp"

using namespace lotus;

// ---------------------------------------------------------------------------
// Allocation accounting. This binary replaces the global allocation
// functions with thin malloc wrappers that bump one relaxed counter, so the
// count gates below can read allocations per scenario run (the
// summary-only ledger fast path exists to drive that number down). The
// override is linked into the bench binary only; liblotus is untouched.
// Over-aligned allocations keep the toolchain defaults (uncounted) -- the
// simulator allocates none.

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

std::uint64_t alloc_count() noexcept {
    return g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t alloc_bytes() noexcept {
    return g_alloc_bytes.load(std::memory_order_relaxed);
}

} // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// Optimization barrier for the microbench loops.
volatile double g_sink = 0.0;

template <typename F>
double mean_us_per_call(F&& fn, int calls) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count() / calls;
}

rl::MlpConfig paper_qnet_config() {
    // 4-layer MLP over the 7-feature state and the Orin's 48 joint actions.
    rl::MlpConfig cfg;
    cfg.dims = {core::kStateDim, 128, 128, 128, 48};
    cfg.slim_input = true;
    cfg.seed = 1;
    return cfg;
}

void microbench() {
    const int calls = harness::fast_mode() ? 200 : 2000;
    util::TextTable table({"operation", "mean (us/call)"});

    {
        rl::SlimmableMlp net(paper_qnet_config());
        const std::vector<double> x(core::kStateDim, 0.5);
        table.add_row({"Q-network forward, width 1.0",
                       util::format_double(mean_us_per_call(
                           [&] { g_sink = net.forward(x, 1.0)[0]; }, calls), 2)});
        table.add_row({"Q-network forward, width 0.75",
                       util::format_double(mean_us_per_call(
                           [&] { g_sink = net.forward(x, 0.75)[0]; }, calls), 2)});
    }
    {
        // Both per-frame decisions including state encoding and action
        // decode -- the client-visible compute cost of the agent (excluding
        // the modelled socket latency, which the engine charges as dead
        // time).
        core::LotusConfig cfg;
        cfg.train_online = false;
        core::LotusAgent agent(8, 6, cfg);
        governors::Observation start;
        start.cpu_temp = 60;
        start.gpu_temp = 70;
        start.cpu_level = 5;
        start.gpu_level = 3;
        start.cpu_levels = 8;
        start.gpu_levels = 6;
        start.latency_constraint_s = 0.45;
        start.last_frame_latency_s = 0.4;
        auto rpn = start;
        rpn.proposals = 200;
        rpn.elapsed_in_frame_s = 0.3;
        governors::FrameOutcome outcome;
        outcome.latency_s = 0.4;
        outcome.latency_constraint_s = 0.45;
        outcome.cpu_temp = 60;
        outcome.gpu_temp = 70;
        table.add_row({"LOTUS decision pair (inference only)",
                       util::format_double(mean_us_per_call(
                           [&] {
                               g_sink = agent.on_frame_start(start).has_request ? 1.0 : 0.0;
                               g_sink = agent.on_post_rpn(rpn).has_request ? 1.0 : 0.0;
                               agent.on_frame_end(outcome);
                           },
                           calls), 2)});
    }
    std::printf("%s", table.render("wall-clock microbenchmarks (host CPU)").c_str());
    std::printf("(paper, Sec. 4.4.2: 0.42 ms per Q-network forward on an RTX 2080Ti)\n\n");
}

/// Relative deviation, safe around zero.
double rel_dev(double value, double reference) {
    const double denom = std::max(std::abs(reference), 1e-9);
    return std::abs(value - reference) / denom;
}

/// Thermal integration steps serve_saturation took per governor under the
/// deleted 20 ms-slice Euler integrator, recorded at commit 688d386 (the
/// last one that carried it) with pretraining off; {fast mode, full mode}.
struct EulerStepCount {
    const char* governor;
    std::uint64_t fast;
    std::uint64_t full;
};
constexpr EulerStepCount kEulerSteps[] = {
    {"default", 19'780, 108'307},
    {"performance", 18'324, 96'030},
};

/// Single-sample Q-network forwards (the act path) serve_saturation makes
/// across all its arms, recorded at commit 8f8958f; {fast mode, full mode}.
/// A deterministic count: one extra forward per greedy decision fails the
/// gate.
struct RecordedCount {
    std::uint64_t fast;
    std::uint64_t full;
};
constexpr RecordedCount kActMatvecCalls = {2'704, 27'784};

struct StepperRun {
    serving::ServingTrace trace;
    serving::ServingSummary agg;
};

StepperRun run_stepper(const serving::ServingConfig& base, double accuracy_k,
                       const std::string& governor_name) {
    auto cfg = base;
    cfg.device_spec.thermal_accuracy_k = accuracy_k;
    cfg.pretrain_iterations = 0; // deterministic baselines need no warm-up
    std::unique_ptr<governors::Governor> governor;
    if (governor_name == "default") {
        governor = std::make_unique<governors::KernelGovernor>(
            governors::KernelGovernor::orin_nano());
    } else {
        governor = std::make_unique<governors::PerformanceGovernor>();
    }
    const serving::ServingEngine engine(cfg);
    auto trace = engine.run(*governor);
    auto agg = trace.aggregate();
    return {std::move(trace), std::move(agg)};
}

/// Gate the closed-form stepper on serve_saturation; returns false (failing
/// the bench) if the acceptance bar is missed.
bool stepper_comparison() {
    const auto& sc = harness::ScenarioRegistry::instance().at("serve_saturation");
    if (!sc.serving) {
        std::printf("serve_saturation is not a serving scenario?\n");
        return false;
    }

    bool ok = true;
    const bool fast = harness::fast_mode();
    // The metric gate's reference: the same stepper at 1/100 of the
    // scenario's accuracy bound (0.0025 K for the default 0.25 K).
    const double default_k = sc.serving->device_spec.thermal_accuracy_k;
    const double fine_k = default_k / 100.0;
    std::uint64_t total_euler = 0;
    std::uint64_t total_closed = 0;
    util::TextTable table({"governor", "steps (euler, recorded)", "steps (closed)", "reduction",
                           "max metric dev (%)"});
    for (const auto& recorded : kEulerSteps) {
        const std::string gov = recorded.governor;
        const std::uint64_t euler_steps = fast ? recorded.fast : recorded.full;
        const auto closed = run_stepper(*sc.serving, default_k, gov);
        const auto fine = run_stepper(*sc.serving, fine_k, gov);
        total_euler += euler_steps;
        total_closed += closed.trace.thermal_steps();

        const double reduction = static_cast<double>(euler_steps) /
                                 static_cast<double>(closed.trace.thermal_steps());
        // Per-frame latency/temperature metrics of the serving run; every
        // one must stay within 1% of the fine-bound reference.
        const double devs[] = {
            rel_dev(closed.agg.p50_ms, fine.agg.p50_ms),
            rel_dev(closed.agg.p95_ms, fine.agg.p95_ms),
            rel_dev(closed.agg.mean_device_temp_c, fine.agg.mean_device_temp_c),
            rel_dev(closed.agg.peak_device_temp_c, fine.agg.peak_device_temp_c),
        };
        double max_dev = 0.0;
        for (const double d : devs) max_dev = std::max(max_dev, d);

        table.add_row({gov, std::to_string(euler_steps),
                       std::to_string(closed.trace.thermal_steps()),
                       util::format_double(reduction, 1) + "x",
                       util::format_double(max_dev * 100.0, 3)});
        if (max_dev > 0.01) {
            std::printf("FAIL: %s: metric deviation %.3f%% > 1%%\n", gov.c_str(),
                        max_dev * 100.0);
            ok = false;
        }
    }
    // The scenario-level bar: >= 3x fewer integration steps across the
    // compared arms. (The 20 ms-tick kernel governor alone is structurally
    // capped near 4x -- its tick deadlines force 20 ms segments -- while
    // frame-grained governors reach 5x+.)
    const double total_reduction =
        static_cast<double>(total_euler) / static_cast<double>(total_closed);
    table.add_row({"TOTAL", std::to_string(total_euler), std::to_string(total_closed),
                   util::format_double(total_reduction, 1) + "x", "-"});
    if (3 * total_closed > total_euler) {
        std::printf("FAIL: scenario step reduction %.2fx < 3x\n", total_reduction);
        ok = false;
    }
    std::printf("%s", table.render(
        "thermal stepper: closed-form exponential vs the recorded 20 ms slicing + "
        "5 ms Euler counts (serve_saturation)").c_str());
    std::printf("Metrics compared against a closed-form run at thermal_accuracy_k = %g K:\n"
                "aggregate p50/p95 end-to-end latency, mean and peak device temperature.\n\n",
                fine_k);
    return ok;
}

// ---------------------------------------------------------------------------
// Count gates: deterministic, so they run in every build.

/// Telemetry recording's allocation bar: allocations per recorded event, a
/// recording run's count minus a plain run's. Measured at 0.27 (fast mode)
/// and 0.26 (full mode) on serve_saturation -- nearly all of it the
/// rollup's per-window sample vectors -- against 2.16 when every event held
/// its name and args in strings of its own.
constexpr double kMaxAllocsPerEvent = 0.35;

/// The bench harness configuration without per-request ledger rows.
harness::HarnessConfig summary_only_config() { return {.summary_only = true}; }

struct CountedRun {
    std::vector<harness::EpisodeResult> results;
    std::uint64_t matvec_calls = 0;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
};

/// One run of `sc` on `h` with its single-sample forwards and allocations.
CountedRun counted_run(const harness::Scenario& sc, const harness::ExperimentHarness& h) {
    CountedRun run;
    prof::reset();
    const std::uint64_t a0 = alloc_count();
    const std::uint64_t b0 = alloc_bytes();
    run.results = h.run(sc);
    run.allocs = alloc_count() - a0;
    run.alloc_bytes = alloc_bytes() - b0;
    run.matvec_calls = prof::counter_total("rl.matvec_calls");
    return run;
}

/// Gate the act path's forwards and the allocation counts on
/// serve_saturation; returns false (failing the bench) on a missed bar.
bool count_gates() {
    bool ok = true;
    const auto& sc = harness::ScenarioRegistry::instance().at("serve_saturation");
    const harness::ExperimentHarness full_h;
    const harness::ExperimentHarness plain_h(summary_only_config());
    auto tel_cfg = summary_only_config();
    tel_cfg.telemetry = true;
    const harness::ExperimentHarness tel_h(tel_cfg);

    const auto full = counted_run(sc, full_h);
    const std::uint64_t matvec_bar =
        harness::fast_mode() ? kActMatvecCalls.fast : kActMatvecCalls.full;
    if (full.matvec_calls > matvec_bar) {
        std::printf("FAIL: serve_saturation makes %llu single-sample forwards (> %llu "
                    "recorded)\n",
                    static_cast<unsigned long long>(full.matvec_calls),
                    static_cast<unsigned long long>(matvec_bar));
        ok = false;
    }

    // Summary-only ledgers vs full row capture. Row capture is already
    // allocation-*count* cheap (one reserve per trace), so the fast path's
    // win is the O(requests) row storage it never materialises: the gate is
    // on allocated bytes.
    const auto plain = counted_run(sc, plain_h);
    if (plain.alloc_bytes >= full.alloc_bytes) {
        std::printf("FAIL: summary-only mode does not shrink allocated bytes "
                    "(%llu >= %llu)\n",
                    static_cast<unsigned long long>(plain.alloc_bytes),
                    static_cast<unsigned long long>(full.alloc_bytes));
        ok = false;
    }

    // The allocations a recording run makes beyond the plain summary-only
    // run (the same configuration, telemetry off), per recorded event.
    // Events live in a flat log, names in an interned table and args in one
    // arena, so the count is the amortized growth of those buffers and the
    // rollup's windows, far below one per event.
    const auto recording = counted_run(sc, tel_h);
    std::uint64_t events = 0;
    for (const auto& r : recording.results) {
        if (r.telemetry) events += r.telemetry->event_count();
    }
    const double allocs_per_event =
        (static_cast<double>(recording.allocs) - static_cast<double>(plain.allocs)) /
        static_cast<double>(std::max<std::uint64_t>(events, 1));
    if (allocs_per_event > kMaxAllocsPerEvent) {
        std::printf("FAIL: telemetry recording makes %.4f allocations per event "
                    "(> %.2f)\n",
                    allocs_per_event, kMaxAllocsPerEvent);
        ok = false;
    }

    util::TextTable table({"serve_saturation run", "matvec calls", "allocs", "alloc MB"});
    const auto row = [&](const char* name, const CountedRun& c) {
        table.add_row({name, std::to_string(c.matvec_calls), std::to_string(c.allocs),
                       util::format_double(static_cast<double>(c.alloc_bytes) / 1e6, 2)});
    };
    row("full ledger", full);
    row("summary-only", plain);
    row("summary-only + telemetry", recording);
    std::printf("%s", table.render("count gates on serve_saturation (all arms)").c_str());
    std::printf("act path: %llu single-sample forwards (at most %llu); summary-only skips "
                "%.0f KB of ledger rows; telemetry: %llu events, %.4f allocations per "
                "event (at most %.2f)\n\n",
                static_cast<unsigned long long>(full.matvec_calls),
                static_cast<unsigned long long>(matvec_bar),
                (static_cast<double>(full.alloc_bytes) - static_cast<double>(plain.alloc_bytes)) /
                    1e3,
                static_cast<unsigned long long>(events), allocs_per_event, kMaxAllocsPerEvent);
    return ok;
}

// ---------------------------------------------------------------------------
// Timing gates: each compares runs timed in this process. Not compiled into
// a sanitizer build, which skips them (see main).
#ifndef LOTUS_SANITIZED_BUILD

/// A per-process scratch directory under the system temp directory, so
/// concurrent bench runs on one host never share (or delete) each other's.
std::filesystem::path scratch_dir(const std::string& stem) {
    return std::filesystem::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()));
}

/// CPU time of the whole process (every harness thread). Unlike wall time
/// it does not count the intervals a contended host keeps the process off
/// its cores.
double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The queue gate's load: 8 Poisson KITTI streams, 900 ms SLO, `edf`,
/// performance governor (serve_overload_40k's shape). The device serves
/// about 2 requests/s, so 0.3 Hz per stream overloads it and 0.2 Hz does
/// not.
harness::Scenario overload_scenario(double rate_hz, std::size_t requests_per_stream) {
    auto s = harness::load_scenario(platform::orin_nano_spec(), "queue_gate", "queue_gate",
                                    {.scheduler = "edf"});
    auto& cfg = *s.serving;
    for (int i = 0; i < 8; ++i) {
        serving::StreamSpec stream;
        stream.name = "stream" + std::to_string(i);
        stream.slo_s = 0.9;
        stream.requests = requests_per_stream;
        stream.arrival.kind = serving::ArrivalKind::poisson;
        stream.arrival.rate_hz = rate_hz;
        stream.arrival.phase_s = i / (8.0 * rate_hz);
        cfg.streams.push_back(std::move(stream));
    }
    s.arms.push_back(harness::performance_arm());
    return s;
}

/// One timed scenario run (the result is discarded, only the clock matters).
double wall_of_run(const harness::Scenario& sc, const harness::ExperimentHarness& h) {
    prof::reset();
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = h.run(sc);
    const auto t1 = std::chrono::steady_clock::now();
    g_sink = static_cast<double>(results.size());
    return std::chrono::duration<double>(t1 - t0).count();
}

/// Process CPU seconds of one scenario run.
double cpu_of_run(const harness::Scenario& sc, const harness::ExperimentHarness& h) {
    prof::reset();
    const double c0 = process_cpu_s();
    const auto results = h.run(sc);
    const double c1 = process_cpu_s();
    g_sink = static_cast<double>(results.size());
    return c1 - c0;
}

/// Timed scopes in the current profiler report: the calls of every region.
std::uint64_t scope_count() {
    std::uint64_t n = 0;
    for (const auto& r : prof::capture().regions) n += r.calls;
    return n;
}

/// CPU seconds of one enabled timer scope, nested under a parent like the
/// library's scopes: the fastest of several batches of a tight loop, timed
/// on this thread's CPU clock.
double scope_cost_s() {
    constexpr int kBatches = 7;
    constexpr int kScopesPerBatch = 200'000;
    prof::set_enabled(true);
    double best = 1e300;
    for (int batch = 0; batch < kBatches; ++batch) {
        LOTUS_PROF_SCOPE("bench.scope_cost");
        timespec t0{};
        timespec t1{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
        for (int i = 0; i < kScopesPerBatch; ++i) {
            LOTUS_PROF_SCOPE("bench.scope_cost.inner");
        }
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
        const double s = static_cast<double>(t1.tv_sec - t0.tv_sec) +
                         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
        best = std::min(best, s / kScopesPerBatch);
    }
    prof::set_enabled(false);
    prof::reset();
    return best;
}

/// Min-of-`pairs` walls of two runs timed in interleaved pairs, so both
/// come from the same stretch of host time.
std::pair<double, double> paired_walls(const harness::Scenario& a,
                                       const harness::ExperimentHarness& a_h,
                                       const harness::Scenario& b,
                                       const harness::ExperimentHarness& b_h, int pairs) {
    double a_s = 1e300;
    double b_s = 1e300;
    for (int rep = 0; rep < pairs; ++rep) {
        a_s = std::min(a_s, wall_of_run(a, a_h));
        b_s = std::min(b_s, wall_of_run(b, b_h));
    }
    return {a_s, b_s};
}

/// Gate the profiler, telemetry, replay and queue costs; returns false
/// (failing the bench) on any missed bar.
bool timing_gates() {
    bool ok = true;
    const auto& sc = harness::ScenarioRegistry::instance().at("serve_saturation");

    // --- profiler timers-enabled overhead -----------------------------------
    // Gated on a deterministic product: the scopes one run enters (from the
    // profiler's own report) times the CPU cost of one scope (timed
    // in-process), as a share of the run's timers-off CPU time. An on/off
    // A/B on a shared host spreads by tens of percent, far more than the 2%
    // under test, so none is taken. The timers-on run also warms up the
    // timers-off run that gives the denominator.
    const auto& fleet_sc = harness::ScenarioRegistry::instance().at("serve_fleet_saturation");
    const harness::ExperimentHarness fleet_h(summary_only_config());
    prof::set_enabled(true);
    g_sink = cpu_of_run(fleet_sc, fleet_h);
    const std::uint64_t scopes = scope_count();
    prof::set_enabled(false);
    const double timers_off_cpu_s = cpu_of_run(fleet_sc, fleet_h);
    prof::reset();
    const double scope_ns = scope_cost_s() * 1e9;
    const double timer_cost_pct = static_cast<double>(scopes) * scope_ns * 1e-9 /
                                  std::max(timers_off_cpu_s, 1e-9) * 100.0;
    if (timer_cost_pct > 2.0) {
        std::printf("FAIL: profiler timers cost %.2f%% of serve_fleet_saturation (> 2%%)\n",
                    timer_cost_pct);
        ok = false;
    }
    std::printf("profiler timers on serve_fleet_saturation: %llu scopes x %.1f ns = %.3f%% "
                "of %.3fs CPU\n\n",
                static_cast<unsigned long long>(scopes), scope_ns, timer_cost_pct,
                timers_off_cpu_s);

    // --- telemetry recording and trace replay -------------------------------
    // The bars are deliberately loose -- they document the cost rather than
    // police scheduler noise: each fails only past 50% AND a 100 ms
    // absolute excess over the plain run. Replay skips the arrival/frame RNG
    // work but pays file I/O; its traces are recorded by one run first.
    const harness::ExperimentHarness plain_h(summary_only_config());
    auto tel_cfg = summary_only_config();
    tel_cfg.telemetry = true;
    const harness::ExperimentHarness tel_h(tel_cfg);
    const auto trace_dir = scratch_dir("bench_overhead_traces").string();
    std::filesystem::remove_all(trace_dir);
    auto rec_cfg = summary_only_config();
    rec_cfg.trace_dir = trace_dir;
    auto rep_cfg = summary_only_config();
    rep_cfg.replay_dir = trace_dir;
    const harness::ExperimentHarness rep_h(rep_cfg);
    g_sink = static_cast<double>(harness::ExperimentHarness(rec_cfg).run(sc).size());
    const auto [tel_off_s, tel_on_s] = paired_walls(sc, plain_h, sc, tel_h, 2);
    const auto [gen_s, rep_s] = paired_walls(sc, plain_h, sc, rep_h, 2);
    std::filesystem::remove_all(trace_dir);
    const struct {
        const char* what;
        double plain_s;
        double with_s;
    } bars[] = {{"telemetry recording", tel_off_s, tel_on_s},
                {"trace replay", gen_s, rep_s}};
    for (const auto& bar : bars) {
        const double pct = (bar.with_s - bar.plain_s) / std::max(bar.plain_s, 1e-9) * 100.0;
        if (pct > 50.0 && (bar.with_s - bar.plain_s) > 0.1) {
            std::printf("FAIL: %s costs %.2f%% over the plain run (>= 50%%)\n", bar.what, pct);
            ok = false;
        }
        std::printf("%s on serve_saturation: %.3fs plain, %.3fs with (%.2f%% overhead)\n",
                    bar.what, bar.plain_s, bar.with_s, pct);
    }
    std::printf("\n");

    // --- queue gate ---------------------------------------------------------
    // The same request count at an overloaded and an under-capacity rate:
    // simulated work is about equal, so a queue whose pick cost grows with
    // its depth shows up as the overloaded run's extra wall time.
    const std::size_t gate_requests = harness::fast_mode() ? 5'000 : 20'000;
    const auto overloaded_sc = overload_scenario(0.3, gate_requests);
    const auto under_sc = overload_scenario(0.2, gate_requests);
    const harness::ExperimentHarness gate_h(summary_only_config());
    // Depth pass (doubles as warm-up for the timed pairs).
    const std::size_t overloaded_depth =
        gate_h.run(overloaded_sc).at(0).serving_trace->max_queue_depth();
    const std::size_t under_depth = gate_h.run(under_sc).at(0).serving_trace->max_queue_depth();
    const auto [overloaded_s, under_s] =
        paired_walls(overloaded_sc, gate_h, under_sc, gate_h, 3);
    const double queue_ratio = overloaded_s / std::max(under_s, 1e-9);
    if (queue_ratio > 1.5) {
        std::printf("FAIL: overloaded run takes %.2fx the under-capacity run (> 1.5x)\n",
                    queue_ratio);
        ok = false;
    }
    std::printf("queue gate, 8 x %zu requests under edf: %.3fs at 0.3 Hz (max depth %zu), "
                "%.3fs at 0.2 Hz (max depth %zu), ratio %.2fx\n\n",
                gate_requests, overloaded_s, overloaded_depth, under_s, under_depth,
                queue_ratio);
    return ok;
}
#endif // LOTUS_SANITIZED_BUILD

} // namespace

int main() {
    std::printf("Sec. 4.4.2 -- overhead analysis of the agent\n\n");
    microbench();

    // Modelled communication overhead, via the registry scenario: how much
    // of each measured frame the engine charged to agent round-trips.
    const auto& sc = harness::ScenarioRegistry::instance().at("overhead_analysis");
    const auto results = harness::ExperimentHarness().run(sc);

    const double per_decision_ms = core::LotusConfig{}.decision_overhead_s * 1e3;
    util::TextTable table({"method", "decisions/frame", "charged overhead (ms)",
                           "mean frame (ms)", "overhead share (%)"});
    for (const auto& r : results) {
        const auto s = r.trace.summary();
        // zTT decides once per frame, LOTUS at frame start + post-RPN.
        const int decisions = (r.arm == "zTT") ? 1 : 2;
        const double overhead_ms = per_decision_ms * decisions;
        table.add_row({
            r.arm,
            std::to_string(decisions),
            util::format_double(overhead_ms, 2),
            util::format_double(s.mean_latency_s * 1e3, 1),
            util::format_double(100.0 * overhead_ms / (s.mean_latency_s * 1e3), 2),
        });
    }
    table.add_row({"(paper total)", "2", "8.52", "-", "-"});
    std::printf("%s", table.render(sc.title).c_str());
    std::printf("Expected shape: the agent costs a few ms per frame -- one to two percent\n"
                "of a several-hundred-ms detector inference, the paper's negligibility\n"
                "argument.\n\n");

    const bool stepper_ok = stepper_comparison();
    const bool counts_ok = count_gates();
#ifdef LOTUS_SANITIZED_BUILD
    // Instrumented code runs 5-15x slower, unevenly, so its wall-clock
    // ratios gate nothing.
    std::printf("timing gates skipped (sanitizer build)\n");
    const bool timing_ok = true;
#else
    const bool timing_ok = timing_gates();
#endif
    return (stepper_ok && counts_ok && timing_ok) ? 0 : 1;
}
