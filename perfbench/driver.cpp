// perfbench_driver: runs one benchmark workload through the library's public
// entry points and prints one JSON object of raw measurements on stdout.
// perfbench/run.py builds it, turns the measurements into metrics and checks
// them; run the driver directly only to debug it.
//
//   perfbench_driver --mode measure --workload NAME --seed N --seconds S --out DIR
//   perfbench_driver --mode check   --workload NAME --seed N --out DIR
//   perfbench_driver --mode trace   --workload NAME --seed N --out DIR
//
// Modes:
//   measure  on each of one thread per core (at most four), all at once:
//            set the workload up many times, then run whole serial passes
//            until S seconds are spent (at least three). Each pass is
//            harness run -> scenario_json -> output written (plus the
//            telemetry artifacts on the telemetry workload). The
//            calibration kernel runs between samples on the same thread,
//            and each sample's CPU time is also reported rescaled to the
//            reference core speed (see calibrate.hpp).
//   check    rerun the workload's non-learning episodes at a second job
//            count (single-arm workloads: two copies of the episode
//            concurrently), telemetry off, and print their core digests.
//   trace    one untraced pass, one pass with every governor hook timed
//            from outside (layer_probe.hpp), a telemetry-off traced pass on
//            the telemetry workload, and the microbenchmarks.
//
// An episode's core digest is FNV-1a over its scenario_json document (build
// id blanked, so digests compare across builds) and its ledger-derived
// latency spread and counters; its digest adds the telemetry counts and
// health report. Outputs go under DIR, which is emptied after every pass.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/sinks.hpp"
#include "layer_probe.hpp"
#include "micro.hpp"
#include "serving/engine.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace lotus;
using perfbench::Clock;
using perfbench::Workload;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by the calling thread so far. Unlike wall time it
/// leaves out the time the thread waits for a core.
double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string fmt(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Flat JSON object builder (keys and string values are plain ASCII names).
class Json {
public:
    Json& num(const std::string& k, double v) { return raw(k, fmt(v)); }
    Json& count(const std::string& k, std::uint64_t v) { return raw(k, std::to_string(v)); }
    Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
    Json& str(const std::string& k, const std::string& v) { return raw(k, "\"" + v + "\""); }
    Json& raw(const std::string& k, const std::string& json) {
        if (!body_.empty()) body_ += ',';
        body_ += "\"" + k + "\":" + json;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + items[i];
    return out + "]";
}

std::string json_numbers(const std::vector<double>& xs) {
    std::vector<std::string> items;
    for (double x : xs) items.push_back(fmt(x));
    return json_array(items);
}

struct Fnv1a {
    std::uint64_t h = 1469598103934665603ULL;
    void add(const std::string& s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    }
    [[nodiscard]] std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
        return buf;
    }
};

/// scenario_json with the build id blanked: the digest pins behaviour, not
/// the commit that produced it.
std::string behaviour_json(const harness::Scenario& s,
                           const std::vector<harness::EpisodeResult>& r) {
    auto doc = harness::scenario_json(s, r);
    const std::string key = "\"build\":\"";
    if (const auto at = doc.find(key); at != std::string::npos) {
        const auto begin = at + key.size();
        doc.erase(begin, doc.find('"', begin) - begin);
    }
    return doc;
}

/// What one episode produced, reduced to what the benchmark reports/checks.
struct EpisodeStats {
    std::string arm;
    /// Digest of everything the episode outputs, telemetry included.
    std::string digest;
    /// Digest of the simulation outputs alone (telemetry excluded).
    std::string core_digest;
    bool conserved = true;
    bool finite = true;
    std::uint64_t pretrain_frames = 0;
    std::uint64_t measured_frames = 0;
    std::uint64_t requests = 0;
    std::uint64_t shed = 0;
    std::uint64_t missed = 0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t thermal_steps = 0;
    std::uint64_t telemetry_events = 0;
    std::uint64_t telemetry_breaches = 0;
    double peak_temp_c = 0.0;
    /// Latency population of the reference metrics: end-to-end latency of
    /// served requests (serving) or per-frame latency (experiments).
    std::vector<double> latency_ms;
    std::optional<harness::PaperRow> paper;
    double mean_ms = 0.0;
    double std_ms = 0.0;
    double satisfaction = 0.0;

    [[nodiscard]] std::string json() const {
        return Json()
            .str("arm", arm)
            .str("digest", digest)
            .str("core_digest", core_digest)
            .flag("conserved", conserved)
            .flag("finite", finite)
            .count("pretrain_frames", pretrain_frames)
            .count("measured_frames", measured_frames)
            .count("requests", requests)
            .count("shed", shed)
            .count("max_queue_depth", max_queue_depth)
            .count("thermal_steps", thermal_steps)
            .count("telemetry_events", telemetry_events)
            .count("telemetry_breaches", telemetry_breaches)
            .text();
    }
};

void add_served(EpisodeStats& st, const serving::ServingRecord& row) {
    if (!row.shed) st.latency_ms.push_back(row.e2e_s * 1e3);
}

std::uint64_t expected_requests(const std::vector<serving::StreamSpec>& streams) {
    std::uint64_t n = 0;
    for (const auto& s : streams) n += s.requests;
    return n;
}

EpisodeStats episode_stats(const harness::Scenario& scenario, harness::EpisodeResult result) {
    EpisodeStats st;
    st.arm = result.arm;
    Fnv1a digest;
    if (result.serving_trace) {
        const auto& t = *result.serving_trace;
        const auto agg = t.aggregate();
        for (const auto& r : t.records()) add_served(st, r);
        st.requests = agg.requests;
        st.shed = agg.shed;
        st.missed = agg.missed;
        st.measured_frames = agg.served;
        st.max_queue_depth = t.max_queue_depth();
        st.thermal_steps = t.thermal_steps();
        st.peak_temp_c = agg.peak_device_temp_c;
        st.pretrain_frames = result.serving_config->pretrain_iterations;
        st.conserved = agg.requests == expected_requests(result.serving_config->streams) &&
                       agg.served + agg.shed == agg.requests;
    } else {
        const auto s = result.trace.summary();
        st.latency_ms = result.trace.latencies_ms();
        st.measured_frames = result.trace.size();
        // Frames stand in for requests in the miss-rate population.
        const auto frames = static_cast<double>(s.frames);
        st.requests = s.frames;
        st.missed = s.frames - static_cast<std::uint64_t>(std::llround(s.satisfaction_rate * frames));
        st.peak_temp_c = s.max_device_temp;
        st.pretrain_frames = result.config.pretrain_iterations;
        st.conserved = result.trace.size() == result.config.iterations;
        st.paper = result.paper;
        st.mean_ms = s.mean_latency_s * 1e3;
        st.std_ms = s.std_latency_s * 1e3;
        st.satisfaction = s.satisfaction_rate;
    }
    util::RunningStats spread;
    for (double x : st.latency_ms) {
        spread.add(x);
        st.finite = st.finite && std::isfinite(x);
    }
    st.finite = st.finite && std::isfinite(st.peak_temp_c);

    std::vector<harness::EpisodeResult> one;
    one.push_back(std::move(result));
    digest.add(behaviour_json(scenario, one));
    for (const auto& part : {fmt(spread.stddev()), std::to_string(st.thermal_steps)}) {
        digest.add(part);
        digest.add("|");
    }
    st.core_digest = digest.hex();
    if (const auto& recorder = one.front().telemetry) {
        st.telemetry_events = recorder->event_count();
        st.telemetry_breaches = recorder->breach_count();
        digest.add(std::to_string(st.telemetry_events) + "|" +
                   std::to_string(st.telemetry_breaches));
        digest.add(recorder->health_json());
    }
    st.digest = digest.hex();
    return st;
}

/// The ten-metric simulated half, pooled over the reference arms.
std::string reference_json(const Workload& w, const std::vector<EpisodeStats>& eps) {
    std::vector<double> lat;
    std::uint64_t requests = 0;
    std::uint64_t missed = 0;
    double peak = 0.0;
    for (auto i : w.reference_arms) {
        const auto& e = eps.at(i);
        lat.insert(lat.end(), e.latency_ms.begin(), e.latency_ms.end());
        requests += e.requests;
        missed += e.missed;
        peak = std::max(peak, e.peak_temp_c);
    }
    util::RunningStats stats;
    for (double x : lat) stats.add(x);
    const auto p = util::percentiles(lat, {50.0, 95.0});
    Json j;
    j.num("sim_p50_latency_ms", p[0])
        .num("sim_p95_latency_ms", p[1])
        .num("sim_latency_std_ms", stats.stddev())
        .num("sim_miss_rate", requests ? static_cast<double>(missed) / requests : 0.0)
        .num("sim_peak_temp_c", peak)
        .count("samples", lat.size());
    // Table 1 cells: mean relative error of the reference arm's mean latency,
    // std and satisfaction rate against the paper's reported values.
    const auto& ref = eps.at(w.reference_arms.front());
    if (ref.paper) {
        const auto rel = [](double got, double want) { return std::abs(got - want) / want; };
        j.num("paper_gap_pct", 100.0 *
                                   (rel(ref.mean_ms, ref.paper->mean_ms) +
                                    rel(ref.std_ms, ref.paper->std_ms) +
                                    rel(ref.satisfaction, ref.paper->satisfaction)) /
                                   3.0);
    }
    return j.text();
}

struct Pass {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double emit_s = 0.0;
    std::uint64_t bytes_written = 0;
    std::vector<EpisodeStats> episodes;
};

std::uint64_t bytes_under(const fs::path& dir) {
    std::uint64_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file()) n += e.file_size();
    }
    return n;
}

/// One whole serial pass on the calling thread: harness run -> scenario_json
/// -> output written. Outputs are removed afterwards, outside the timed
/// region.
Pass run_pass(const Workload& w, const harness::Scenario& scenario, std::uint64_t seed,
              bool telemetry, const fs::path& out_dir) {
    harness::HarnessConfig cfg;
    cfg.jobs = 1;
    cfg.seed = seed;
    cfg.telemetry = telemetry;
    const harness::ExperimentHarness harness(cfg);
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);

    Pass pass;
    const auto t0 = Clock::now();
    const double cpu0 = cpu_now();
    auto results = harness.run(scenario);
    const auto t_emit = Clock::now();
    {
        std::ofstream out(out_dir / (w.name + ".json"), std::ios::binary);
        out << harness::scenario_json(scenario, results) << '\n';
    }
    if (telemetry) {
        harness::TelemetrySink((out_dir / "telemetry").string(), false).consume(scenario, results);
    }
    pass.wall_s = since(t0);
    pass.cpu_s = cpu_now() - cpu0;
    pass.emit_s = since(t_emit);
    pass.bytes_written = bytes_under(out_dir);
    fs::remove_all(out_dir);

    for (std::size_t i = 0; i < results.size(); ++i) {
        pass.episodes.push_back(episode_stats(scenario, std::move(results[i])));
    }
    return pass;
}

std::string pass_json(const Workload& w, const Pass& p) {
    std::vector<std::string> eps;
    for (const auto& e : p.episodes) eps.push_back(e.json());
    return Json()
        .num("wall_s", p.wall_s)
        .num("cpu_s", p.cpu_s)
        .num("emit_s", p.emit_s)
        .count("bytes_written", p.bytes_written)
        .raw("episodes", json_array(eps))
        .raw("reference", reference_json(w, p.episodes))
        .text();
}

/// Whether each arm's governor is a learning agent: the harness' own rule
/// (non-zero decision overhead), read through the arm factories.
std::vector<bool> learning_arms(const harness::Scenario& s) {
    std::vector<bool> out;
    for (const auto& arm : s.arms) {
        const auto g = arm.make_for ? arm.make_for(s.config.device_spec, 0) : arm.make(0);
        out.push_back(g->decision_overhead_s() > 0.0);
    }
    return out;
}

/// Build the workload's request timeline the way its engine does (0 for
/// classic experiments, which have none). Returns the request count.
std::size_t build_timeline(const harness::Scenario& s, std::uint64_t seed) {
    if (s.serving) {
        auto cfg = *s.serving;
        cfg.seed = seed;
        return serving::ServingEngine(cfg).build_requests().size();
    }
    return 0;
}

/// Everything before the first episode: scenario catalog, workload config,
/// arm probing and the request timeline. Returns its CPU seconds.
double setup_once(const std::string& name, std::uint64_t seed) {
    const double cpu0 = cpu_now();
    const harness::ScenarioRegistry registry;
    const auto w = perfbench::make_workload(name, registry);
    (void)learning_arms(w.scenario);
    (void)build_timeline(w.scenario, seed);
    return cpu_now() - cpu0;
}

/// CPU seconds at the reference core speed: `cpu_s` divided by the speed
/// the calibration kernel saw just before and just after it on the same
/// thread.
double at_reference(double cpu_s, double calibration_before, double calibration_after) {
    return cpu_s * perfbench::kReferenceCalibrationS /
           (0.5 * (calibration_before + calibration_after));
}

struct Samples {
    std::vector<double> cpu_s;
    std::vector<double> ref_s;
};

/// Set-up samples on the calling thread, each between two calibrations: at
/// least kMin, more until about a second of CPU is spent, at most kMax.
Samples setup_samples(const std::string& name, std::uint64_t seed) {
    constexpr std::size_t kMin = 15;
    constexpr std::size_t kMax = 101;
    Samples out;
    double spent = 0.0;
    (void)perfbench::calibration_s(); // the first call on a thread runs cold
    double before = perfbench::calibration_s();
    while (out.cpu_s.size() < kMin || (spent < 1.0 && out.cpu_s.size() < kMax)) {
        const double cpu = setup_once(name, seed);
        const double after = perfbench::calibration_s();
        out.cpu_s.push_back(cpu);
        out.ref_s.push_back(at_reference(cpu, before, after));
        spent += cpu + after;
        before = after;
    }
    return out;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Threads that run copies of the measured work at once: one per core, at
/// most four. The cores of a shared host slow down independently of each
/// other, so a median over copies on every core is steadier than any one
/// core's figure.
std::size_t measuring_threads() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Runs fn(k) for k in [0, n) on n threads at once and waits for all.
template <class Fn>
void run_copies(std::size_t n, Fn fn) {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t k = 0; k < n; ++k) threads.emplace_back(fn, k);
    for (auto& t : threads) t.join();
}

/// What one measuring thread produced.
struct ThreadRun {
    Samples setup;
    std::vector<std::string> passes;
    std::vector<double> pass_ref_s;
};

/// One measuring thread: set-up samples, then whole passes until `seconds`
/// are spent (at least kMinPasses), each between two calibrations.
ThreadRun measure_on_thread(const Workload& w, std::uint64_t seed, double seconds,
                            const fs::path& out) {
    constexpr std::size_t kMinPasses = 3;
    ThreadRun run;
    run.setup = setup_samples(w.name, seed);
    double before = perfbench::calibration_s();
    const auto t0 = Clock::now();
    double last = 0.0;
    do {
        const auto t_pass = Clock::now();
        const auto pass = run_pass(w, w.scenario, seed, w.telemetry, out);
        const double after = perfbench::calibration_s();
        last = since(t_pass);
        run.pass_ref_s.push_back(at_reference(pass.cpu_s, before, after));
        run.passes.push_back(pass_json(w, pass));
        before = after;
    } while (run.passes.size() < kMinPasses || since(t0) + last <= seconds);
    return run;
}

int mode_measure(const Workload& w, std::uint64_t seed, double seconds, const fs::path& out) {
    // Peak memory of one copy: one untimed serial pass before the measuring
    // threads start, whose peaks would otherwise add up by chance.
    (void)run_pass(w, w.scenario, seed, w.telemetry, out / "rss");
    const double rss_mb = peak_rss_mb();
    const std::size_t copies = measuring_threads();
    std::vector<ThreadRun> runs(copies);
    run_copies(copies, [&](std::size_t k) {
        runs[k] = measure_on_thread(w, seed, seconds, out / std::to_string(k));
    });
    ThreadRun all;
    for (auto& r : runs) {
        all.setup.cpu_s.insert(all.setup.cpu_s.end(), r.setup.cpu_s.begin(), r.setup.cpu_s.end());
        all.setup.ref_s.insert(all.setup.ref_s.end(), r.setup.ref_s.begin(), r.setup.ref_s.end());
        all.passes.insert(all.passes.end(), r.passes.begin(), r.passes.end());
        all.pass_ref_s.insert(all.pass_ref_s.end(), r.pass_ref_s.begin(), r.pass_ref_s.end());
    }
    std::printf("%s\n", Json()
                            .str("mode", "measure")
                            .str("workload", w.name)
                            .count("seed", seed)
                            .count("threads", copies)
                            .raw("setup_cpu_s", json_numbers(all.setup.cpu_s))
                            .raw("setup_ref_s", json_numbers(all.setup.ref_s))
                            .raw("passes", json_array(all.passes))
                            .raw("pass_ref_s", json_numbers(all.pass_ref_s))
                            .num("peak_rss_mb", rss_mb)
                            .text()
                            .c_str());
    return 0;
}

int mode_check(const Workload& w, std::uint64_t seed) {
    const auto learning = learning_arms(w.scenario);
    const bool any_cheap = std::find(learning.begin(), learning.end(), false) != learning.end();
    // Learning episodes are swapped for `performance` stand-ins: arm indices
    // (and so every kept episode's seed) stay put, the rerun stays cheap.
    harness::Scenario s = w.scenario;
    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < s.arms.size(); ++i) {
        if (any_cheap && learning[i]) {
            s.arms[i] = harness::performance_arm();
        } else {
            kept.push_back(i);
        }
    }
    // Recording is passive, so the check compares simulation digests with
    // telemetry off (the traced run compares full digests).
    harness::HarnessConfig cfg;
    cfg.jobs = 2;
    cfg.seed = seed;
    const harness::ExperimentHarness harness(cfg);
    // A single-arm workload runs two copies of its episode concurrently.
    const std::vector<const harness::Scenario*> batch =
        s.arms.size() == 1 ? std::vector<const harness::Scenario*>{&s, &s}
                           : std::vector<const harness::Scenario*>{&s};
    auto results = harness.run(batch);
    std::vector<std::string> checked;
    for (std::size_t r = 0; r < results.size(); ++r) {
        const std::size_t arm = r % s.arms.size();
        if (std::find(kept.begin(), kept.end(), arm) == kept.end()) continue;
        const auto st = episode_stats(s, std::move(results[r]));
        checked.push_back(
            Json().count("arm_index", arm).str("core_digest", st.core_digest).text());
    }
    std::printf("%s\n", Json()
                            .str("mode", "check")
                            .str("workload", w.name)
                            .count("jobs", cfg.jobs)
                            .raw("episodes", json_array(checked))
                            .text()
                            .c_str());
    return 0;
}

std::string probe_json(const perfbench::EpisodeProbe& p) {
    return Json()
        .num("episode_s", p.episode_s())
        .num("pretrain_s", p.pretrain_s())
        .num("serve_s", p.serve_s())
        .num("hooks_s", p.hooks_s())
        .num("hooks_pretrain_s", p.hooks_pretrain_s)
        .num("hooks_serve_s", p.hooks_serve_s)
        .num("decide_s", p.decide.seconds)
        .count("decide_calls", p.decide.calls)
        .num("learn_s", p.learn.seconds)
        .count("learn_calls", p.learn.calls)
        .num("tick_s", p.tick.seconds)
        .count("tick_calls", p.tick.calls)
        .num("other_s", p.other.seconds)
        .count("other_calls", p.other.calls)
        .count("pretrain_frames", p.pretrain_frames)
        .count("serve_frames", p.serve_frames)
        .count("rl_updates", p.rl_updates)
        .text();
}

std::string traced_pass_json(const Workload& w, std::uint64_t seed, bool telemetry,
                             const fs::path& out) {
    std::vector<perfbench::EpisodeProbe> probes;
    const auto scenario = perfbench::instrument(w.scenario, probes);
    const auto pass = run_pass(w, scenario, seed, telemetry, out);
    std::vector<std::string> ps;
    for (const auto& p : probes) ps.push_back(probe_json(p));
    return Json().raw("pass", pass_json(w, pass)).raw("probes", json_array(ps)).text();
}

int mode_trace(const Workload& w, std::uint64_t seed, const fs::path& out) {
    std::vector<double> timeline_s;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        (void)build_timeline(w.scenario, seed);
        timeline_s.push_back(since(t0));
    }
    const auto untraced = run_pass(w, w.scenario, seed, w.telemetry, out);
    const auto& s = w.scenario;
    Json j;
    j.str("mode", "trace")
        .str("workload", w.name)
        .str("engine", s.is_serving() ? "serving" : "experiment")
        .count("seed", seed)
        .raw("timeline_s", json_numbers(timeline_s))
        .raw("untraced", pass_json(w, untraced))
        .raw("traced", traced_pass_json(w, seed, w.telemetry, out));
    if (w.telemetry) {
        j.raw("traced_no_telemetry", traced_pass_json(w, seed, false, out));
    }
    const auto m = perfbench::run_microbenchmarks(seed);
    j.raw("micro", Json()
                       .num("train_step_us", m.train_step_us)
                       .num("forward_us", m.forward_us)
                       .num("forward_slim_us", m.forward_slim_us)
                       .num("pick_us", m.pick_us)
                       .num("pick_admit_us", m.pick_admit_us)
                       .text());
    std::printf("%s\n", j.text().c_str());
    return 0;
}

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    // Fixed allocator thresholds. By default glibc raises its mmap and trim
    // thresholds as the process frees memory, so whether a thread's arena
    // hands memory back to the kernel (and faults it in again) depends on
    // how the measuring threads interleave: set-up times then split into
    // two modes 1.8x apart from run to run.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    std::string mode;
    std::string workload;
    std::string out;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--mode") {
                mode = value;
            } else if (flag == "--workload") {
                workload = value;
            } else if (flag == "--out") {
                out = value;
            } else if (flag == "--seed") {
                seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                seconds = std::stod(value);
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (workload.empty() || out.empty() || !have_seed) {
        usage("--workload, --seed and --out are required");
    }
    try {
        const harness::ScenarioRegistry registry;
        const auto w = perfbench::make_workload(workload, registry);
        if (mode == "measure") return mode_measure(w, seed, seconds, out);
        if (mode == "check") return mode_check(w, seed);
        if (mode == "trace") return mode_trace(w, seed, out);
        usage("unknown --mode '" + mode + "' (measure | check | trace)");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
