#include "harness/harness.hpp"

#include <atomic>
#include <exception>
#include <optional>
#include <thread>

#include "fleet/engine.hpp"
#include "harness/sinks.hpp"
#include "serving/engine.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace lotus::harness {

std::string episode_trace_path(const std::string& dir, const std::string& scenario_name,
                               std::size_t arm_index, const std::string& arm_name) {
    auto idx = std::to_string(arm_index);
    if (idx.size() < 2) idx.insert(0, 2 - idx.size(), '0');
    return dir + "/" + artifact_name(scenario_name) + "/" + idx + "_" +
           artifact_name(arm_name) + ".ltrc";
}

ExperimentHarness::ExperimentHarness(HarnessConfig config) : config_(config) {
    if (config_.jobs == 0) {
        const auto hw = std::thread::hardware_concurrency();
        config_.jobs = hw > 0 ? hw : 1;
    }
}

EpisodeResult ExperimentHarness::run_episode(const Scenario& scenario,
                                             std::size_t arm_index) const {
    const auto& arm = scenario.arms.at(arm_index);
    const auto& over = arm.overrides;
    auto cfg = scenario.config;
    if (over.detector) cfg.detector = *over.detector;
    if (over.schedule) cfg.schedule = *over.schedule;
    if (over.pinned_proposals) cfg.pinned_proposals = over.pinned_proposals;

    // Episode seed: a pure function of (harness seed, scenario, arm index).
    // One splitmix draw seeds the workload streams, a second seeds the
    // governor, so the two never share a stream.
    const auto episode_seed = util::derive_seed(config_.seed, scenario.name, arm_index);
    util::SplitMix64 sm(episode_seed);
    cfg.seed = sm.next();

    // Telemetry: one recorder per episode, bound to this worker thread for
    // the episode's duration. An episode runs start-to-finish on one thread,
    // so the recorder needs no locks, and its content is a pure function of
    // the episode identity (byte-identical across --jobs counts).
    std::shared_ptr<telemetry::Recorder> recorder;
    if (config_.telemetry) recorder = std::make_shared<telemetry::Recorder>();
    telemetry::BindScope bind(recorder.get());

    // Trace capture/replay applies to episodes with a request timeline
    // (serving/fleet). The capture scope is thread-local, so concurrent
    // episodes on other workers record to their own paths.
    const bool has_timeline = scenario.fleet.has_value() || scenario.serving.has_value();
    std::string capture_to;
    if (has_timeline && !config_.trace_dir.empty()) {
        capture_to =
            episode_trace_path(config_.trace_dir, scenario.name, arm_index, arm.name);
    }
    trace::CaptureScope capture(capture_to);
    std::string replay_from;
    if (has_timeline && !config_.replay_dir.empty()) {
        replay_from =
            episode_trace_path(config_.replay_dir, scenario.name, arm_index, arm.name);
    }

    if (scenario.fleet) {
        auto fleet_cfg = *scenario.fleet;
        if (over.router) fleet_cfg.router = *over.router;
        if (over.migrate_on_throttle) fleet_cfg.migrate_on_throttle = *over.migrate_on_throttle;
        fleet_cfg.seed = cfg.seed;
        if (!replay_from.empty()) fleet_cfg.replay_trace = replay_from;
        if (config_.summary_only) fleet_cfg.capture_rows = false;
        // The factory is invoked once per device by the engine, with
        // device-id-namespaced seeds derived from this root (the draw that
        // seeds the single governor of non-fleet episodes). Spec-dependent
        // arms provide make_for so each pool device gets a governor sized
        // for its own ladder; spec-independent arms fall back to make.
        const auto governor_root = sm.next();
        fleet::FleetEngine::GovernorFactory factory;
        if (arm.make_for) {
            factory = arm.make_for;
        } else {
            factory = [&arm](const platform::DeviceSpec&, std::uint64_t seed) {
                return arm.make(seed);
            };
        }
        const fleet::FleetEngine engine(fleet_cfg);
        auto trace = engine.run(factory, governor_root);
        EpisodeResult result{scenario.name,    arm.name,
                             episode_seed,     std::move(cfg),
                             runtime::Trace{}, arm.paper,
                             std::nullopt,     std::nullopt,
                             std::move(fleet_cfg), std::move(trace),
                             std::move(recorder)};
        return result;
    }

    auto governor = arm.make(sm.next());

    if (scenario.serving) {
        auto serving_cfg = *scenario.serving;
        serving_cfg.seed = cfg.seed;
        if (!replay_from.empty()) serving_cfg.replay_trace = replay_from;
        if (config_.summary_only) serving_cfg.capture_rows = false;
        // Non-learning governors need no warm-up (same rule as below).
        if (governor->decision_overhead_s() == 0.0) serving_cfg.pretrain_iterations = 0;
        const serving::ServingEngine engine(serving_cfg);
        auto trace = engine.run(*governor);
        return EpisodeResult{scenario.name,    arm.name,
                             episode_seed,     std::move(cfg),
                             runtime::Trace{}, arm.paper,
                             std::move(serving_cfg), std::move(trace),
                             std::nullopt,     std::nullopt,
                             std::move(recorder)};
    }

    // Non-learning governors need no warm-up; skipping it keeps sweeps fast.
    if (governor->decision_overhead_s() == 0.0) cfg.pretrain_iterations = 0;

    const runtime::ExperimentRunner runner(cfg);
    auto trace = runner.run(*governor);
    return EpisodeResult{scenario.name,  arm.name,         episode_seed,
                         std::move(cfg), std::move(trace), arm.paper,
                         std::nullopt,   std::nullopt,     std::nullopt,
                         std::nullopt,   std::move(recorder)};
}

std::vector<EpisodeResult> ExperimentHarness::run(const Scenario& scenario) const {
    return run(std::vector<const Scenario*>{&scenario});
}

std::vector<EpisodeResult> ExperimentHarness::run(
    const std::vector<const Scenario*>& batch) const {
    struct Episode {
        const Scenario* scenario;
        std::size_t arm_index;
    };
    std::vector<Episode> episodes;
    std::size_t total_arms = 0;
    for (const Scenario* s : batch) total_arms += s->arms.size();
    episodes.reserve(total_arms);
    for (const Scenario* s : batch) {
        for (std::size_t a = 0; a < s->arms.size(); ++a) episodes.push_back({s, a});
    }

    // Slot per episode: declaration order in, declaration order out,
    // independent of which worker finishes first.
    std::vector<std::optional<EpisodeResult>> slots(episodes.size());
    std::vector<std::exception_ptr> errors(episodes.size());

    const auto execute = [&](std::size_t i) {
        try {
            slots[i] = run_episode(*episodes[i].scenario, episodes[i].arm_index);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    const std::size_t jobs = std::min(config_.jobs, episodes.size());
    if (jobs <= 1) {
        for (std::size_t i = 0; i < episodes.size(); ++i) execute(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (std::size_t w = 0; w < jobs; ++w) {
            pool.emplace_back([&] {
                for (;;) {
                    const auto i = next.fetch_add(1);
                    if (i >= episodes.size()) return;
                    execute(i);
                }
            });
        }
        for (auto& t : pool) t.join();
    }

    for (auto& err : errors) {
        if (err) std::rethrow_exception(err);
    }
    std::vector<EpisodeResult> results;
    results.reserve(slots.size());
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
}

} // namespace lotus::harness
