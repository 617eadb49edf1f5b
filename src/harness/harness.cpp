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

    // Serving and fleet episodes serve a request timeline. Each binds its
    // workload seed, the timeline it replays (replay_dir) and whether the
    // ledger keeps rows once, through the shared load half. Capture
    // (trace_dir) writes the timeline the engine is about to serve --
    // generated, or replayed, so recording a replay reproduces its input:
    // record(replay(t)) == t.
    const auto bind_load = [&](serving::LoadConfig& load) {
        load.seed = cfg.seed;
        if (!config_.replay_dir.empty()) {
            load.replay_trace =
                episode_trace_path(config_.replay_dir, scenario.name, arm_index, arm.name);
        }
        if (config_.summary_only) load.capture_rows = false;
    };
    const auto capture = [&](const auto& engine) {
        if (config_.trace_dir.empty()) return;
        trace::write_trace(
            episode_trace_path(config_.trace_dir, scenario.name, arm_index, arm.name),
            engine.config().streams, engine.build_requests());
    };

    if (scenario.fleet) {
        auto fleet_cfg = *scenario.fleet;
        if (over.router) fleet_cfg.router = *over.router;
        if (over.migrate_on_throttle) fleet_cfg.migrate_on_throttle = *over.migrate_on_throttle;
        bind_load(fleet_cfg);
        // The arm's factory is invoked once per device by the engine, with
        // device-id-namespaced seeds derived from this root (the draw that
        // seeds the single governor of non-fleet episodes), so each pool
        // device gets a governor sized for its own ladder.
        const auto governor_root = sm.next();
        const fleet::FleetEngine engine(fleet_cfg);
        capture(engine);
        auto trace = engine.run(arm.make_for, governor_root);
        EpisodeResult result{scenario.name,    arm.name,
                             episode_seed,     std::move(cfg),
                             runtime::Trace{}, arm.paper,
                             std::nullopt,     std::nullopt,
                             std::move(fleet_cfg), std::move(trace),
                             std::move(recorder)};
        return result;
    }

    auto governor = arm.make_for(scenario.config.device_spec, sm.next());

    if (scenario.serving) {
        auto serving_cfg = *scenario.serving;
        bind_load(serving_cfg);
        // Non-learning governors need no warm-up (same rule as below).
        if (governor->decision_overhead_s() == 0.0) serving_cfg.pretrain_iterations = 0;
        const serving::ServingEngine engine(serving_cfg);
        capture(engine);
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
