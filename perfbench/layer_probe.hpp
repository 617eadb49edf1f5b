#pragma once
// Outside-in per-layer timing of harness episodes.
//
// instrument() copies a scenario and wraps every arm's governor factory
// (ArmSpec::make / make_for) so each governor the engines build is a
// TimedGovernor: a decorator that forwards name(), tick_interval_s(),
// decision_overhead_s() and every hook result unchanged, and times each
// hook into the EpisodeProbe of its arm. The library runs unmodified.
//
// Episode and phase boundaries are read from the same hooks:
//  * the episode runs from its first governor's construction to its last
//    governor's destruction;
//  * the pretrain -> measured boundary of a learning governor is its first
//    frame start whose Observation::iteration restarts at 0 (every engine
//    renumbers measured frames from 0). Governors that do not pretrain are
//    in the measured phase from their first frame.

#include <chrono>
#include <cstdint>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct HookTime {
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/// Totals of one episode (one arm of one scenario run). Written only by the
/// worker thread that runs the episode; read after ExperimentHarness::run
/// has joined its workers.
struct EpisodeProbe {
    Clock::time_point start = Clock::time_point::max();
    Clock::time_point end = Clock::time_point::min();
    Clock::time_point first_frame = Clock::time_point::max();
    Clock::time_point serve_start = Clock::time_point::max();
    /// on_frame_start + on_post_rpn of learning agents (RL act).
    HookTime decide;
    /// on_frame_end of learning agents (reward, replay, train).
    HookTime learn;
    /// on_tick of any governor (the kernel governors' timer hook).
    HookTime tick;
    /// Frame hooks of non-learning governors.
    HookTime other;
    double hooks_pretrain_s = 0.0;
    double hooks_serve_s = 0.0;
    std::uint64_t pretrain_frames = 0;
    std::uint64_t serve_frames = 0;
    /// DqnCore::updates() summed over the episode's learning agents.
    std::uint64_t rl_updates = 0;

    [[nodiscard]] double hooks_s() const noexcept {
        return decide.seconds + learn.seconds + tick.seconds + other.seconds;
    }
    [[nodiscard]] double episode_s() const noexcept;
    [[nodiscard]] double pretrain_s() const noexcept;
    [[nodiscard]] double serve_s() const noexcept;
};

/// A copy of `scenario` whose governors report into probes[arm index].
/// `probes` is resized to the arm count and must outlive every run of the
/// returned scenario.
[[nodiscard]] lotus::harness::Scenario instrument(const lotus::harness::Scenario& scenario,
                                                  std::vector<EpisodeProbe>& probes);

} // namespace perfbench
