#pragma once
// Exploration schedules.
//
// * ExponentialDecay: the per-decision epsilon-greedy schedule of LOTUS's
//   main exploration and the per-frame one of zTT.
// * SinusoidalTriggerDecay: the paper's epsilon_t-greedy cool-down
//   (Sec. 4.3.5). epsilon_t starts in [0, 1] and decays sinusoidally *per
//   cool-down trigger*, so the agent is forced into random lower frequencies
//   when overheated early in training but gradually takes over hot-state
//   action selection as it accumulates experience.

#include <cstddef>

namespace lotus::rl {

/// epsilon(t) = end + (start - end) * rate^t. Throws std::invalid_argument
/// unless start >= end and rate is in (0, 1).
class ExponentialDecay {
public:
    ExponentialDecay(double start, double end, double rate);

    [[nodiscard]] double at(std::size_t step) const noexcept;

private:
    double start_;
    double end_;
    double rate_;
};

/// epsilon_t = floor + (eps0 - floor) * cos(pi/2 * min(k, K) / K), where k is
/// the number of cool-down triggers so far. value() reads the current
/// probability; trigger() advances k (call it each time the cool-down fires).
class SinusoidalTriggerDecay {
public:
    SinusoidalTriggerDecay(double eps0, double floor, std::size_t total_triggers);

    [[nodiscard]] double value() const noexcept;
    void trigger() noexcept;
    void reset() noexcept { triggers_ = 0; }

    [[nodiscard]] std::size_t triggers() const noexcept { return triggers_; }

private:
    double eps0_;
    double floor_;
    std::size_t total_;
    std::size_t triggers_ = 0;
};

} // namespace lotus::rl
