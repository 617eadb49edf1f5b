#include "layer_probe.hpp"

#include <algorithm>
#include <memory>

#include "governors/ztt.hpp"
#include "lotus/agent.hpp"

namespace perfbench {

namespace {

using namespace lotus;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Pretraining iterations the scenario configures for learning arms (the
/// harness and engines skip pretraining for non-learning governors).
std::size_t pretrain_iterations(const harness::Scenario& s) {
    if (s.fleet) return s.fleet->pretrain_iterations;
    if (s.serving) return s.serving->pretrain_iterations;
    return s.config.pretrain_iterations;
}

std::uint64_t rl_updates(const governors::Governor& g) {
    if (const auto* agent = dynamic_cast<const core::LotusAgent*>(&g)) {
        std::uint64_t n = agent->even_net().updates();
        if (&agent->odd_net() != &agent->even_net()) n += agent->odd_net().updates();
        return n;
    }
    if (const auto* ztt = dynamic_cast<const governors::ZttGovernor*>(&g)) {
        return ztt->dqn().updates();
    }
    return 0;
}

class TimedGovernor final : public governors::Governor {
public:
    TimedGovernor(std::unique_ptr<governors::Governor> inner, EpisodeProbe& probe,
                  bool scenario_pretrains)
        : inner_(std::move(inner)),
          probe_(probe),
          learning_(inner_->decision_overhead_s() > 0.0),
          pretraining_(learning_ && scenario_pretrains) {
        probe_.start = std::min(probe_.start, Clock::now());
    }
    ~TimedGovernor() override {
        probe_.rl_updates += rl_updates(*inner_);
        probe_.end = std::max(probe_.end, Clock::now());
    }
    TimedGovernor(const TimedGovernor&) = delete;
    TimedGovernor& operator=(const TimedGovernor&) = delete;
    TimedGovernor(TimedGovernor&&) = delete;
    TimedGovernor& operator=(TimedGovernor&&) = delete;

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] double tick_interval_s() const override { return inner_->tick_interval_s(); }
    [[nodiscard]] double decision_overhead_s() const override {
        return inner_->decision_overhead_s();
    }

    governors::LevelRequest on_frame_start(const governors::Observation& obs) override {
        const auto t0 = Clock::now();
        enter_frame(obs, t0);
        const auto r = inner_->on_frame_start(obs);
        charge(learning_ ? probe_.decide : probe_.other, t0);
        return r;
    }
    governors::LevelRequest on_post_rpn(const governors::Observation& obs) override {
        const auto t0 = Clock::now();
        const auto r = inner_->on_post_rpn(obs);
        charge(learning_ ? probe_.decide : probe_.other, t0);
        return r;
    }
    void on_frame_end(const governors::FrameOutcome& outcome) override {
        const auto t0 = Clock::now();
        inner_->on_frame_end(outcome);
        charge(learning_ ? probe_.learn : probe_.other, t0);
    }
    governors::LevelRequest on_tick(const governors::TickObservation& obs) override {
        const auto t0 = Clock::now();
        const auto r = inner_->on_tick(obs);
        charge(probe_.tick, t0);
        return r;
    }

private:
    void enter_frame(const governors::Observation& obs, Clock::time_point now) {
        if (frames_ == 0) probe_.first_frame = std::min(probe_.first_frame, now);
        if (pretraining_ && frames_ > 0 && obs.iteration == 0) pretraining_ = false;
        if (!pretraining_ && !measured_) {
            measured_ = true;
            probe_.serve_start = std::min(probe_.serve_start, now);
        }
        ++frames_;
        ++(pretraining_ ? probe_.pretrain_frames : probe_.serve_frames);
    }

    void charge(HookTime& bucket, Clock::time_point t0) {
        const double s = seconds_between(t0, Clock::now());
        bucket.seconds += s;
        ++bucket.calls;
        (pretraining_ ? probe_.hooks_pretrain_s : probe_.hooks_serve_s) += s;
    }

    std::unique_ptr<governors::Governor> inner_;
    EpisodeProbe& probe_;
    bool learning_;
    bool pretraining_;
    bool measured_ = false;
    std::size_t frames_ = 0;
};

} // namespace

double EpisodeProbe::episode_s() const noexcept {
    return end > start ? seconds_between(start, end) : 0.0;
}

double EpisodeProbe::pretrain_s() const noexcept {
    return pretrain_frames > 0 ? seconds_between(first_frame, serve_start) : 0.0;
}

double EpisodeProbe::serve_s() const noexcept {
    return end > serve_start ? seconds_between(serve_start, end) : 0.0;
}

harness::Scenario instrument(const harness::Scenario& scenario,
                             std::vector<EpisodeProbe>& probes) {
    probes.assign(scenario.arms.size(), EpisodeProbe{});
    const bool pretrains = pretrain_iterations(scenario) > 0;
    harness::Scenario copy = scenario;
    for (std::size_t i = 0; i < copy.arms.size(); ++i) {
        auto& arm = copy.arms[i];
        EpisodeProbe* probe = &probes[i];
        if (arm.make) {
            arm.make = [inner = arm.make, probe, pretrains](std::uint64_t seed)
                -> std::unique_ptr<governors::Governor> {
                return std::make_unique<TimedGovernor>(inner(seed), *probe, pretrains);
            };
        }
        if (arm.make_for) {
            arm.make_for = [inner = arm.make_for, probe, pretrains](
                               const platform::DeviceSpec& spec, std::uint64_t seed)
                -> std::unique_ptr<governors::Governor> {
                return std::make_unique<TimedGovernor>(inner(spec, seed), *probe, pretrains);
            };
        }
    }
    return copy;
}

} // namespace perfbench
