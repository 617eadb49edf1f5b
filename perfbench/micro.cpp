#include "micro.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "lotus/state.hpp"
#include "rl/dqn.hpp"
#include "serving/engine.hpp"
#include "serving/scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace lotus;

volatile double g_sink = 0.0;

template <class Fn>
double median_us_per_call(Fn&& fn, int calls) {
    constexpr int kBlocks = 5;
    std::vector<double> per_call;
    for (int b = 0; b < kBlocks; ++b) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < calls; ++i) fn();
        const auto t1 = std::chrono::steady_clock::now();
        per_call.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count() / calls);
    }
    std::sort(per_call.begin(), per_call.end());
    return per_call[kBlocks / 2];
}

rl::MlpConfig paper_qnet(std::uint64_t seed) {
    rl::MlpConfig cfg;
    cfg.dims = {core::kStateDim, 128, 128, 128, 48};
    cfg.slim_input = true;
    cfg.seed = seed;
    return cfg;
}

std::vector<double> random_state(util::Rng& rng) {
    std::vector<double> x(core::kStateDim);
    for (auto& v : x) v = rng.uniform();
    return x;
}

double train_step_us(std::uint64_t seed) {
    rl::DqnConfig cfg;
    cfg.batch_size = 32;
    rl::DqnCore dqn(paper_qnet(seed), cfg);
    rl::ReplayBuffer buffer(256);
    util::Rng rng(seed);
    for (int i = 0; i < 256; ++i) {
        rl::Transition t;
        t.state = random_state(rng);
        t.action = static_cast<int>(rng.uniform_int(0, 47));
        t.reward = rng.uniform(-1, 2);
        t.next_state = random_state(rng);
        t.width_state = (i % 2 == 0) ? 0.75 : 1.0;
        t.width_next = (i % 2 == 0) ? 1.0 : 0.75;
        buffer.push(std::move(t));
    }
    for (int i = 0; i < 20; ++i) g_sink = dqn.train_step(buffer, rng, 1);
    return median_us_per_call([&] { g_sink = dqn.train_step(buffer, rng, 1); }, 100);
}

double forward_us(std::uint64_t seed, double width) {
    const rl::SlimmableMlp net(paper_qnet(seed));
    util::Rng rng(seed);
    const auto x = random_state(rng);
    std::vector<double> out(net.output_dim());
    rl::MlpScratch scratch;
    return median_us_per_call(
        [&] {
            net.forward(x, width, out, scratch);
            g_sink = out[0];
        },
        2000);
}

double pick_us(const std::vector<serving::Request>& timeline, const std::string& policy,
               std::size_t depth, int calls) {
    auto scheduler = serving::make_scheduler(policy);
    serving::RequestQueue queue;
    std::size_t next = 0;
    double now = 0.0;
    const auto refill = [&] {
        while (queue.size() < depth && next < timeline.size()) {
            now = timeline[next].arrival_s;
            queue.push(timeline[next++]);
        }
    };
    refill();
    return median_us_per_call(
        [&] {
            const auto decision = scheduler->pick(queue, now, 0.45);
            g_sink = decision.next ? decision.next->deadline_s() : 0.0;
            refill();
        },
        calls);
}

} // namespace

MicroResults run_microbenchmarks(std::uint64_t seed) {
    // Requests shaped like the overloaded run's: 8 Poisson KITTI streams at
    // 0.3 Hz with a 900 ms SLO, enough of them that no block runs dry.
    std::vector<serving::StreamSpec> streams;
    for (int i = 0; i < 8; ++i) {
        serving::StreamSpec s;
        s.name = "stream" + std::to_string(i);
        s.slo_s = 0.9;
        s.requests = 4'000;
        s.arrival.kind = serving::ArrivalKind::poisson;
        s.arrival.rate_hz = 0.3;
        s.arrival.phase_s = i / 2.4;
        streams.push_back(std::move(s));
    }
    const auto timeline = serving::build_request_timeline(streams, seed);

    MicroResults r;
    r.train_step_us = train_step_us(seed);
    r.forward_us = forward_us(seed, 1.0);
    r.forward_slim_us = forward_us(seed, 0.75);
    r.pick_us = pick_us(timeline, "edf", 8192, 400);
    r.pick_admit_us = pick_us(timeline, "edf_admit", 10, 400);
    return r;
}

} // namespace perfbench
