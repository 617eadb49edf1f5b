#include "workloads.hpp"

#include <stdexcept>

#include "platform/presets.hpp"
#include "workload/presets.hpp"

namespace perfbench {

namespace {

using namespace lotus;

/// 8 phase-staggered Poisson KITTI streams on one Orin Nano under the
/// `performance` governor and EDF, SLO 900 ms, no pretraining: the shape
/// `lotus_serve --streams 8 --rate R --requests N --slo 900 --scheduler edf
/// --governor performance` runs.
harness::Scenario poisson_serving(const std::string& name, double rate_hz,
                                  std::size_t requests) {
    const auto spec = platform::orin_nano_spec();
    const auto kind = detector::DetectorKind::faster_rcnn;
    harness::Scenario s(runtime::static_experiment(spec, kind, "KITTI", 1, 0));
    s.name = name;
    s.title = name;
    s.tags = {"serving"};
    serving::ServingConfig cfg(spec);
    cfg.detector = kind;
    cfg.scheduler = "edf";
    cfg.pretrain_constraint_s = workload::latency_constraint_s(spec.name, kind, "KITTI");
    constexpr std::size_t kStreams = 8;
    for (std::size_t i = 0; i < kStreams; ++i) {
        serving::StreamSpec stream;
        stream.name = "stream" + std::to_string(i);
        stream.dataset = "KITTI";
        stream.slo_s = 0.9;
        stream.requests = requests;
        stream.arrival.kind = serving::ArrivalKind::poisson;
        stream.arrival.rate_hz = rate_hz;
        stream.arrival.phase_s =
            static_cast<double>(i) / (rate_hz * static_cast<double>(kStreams));
        cfg.streams.push_back(std::move(stream));
    }
    s.serving = std::move(cfg);
    s.arms.push_back(harness::performance_arm());
    return s;
}

std::vector<std::size_t> arm_indices(const harness::Scenario& s,
                                     const std::vector<std::string>& names) {
    std::vector<std::size_t> out;
    for (const auto& name : names) {
        std::size_t i = 0;
        while (i < s.arms.size() && s.arms[i].name != name) ++i;
        if (i == s.arms.size()) {
            throw std::invalid_argument("scenario " + s.name + " has no arm " + name);
        }
        out.push_back(i);
    }
    return out;
}

Workload from_registry(const harness::ScenarioRegistry& registry, const std::string& scenario,
                       const std::string& name, const std::vector<std::string>& reference) {
    Workload w{name, registry.at(scenario), {}, false};
    w.scenario.name = name;
    w.reference_arms = arm_indices(w.scenario, reference);
    return w;
}

/// Removes the named arm; the reference arms keep their names.
void drop_arm(Workload& w, const std::string& arm) {
    std::vector<std::string> reference;
    for (auto i : w.reference_arms) reference.push_back(w.scenario.arms[i].name);
    const auto at = arm_indices(w.scenario, {arm}).front();
    w.scenario.arms.erase(w.scenario.arms.begin() + static_cast<std::ptrdiff_t>(at));
    w.reference_arms = arm_indices(w.scenario, reference);
}

} // namespace

Workload make_workload(const std::string& name, const harness::ScenarioRegistry& registry) {
    if (name == "serve_saturation_short") {
        // registry serve_saturation without its zTT arm, with 1,000 of its
        // 2,500 pretraining frames and 40 of its 150 requests per stream.
        // Shorter pretraining leaves Lotus shedding every request on some
        // seeds under edf_admit.
        auto w = from_registry(registry, "serve_saturation", name, {"Lotus"});
        drop_arm(w, "zTT");
        w.scenario.serving->pretrain_iterations = 1000;
        for (auto& stream : w.scenario.serving->streams) stream.requests = 40;
        return w;
    }
    if (name == "table1_frcnn_kitti_short") {
        // registry table1_frcnn_kitti without its zTT arm, with a tenth of
        // its frames.
        auto w = from_registry(registry, "table1_frcnn_kitti", name, {"Lotus"});
        drop_arm(w, "zTT");
        w.scenario.config.pretrain_iterations = 250;
        w.scenario.config.iterations = 300;
        return w;
    }
    if (name == "serve_overload_40k") {
        return Workload{name, poisson_serving(name, 0.3, 5'000), {0}, false};
    }
    if (name == "serve_steady_telemetry") {
        return Workload{name, poisson_serving(name, 0.15, 600), {0}, true};
    }
    throw std::invalid_argument("unknown workload " + name);
}

} // namespace perfbench
