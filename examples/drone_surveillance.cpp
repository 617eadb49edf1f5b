// Drone surveillance example: the VisDrone-style scenario from the paper's
// introduction -- a drone running MaskRCNN for environmental monitoring.
//
// A patrol mission is modelled as an altitude/airflow-driven ambient
// profile (Sec. 5.2.2 "a drone operating in open airspace can experience
// very different outside temperatures"): the drone climbs from a warm
// launch site into cold air, loiters, and descends again. LOTUS is trained
// on the ground and then flown; the example reports per-phase latency
// stability against the stock governors. The mission lives in the registry
// as "example_drone_mission"; its phases are the ambient profile's segments
// (fractions of the mission length).
//
// Run: ./build/drone_surveillance

#include <cstdio>
#include <iterator>

#include "lotus_repro.hpp"

using namespace lotus;

namespace {

void report_phase(const char* phase, const runtime::Trace& trace, std::size_t first,
                  std::size_t last) {
    const auto s = trace.summary(first, last);
    std::printf("    %-10s mean %7.1f ms  std %6.1f ms  R_L %5.1f %%  T_dev %5.1f C\n",
                phase, s.mean_latency_s * 1e3, s.std_latency_s * 1e3,
                s.satisfaction_rate * 100.0, s.mean_device_temp);
}

void report(const std::string& name, const runtime::Trace& trace,
            const workload::AmbientProfile& ambient) {
    // Mission phases are the ambient profile's segments: pre-flight / climb /
    // loiter / descend, then the landed tail (not reported separately).
    const auto& phases = ambient.segments();
    const char* const names[] = {"pre-flight", "climb", "loiter", "descend"};
    std::printf("  %s\n", name.c_str());
    for (std::size_t k = 0; k < std::size(names) && k + 1 < phases.size(); ++k) {
        report_phase(names[k], trace, phases[k].first_iteration,
                     phases[k + 1].first_iteration);
    }
    const auto s = trace.summary();
    std::printf("    %-10s mean %7.1f ms  std %6.1f ms  R_L %5.1f %%  energy %.0f J\n\n",
                "mission", s.mean_latency_s * 1e3, s.std_latency_s * 1e3,
                s.satisfaction_rate * 100.0,
                s.mean_power_w * s.mean_latency_s * static_cast<double>(s.frames));
}

} // namespace

int main() {
    const auto& scenario =
        harness::ScenarioRegistry::instance().at("example_drone_mission");
    const auto& cfg = scenario.config;

    std::printf("Drone surveillance mission: MaskRCNN on VisDrone2019-style imagery\n");
    std::printf("device: %s, deadline %.0f ms, %zu mission frames\n",
                cfg.device_spec.name.c_str(),
                cfg.schedule.at(0).latency_constraint_s * 1e3, cfg.iterations);
    std::printf("ambient: %s\n\n", cfg.ambient.description().c_str());

    const harness::ExperimentHarness harness;
    for (const auto& r : harness.run(scenario)) {
        report(r.arm, r.trace, cfg.ambient);
    }
    return 0;
}
