// Fig. 7a reproduction: robustness to environmental temperature changes.
// MaskRCNN + VisDrone2019 on the Jetson Orin Nano while the ambient moves
// warm zone (25 C) -> cold zone (0 C) -> warm zone (25 C).

#include <cstdio>

#include "lotus_repro.hpp"

using namespace lotus;

int main() {
    const auto& sc = harness::ScenarioRegistry::instance().at("fig7a_temp_changes");
    const auto iterations = sc.config.iterations;
    // Zone boundaries come from the scenario's ambient profile.
    const auto& zones = sc.config.ambient.segments();
    const auto cold_from = zones.at(1).first_iteration;
    const auto warm_from = zones.at(2).first_iteration;

    std::printf("Fig. 7a -- temperature changes (warm 25C / cold 0C / warm 25C)\n");
    std::printf("MaskRCNN + VisDrone2019 on Jetson Orin Nano, %zu iterations\n\n",
                iterations);

    const auto results = harness::ExperimentHarness().run(sc);
    harness::print_figure("Fig. 7a traces", results);

    // Per-zone summaries: the paper's claim is fast, smooth adaptation at
    // each boundary.
    for (const auto& r : results) {
        const auto warm1 = r.trace.summary(0, cold_from);
        const auto cold = r.trace.summary(cold_from, warm_from);
        const auto warm2 = r.trace.summary(warm_from, iterations);
        std::printf("%-10s warm1: %6.1f ms / R_L %5.1f%% | cold: %6.1f ms / R_L %5.1f%% "
                    "| warm2: %6.1f ms / R_L %5.1f%%  (T_dev %4.1f / %4.1f / %4.1f C)\n",
                    r.arm.c_str(), warm1.mean_latency_s * 1e3,
                    warm1.satisfaction_rate * 100, cold.mean_latency_s * 1e3,
                    cold.satisfaction_rate * 100, warm2.mean_latency_s * 1e3,
                    warm2.satisfaction_rate * 100, warm1.mean_device_temp,
                    cold.mean_device_temp, warm2.mean_device_temp);
    }
    std::printf("\nExpected shape: in the cold zone every method cools and speeds up\n"
                "(more thermal headroom); Lotus exploits it most while staying stable,\n"
                "and re-adapts fastest when the warm zone returns.\n");
    return 0;
}
