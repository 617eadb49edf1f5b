// Ablation bench: the design choices LOTUS argues for (Secs. 4.2-4.3.5),
// each removed in isolation on the hardest static cell (Orin Nano +
// FasterRCNN + VisDrone2019):
//
//   * full LOTUS            -- two decisions, one slimmable net, eps_t decay
//   * frame-start only      -- zTT's decision timing (cannot see proposals)
//   * post-RPN only         -- never accelerates stage 1 (the mean driver)
//   * two separate networks -- severs the correlation between the two
//                              decisions of a frame (Sec. 4.3.4's argument
//                              for the slimmable single net)
//   * zTT-style cool-down   -- random-lower forever when hot; the agent
//                              never learns hot-state behaviour (Sec. 4.3.5)
//
// The arm set lives in the registry's "ablation_design" scenario; the six
// episodes run concurrently on the harness pool.

#include <cstdio>

#include "common.hpp"

using namespace lotus;

int main() {
    const auto& sc = bench::scenario("ablation_design");
    std::printf("Ablation -- LOTUS design choices on Orin Nano + FasterRCNN + "
                "VisDrone2019 (%zu iterations)\n\n",
                sc.config.iterations);

    const auto results = bench::run(sc);
    harness::print_summary_table("ablation arms", results);
    bench::maybe_dump_csv(sc.name, results);

    std::printf("\nExpected shape: the full design attains the lowest sigma_l at\n"
                "comparable or better mean latency; frame-start-only loses variance\n"
                "control (no proposal signal); post-rpn-only loses mean latency (stage 1\n"
                "dominates); two-networks and ztt-cooldown converge worse or run hotter.\n");
    return 0;
}
