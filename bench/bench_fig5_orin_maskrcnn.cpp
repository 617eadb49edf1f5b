// Fig. 5 reproduction: as Fig. 4 (Jetson Orin Nano, default vs zTT vs
// LOTUS over 3,000 iterations) but with the heavier MaskRCNN detector whose
// per-proposal mask head makes the second stage far more variable.

#include <cstdio>

#include "common.hpp"

using namespace lotus;

int main() {
    std::printf("Fig. 5 -- Jetson Orin Nano + MaskRCNN: default vs zTT vs Lotus\n\n");

    for (const char* name : {"fig5_visdrone", "fig5_kitti"}) {
        const auto& sc = bench::scenario(name);
        const auto results = bench::run(sc);
        harness::print_figure(sc.title, results);
        harness::print_summary_table("summary", results);
        bench::maybe_dump_csv(sc.name, results);
        std::printf("\n");
    }
    std::printf("Expected shape: as Fig. 4, with larger absolute latencies and spreads;\n"
                "Lotus's post-RPN boost matters most here because MaskRCNN's stage-2\n"
                "variance is the largest of the detector zoo.\n");
    return 0;
}
