// Fig. 4 reproduction: device temperature and inference latency over 3,000
// iterations on the Jetson Orin Nano running FasterRCNN, comparing the
// default governors, zTT and LOTUS on (a) VisDrone2019 and (b) KITTI.

#include <cstdio>

#include "common.hpp"

using namespace lotus;

int main() {
    std::printf("Fig. 4 -- Jetson Orin Nano + FasterRCNN: default vs zTT vs Lotus\n\n");

    for (const char* name : {"fig4_visdrone", "fig4_kitti"}) {
        const auto& sc = bench::scenario(name);
        const auto results = bench::run(sc);
        harness::print_figure(sc.title, results);
        harness::print_summary_table("summary", results);
        bench::maybe_dump_csv(sc.name, results);
        std::printf("\n");
    }
    std::printf("Expected shape: default ramps hot and oscillates against the throttling\n"
                "bound with wide latency swings; zTT and Lotus stay below it, with Lotus\n"
                "holding the lowest, most stable latency band.\n");
    return 0;
}
