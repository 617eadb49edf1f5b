// Fig. 6 reproduction: Mi 11 Lite + FasterRCNN traces over 1,000 iterations
// (default vs zTT vs LOTUS) on VisDrone2019 (a) and KITTI (b). The phone
// operates in a skin-limited 28-43 degC envelope with second-scale frame
// latencies.

#include <cstdio>

#include "common.hpp"

using namespace lotus;

int main() {
    std::printf("Fig. 6 -- Mi 11 Lite + FasterRCNN: default vs zTT vs Lotus\n\n");

    for (const char* name : {"fig6_visdrone", "fig6_kitti"}) {
        const auto& sc = bench::scenario(name);
        const auto results = bench::run(sc);
        harness::print_figure(sc.title, results);
        harness::print_summary_table("summary", results);
        bench::maybe_dump_csv(sc.name, results);
        std::printf("\n");
    }
    std::printf("Expected shape: the same ordering as the Jetson figures inside a much\n"
                "cooler band (~28-43 C) and ~3-4x larger absolute latencies.\n");
    return 0;
}
