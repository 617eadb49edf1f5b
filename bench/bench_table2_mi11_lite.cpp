// Table 2 reproduction: quantitative results on the Mi 11 Lite (1,000
// measured iterations per arm), printed next to the paper's values
// (attached to the registry arms).

#include <cstdio>

#include "common.hpp"

using namespace lotus;

int main() {
    std::printf("Table 2 -- quantitative results on Mi 11 Lite 5G\n");
    std::printf("(%zu measured iterations per arm; learning governors pre-trained for "
                "%zu frames)\n\n",
                harness::mi11_iterations(), harness::mi11_pretrain_iterations());

    for (const char* name : {"table2_frcnn_kitti", "table2_frcnn_visdrone",
                             "table2_mrcnn_kitti", "table2_mrcnn_visdrone"}) {
        const auto& sc = bench::scenario(name);
        const auto results = bench::run(sc);
        harness::print_summary_table(sc.title, results);
        bench::maybe_dump_csv(sc.name, results);
        std::printf("\n");
    }
    std::printf("Shape targets: same per-cell ordering as Table 1, at ~3-4x the Jetson's\n"
                "absolute latencies and inside the phone's skin-limited thermal band.\n");
    return 0;
}
