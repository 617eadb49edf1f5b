// Table 1 reproduction: quantitative results on the Jetson Orin Nano.
// For each (detector, dataset) cell: mean latency l-bar, latency std
// sigma_l and satisfaction rate R_L for default / zTT / LOTUS, printed next
// to the paper's reported values (attached to the registry arms).

#include <cstdio>

#include "common.hpp"

using namespace lotus;

int main() {
    std::printf("Table 1 -- quantitative results on Jetson Orin Nano\n");
    std::printf("(%zu measured iterations per arm; learning governors pre-trained for "
                "%zu frames)\n\n",
                harness::orin_iterations(), harness::pretrain_iterations());

    for (const char* name : {"table1_frcnn_kitti", "table1_frcnn_visdrone",
                             "table1_mrcnn_kitti", "table1_mrcnn_visdrone"}) {
        const auto& sc = bench::scenario(name);
        const auto results = bench::run(sc);
        harness::print_summary_table(sc.title, results);
        bench::maybe_dump_csv(sc.name, results);
        std::printf("\n");
    }
    std::printf("Shape targets (absolute numbers differ; the substrate is a simulator):\n"
                "  per cell: mean  Lotus < zTT < default,  sigma  Lotus < zTT < default,\n"
                "  R_L  Lotus > zTT > default; Lotus runs at or below default's temps.\n");
    return 0;
}
