#pragma once
// Microbenchmarks: one public library function each, on inputs shaped like
// the workloads feed it. Every figure is the median over five timed blocks
// of the mean microseconds per call within a block.

#include <cstdint>

namespace perfbench {

struct MicroResults {
    /// rl::DqnCore::train_step: paper Q-net 7 -> 128x3 -> 48, batch 32,
    /// 256-transition buffer of alternating widths.
    double train_step_us = 0.0;
    /// rl::SlimmableMlp::forward at width 1.0 and at 0.75.
    double forward_us = 0.0;
    double forward_slim_us = 0.0;
    /// Scheduler::pick (plus the refill push) on a RequestQueue held at a
    /// fixed depth: "edf" at 8192 pending (about the overloaded run's mean
    /// depth) and "edf_admit" at 10 (the saturation run's depth).
    double pick_us = 0.0;
    double pick_admit_us = 0.0;
};

[[nodiscard]] MicroResults run_microbenchmarks(std::uint64_t seed);

} // namespace perfbench
