#pragma once
// Fixed reference computations that do not depend on the library, timed on
// the same thread as the workload. Their CPU time says how fast the core the
// thread runs on is at that moment, so the benchmark can tell a slower
// program from a busier host: on a shared host the speed of one vCPU swings
// by 20-30% within seconds, independently of the other vCPUs.

namespace perfbench {

/// CPU seconds of one fixed reference computation: dense matrix-vector
/// products, a sort and an ordered-map churn, the instruction mix of the
/// simulator's hot paths. The first call of a process runs cold (page
/// faults, allocator growth); time the calls after it.
[[nodiscard]] double calibration_s();

/// The scale of rescaled times: a time rescaled to the reference speed is
/// cpu_s * kReferenceCalibrationS / calibration_s() measured next to it,
/// about what calibration_s() returns on a quiet core of a 4-vCPU Intel
/// Xeon (Sapphire Rapids) VM.
inline constexpr double kReferenceCalibrationS = 5.0e-3;

} // namespace perfbench
