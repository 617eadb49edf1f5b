#pragma once
// Per-experiment constants: latency constraints and the static mAP metadata
// reproduced from the paper's Fig. 1.
//
// The paper applies "different latency constraints ... for different
// datasets and models due to their varied computation demands" (Sec. 5.1.2)
// but does not print the values; these are chosen so the *default*
// governor's satisfaction rate lands near the paper's reported R_L column
// (the table scenarios print the measured values beside the paper's, see
// README "Scenario catalog"; the open Table 2 gap is ROADMAP.md item 9).

#include <string>

#include "detector/model.hpp"

namespace lotus::workload {

/// Latency constraint L [s] for a (device, detector, dataset) cell.
/// Device names are the DeviceSpec names ("jetson-orin-nano", "mi-11-lite").
[[nodiscard]] double latency_constraint_s(const std::string& device_name,
                                          detector::DetectorKind detector,
                                          const std::string& dataset_name);

/// mAP@0.5 metadata for Fig. 1 -- constants reproduced from the paper (the
/// detectors are simulated, so there is no mAP to measure).
[[nodiscard]] double map50(detector::DetectorKind detector, const std::string& dataset_name);

} // namespace lotus::workload
