#pragma once
// The benchmark's workloads: the scenario each one runs, the arms its
// simulated end-to-end metrics are computed over, and whether it records
// sim-time telemetry. Every workload is sized so one serial pass takes
// about a second of host CPU: a run holds many passes, each timed next to
// the calibration kernel (calibrate.hpp).

#include <cstddef>
#include <string>
#include <vector>

#include "harness/registry.hpp"
#include "harness/scenario.hpp"

namespace perfbench {

struct Workload {
    std::string name;
    lotus::harness::Scenario scenario;
    /// Arm indices whose episodes the simulated metrics pool over.
    std::vector<std::size_t> reference_arms;
    /// Record sim-time telemetry and write its artifacts with the output.
    bool telemetry = false;
};

/// Builds the named workload. Registry workloads copy their scenario from
/// `registry` and shorten it; the ad-hoc serving workloads are built here.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     const lotus::harness::ScenarioRegistry& registry);

} // namespace perfbench
