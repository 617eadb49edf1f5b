#pragma once
// ScenarioRegistry: the enumerable catalog of every experiment this
// repository can run.
//
// One entry per paper figure/table cell (Figs. 1-7, Tables 1-2, the design
// ablation), per example mission, and per stress workload (cold start,
// heatwave ambient ramps, domain-shift storms, latency-constraint sweeps).
// Front ends look scenarios up by name (`lotus_run --scenario fig4_kitti`),
// by prefix, or by tag, and hand them to the ExperimentHarness -- nobody
// hand-rolls experiment loops.
//
// Iteration budgets honour LOTUS_BENCH_FAST=1 (shrunk smoke-run sizes), so
// the registry is rebuilt per process, not a compile-time constant.

#include <cstddef>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace lotus::harness {

/// True when LOTUS_BENCH_FAST=1 shrinks iteration budgets for smoke runs.
[[nodiscard]] bool fast_mode();

/// Measured iterations for figure/table scenarios on each device (paper:
/// 3,000 on the Orin Nano, 1,000 on the Mi 11 Lite).
[[nodiscard]] std::size_t orin_iterations();
[[nodiscard]] std::size_t mi11_iterations();

/// Pre-training budgets for the learning governors (the paper trains for
/// 10,000 iterations; the phone gets a larger budget because its 1,000
/// measured frames leave less room for online convergence).
[[nodiscard]] std::size_t pretrain_iterations();
[[nodiscard]] std::size_t mi11_pretrain_iterations();

/// Requests each single-device serving stream emits, registry and ad-hoc
/// CLI runs alike.
[[nodiscard]] std::size_t serve_requests();

class ScenarioRegistry {
public:
    /// Builds the full built-in catalog.
    ScenarioRegistry();

    /// Shared per-process instance (rebuild with `ScenarioRegistry()` if the
    /// environment changed).
    [[nodiscard]] static const ScenarioRegistry& instance();

    [[nodiscard]] const std::vector<Scenario>& all() const noexcept { return scenarios_; }

    /// nullptr when absent.
    [[nodiscard]] const Scenario* find(const std::string& name) const;

    /// Throws std::out_of_range with the known-name list when absent.
    [[nodiscard]] const Scenario& at(const std::string& name) const;

    [[nodiscard]] std::vector<const Scenario*> with_tag(const std::string& tag) const;

private:
    std::vector<Scenario> scenarios_;
};

} // namespace lotus::harness
