#pragma once
// Scenario model for the experiment harness.
//
// A Scenario is one named, self-describing experiment: an ExperimentConfig
// plus a set of governor "arms" to run against it. Every paper figure/table
// cell, every example mission and every stress workload is expressed as a
// Scenario, so the whole evaluation surface is enumerable (see
// ScenarioRegistry) and every front end -- bench binaries, examples,
// lotus_run -- drives experiments through the same ExperimentHarness.
//
// Arms may carry overrides: plain values that replace fields of the
// scenario config in the episode's copy of it. This is how a single
// scenario expresses detector sweeps (Fig. 1), proposal probes (Fig. 2),
// latency-constraint sweeps (stress scenarios) and router shoot-outs
// (fleet scenarios) without bespoke drivers. An override can only select a
// config the scenario config could already express.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "governors/governor.hpp"
#include "lotus/agent.hpp"
#include "platform/device.hpp"
#include "runtime/runner.hpp"
#include "serving/request.hpp"

namespace lotus::harness {

/// Paper reference values for a table cell (printed next to measurements).
struct PaperRow {
    double mean_ms = 0.0;
    double std_ms = 0.0;
    double satisfaction = 0.0; // fraction
};

/// Per-arm replacements for scenario config fields. Each field mirrors the
/// config field of the same name; the harness copies every set field onto
/// the episode's copy of the config. `detector`, `schedule` and
/// `pinned_proposals` belong to runtime::ExperimentConfig (experiment-mode
/// scenarios); `router` and `migrate_on_throttle` to fleet::FleetConfig
/// (fleet scenarios).
struct ArmOverrides {
    std::optional<detector::DetectorKind> detector;
    std::optional<workload::DomainSchedule> schedule;
    std::optional<int> pinned_proposals;
    std::optional<std::string> router;
    std::optional<bool> migrate_on_throttle;
};

/// One experiment arm: a named, seed-parameterised governor factory plus
/// config overrides. The factory receives a seed derived from (harness
/// seed, scenario name, arm index) -- arms must not bake in their own
/// entropy, or parallel runs would stop being reproducible.
struct ArmSpec {
    std::string name;
    std::function<std::unique_ptr<governors::Governor>(std::uint64_t seed)> make;
    /// Device-parameterised factory for fleet episodes: builds a governor
    /// sized for the given device's spec (level counts, thermal
    /// thresholds). Heterogeneous pools run one governor per device, so an
    /// arm built against an Orin must not hand Orin-shaped agents to a
    /// phone. When absent, fleet episodes fall back to `make` (correct for
    /// spec-independent governors like performance/powersave/fixed).
    std::function<std::unique_ptr<governors::Governor>(const platform::DeviceSpec& spec,
                                                       std::uint64_t seed)>
        make_for;
    std::optional<PaperRow> paper;
    ArmOverrides overrides;
};

/// A named, tagged experiment: config + arms. (Constructed from its config
/// because ExperimentConfig carries a DeviceSpec and has no empty state.)
struct Scenario {
    explicit Scenario(runtime::ExperimentConfig cfg) : config(std::move(cfg)) {}

    std::string name;        // registry key, e.g. "fig4_kitti"
    std::string title;       // human-readable heading
    std::string description; // one paragraph for --list-scenarios / docs
    std::vector<std::string> tags; // e.g. {"paper", "figure"} or {"stress"}
    runtime::ExperimentConfig config;
    /// When set, episodes run on the serving::ServingEngine (multi-stream
    /// request serving) instead of the runtime::ExperimentRunner; `config`
    /// still names the device/detector for arm factories and sinks.
    std::optional<serving::ServingConfig> serving;
    /// When set, episodes run on the fleet::FleetEngine (request routing
    /// across a device pool, one governor instance per device); takes
    /// precedence over `serving`.
    std::optional<fleet::FleetConfig> fleet;
    std::vector<ArmSpec> arms;

    [[nodiscard]] bool has_tag(const std::string& tag) const;
    [[nodiscard]] bool is_serving() const noexcept { return serving.has_value(); }
    [[nodiscard]] bool is_fleet() const noexcept { return fleet.has_value(); }
};

// --- standard arm factories --------------------------------------------------
// Shared by the registry, the bench binaries, the examples and lotus_run.

/// The board's stock kernel governors (schedutil + simple_ondemand presets).
[[nodiscard]] ArmSpec default_arm(const platform::DeviceSpec& spec);

/// zTT baseline (frame-start-only DRL governor).
[[nodiscard]] ArmSpec ztt_arm(const platform::DeviceSpec& spec);

/// Full LOTUS agent.
[[nodiscard]] ArmSpec lotus_arm(const platform::DeviceSpec& spec);

/// LOTUS agent with a customised configuration (ablations). The config's
/// seed field is overwritten with the derived episode seed at run time.
[[nodiscard]] ArmSpec lotus_arm_with(const platform::DeviceSpec& spec,
                                     const std::string& label, core::LotusConfig cfg);

/// Frequency ladder pinned at (cpu_level, gpu_level).
[[nodiscard]] ArmSpec fixed_arm(std::size_t cpu_level, std::size_t gpu_level);

/// Linux `performance` governor (both domains pinned to the top level).
[[nodiscard]] ArmSpec performance_arm();

/// Linux `powersave` governor (both domains pinned to the bottom level).
[[nodiscard]] ArmSpec powersave_arm();

/// Retarget any governor arm at one fleet routing policy: the arm name
/// becomes "<base>+<router>[+migrate]" and its overrides set the router and
/// the migration switch (router shoot-outs express each policy as an arm).
[[nodiscard]] ArmSpec fleet_arm(ArmSpec base, const std::string& router,
                                bool migrate = false);

} // namespace lotus::harness
