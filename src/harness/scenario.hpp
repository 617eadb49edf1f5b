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
//
// An arm's governor is a value too: a GovernorSpec (stock kernel preset,
// ondemand, conservative, zTT, LOTUS with its config, fixed levels,
// performance, powersave, random) that build() turns into a governor for
// the device it will drive. Specs compare with ==: arms of two scenarios
// that run the same governor hold equal specs.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
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

/// Which governor an arm runs, as a plain value: one alternative per entry
/// of the registry's and the CLIs' vocabulary. build() resolves the
/// device-dependent details against the device the governor will drive.
/// Custom, the default, marks an arm that sets its own make_for: it runs a
/// governor outside the vocabulary, so it never equals a vocabulary arm and
/// build() refuses it.
struct Custom {
    std::string name;
    bool operator==(const Custom&) const = default;
};
struct StockGovernors { bool operator==(const StockGovernors&) const = default; };
struct Ondemand { bool operator==(const Ondemand&) const = default; };
struct Conservative { bool operator==(const Conservative&) const = default; };
struct Ztt { bool operator==(const Ztt&) const = default; };
struct Lotus {
    core::LotusConfig config;
    bool operator==(const Lotus&) const = default;
};
struct Fixed {
    std::size_t cpu = 0;
    std::size_t gpu = 0;
    bool operator==(const Fixed&) const = default;
};
struct Performance { bool operator==(const Performance&) const = default; };
struct Powersave { bool operator==(const Powersave&) const = default; };
struct Random { bool operator==(const Random&) const = default; };

using GovernorSpec = std::variant<Custom, StockGovernors, Ondemand, Conservative, Ztt, Lotus,
                                  Fixed, Performance, Powersave, Random>;

/// The governor `g` describes, built for `dev` with `seed` (which replaces
/// any seed stored in `g`). Every device-dependent rule lives here: the
/// stock preset by device name, zTT's T_thres, LOTUS's fallback to the
/// device's threshold when the stored one is at/above its throttle bound
/// (heterogeneous pools rely on it), and the ladder check that makes Fixed
/// throw std::invalid_argument. Custom throws std::invalid_argument too.
[[nodiscard]] std::unique_ptr<governors::Governor> build(const GovernorSpec& g,
                                                         const platform::DeviceSpec& dev,
                                                         std::uint64_t seed);

/// One experiment arm: a named governor value plus config overrides. The
/// harness builds each episode's governor with `make_for`, for the device it
/// drives and a seed derived from (harness seed, scenario name, arm index);
/// arms must not bake in their own entropy, or parallel runs would stop
/// being reproducible.
struct ArmSpec {
    std::string name;
    GovernorSpec governor;
    /// build(governor, ...) for arms made by governor_arm(); an arm that
    /// runs a governor outside the vocabulary sets its own factory and
    /// leaves `governor` Custom.
    std::function<std::unique_ptr<governors::Governor>(const platform::DeviceSpec& spec,
                                                       std::uint64_t seed)>
        make_for;
    /// Unused by the harness; only perfbench's adapters still name it.
    std::function<std::unique_ptr<governors::Governor>(std::uint64_t seed)> make;
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
// Shared by the registry, the bench binaries, the examples and the CLIs.

/// An arm running `g`, named `name` (empty: the vocabulary name, e.g.
/// "default", "zTT", "Lotus", "fixed(5,3)"). Its make_for is build(g, ...).
[[nodiscard]] ArmSpec governor_arm(GovernorSpec g, std::string name = {});

/// The LOTUS config sized to `spec`: T_thres = reward_threshold_celsius(spec).
[[nodiscard]] core::LotusConfig lotus_config(const platform::DeviceSpec& spec);

/// The board's stock kernel governors (schedutil + simple_ondemand presets).
[[nodiscard]] inline ArmSpec default_arm() { return governor_arm(StockGovernors{}); }
/// zTT baseline (frame-start-only DRL governor).
[[nodiscard]] inline ArmSpec ztt_arm() { return governor_arm(Ztt{}); }
/// Full LOTUS agent sized to `spec`.
[[nodiscard]] inline ArmSpec lotus_arm(const platform::DeviceSpec& spec) {
    return governor_arm(Lotus{lotus_config(spec)});
}
/// Frequency ladder pinned at (cpu, gpu).
[[nodiscard]] inline ArmSpec fixed_arm(std::size_t cpu, std::size_t gpu) {
    return governor_arm(Fixed{cpu, gpu});
}
/// Linux `performance` governor (both domains pinned to the top level).
[[nodiscard]] inline ArmSpec performance_arm() { return governor_arm(Performance{}); }

/// Retarget any governor arm at one fleet routing policy: the arm name
/// becomes "<base>+<router>[+migrate]" and its overrides set the router and
/// the migration switch (router shoot-outs express each policy as an arm).
[[nodiscard]] ArmSpec fleet_arm(ArmSpec base, const std::string& router,
                                bool migrate = false);

} // namespace lotus::harness
