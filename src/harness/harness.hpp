#pragma once
// ExperimentHarness: parallel episode execution over scenarios.
//
// One episode = one (scenario, arm) pair executed by an ExperimentRunner on
// a fresh device. The harness schedules batches of episodes onto a fixed
// pool of worker threads and guarantees that the results are *identical*
// to a serial run, regardless of the job count or scheduling order:
//
//  * every episode's seed is derived from (harness seed, scenario name, arm
//    index) via util::derive_seed -- a pure function of the episode's
//    identity, never of execution order;
//  * every episode constructs its own device, engine, streams and governor
//    (ExperimentRunner::run is const and reentrant);
//  * results are written into a pre-sized vector slot per episode, so the
//    output order is the declaration order.
//
// This is what turns the one-run-at-a-time paper reproduction into a sweep
// engine: a full table of (scenario x arm) cells saturates every core while
// remaining byte-for-byte reproducible.

#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/trace.hpp"
#include "harness/scenario.hpp"
#include "runtime/trace.hpp"
#include "serving/trace.hpp"
#include "telemetry/recorder.hpp"

namespace lotus::harness {

struct HarnessConfig {
    /// Worker threads; 0 means hardware_concurrency. 1 runs inline (serial).
    std::size_t jobs = 0;
    /// Root experiment seed; all episode seeds derive from it.
    std::uint64_t seed = 42;
    /// Run serving/fleet episodes with summary-only traces (no per-request
    /// ledger rows). Summaries and JSON/summary.csv output are bit-identical
    /// to full-ledger runs; per-request CSV dumps and chart columns are
    /// unavailable, so only enable when no such sink is attached.
    bool summary_only = false;
    /// Record sim-time telemetry per episode (request spans, device
    /// time-series, breach flight recorder). Each episode gets its own
    /// Recorder bound for the episode's duration, so emission is a pure
    /// function of the episode's identity -- byte-identical across --jobs
    /// counts. Off by default: disabled runs carry no recorder at all.
    bool telemetry = false;
    /// Record every serving/fleet episode's request timeline as a compact
    /// binary trace at <trace_dir>/<scenario>/<NN>_<arm>.ltrc (NN = arm
    /// index; names sanitized like every other artifact). Empty disables
    /// capture. Classic experiment episodes have no request timeline and
    /// are skipped.
    std::string trace_dir;
    /// Replay serving/fleet episodes from traces previously recorded under
    /// the same layout (episode paths must exist; a missing or mismatched
    /// trace fails the run). Seeds still derive identically, so governor
    /// behaviour -- and therefore every output -- is byte-identical to the
    /// generating run.
    std::string replay_dir;
};

/// The on-disk location of one episode's recorded trace under `dir` --
/// shared by capture, replay and the CLIs so a directory recorded by one
/// run is a drop-in replay source for another.
[[nodiscard]] std::string episode_trace_path(const std::string& dir,
                                             const std::string& scenario_name,
                                             std::size_t arm_index,
                                             const std::string& arm_name);

/// Outcome of one (scenario, arm) episode.
struct EpisodeResult {
    std::string scenario;
    std::string arm;
    std::uint64_t episode_seed = 0;
    /// The resolved per-episode config (arm overrides applied, seed
    /// substituted).
    runtime::ExperimentConfig config;
    /// Per-iteration trace (classic experiment episodes; empty for serving).
    runtime::Trace trace;
    std::optional<PaperRow> paper;
    /// Serving episodes only: the resolved serving config and the
    /// per-request ledger produced by the ServingEngine.
    std::optional<serving::ServingConfig> serving_config;
    std::optional<serving::ServingTrace> serving_trace;
    /// Fleet episodes only: the resolved fleet config and the per-request
    /// ledger (with device placements) produced by the FleetEngine.
    std::optional<fleet::FleetConfig> fleet_config;
    std::optional<fleet::FleetTrace> fleet_trace;
    /// Sim-time telemetry captured during the episode (HarnessConfig::
    /// telemetry on); null when recording was disabled.
    std::shared_ptr<telemetry::Recorder> telemetry;

    [[nodiscard]] bool is_serving() const noexcept { return serving_trace.has_value(); }
    [[nodiscard]] bool is_fleet() const noexcept { return fleet_trace.has_value(); }
};

class ExperimentHarness {
public:
    explicit ExperimentHarness(HarnessConfig config = {});

    /// Run every arm of one scenario; results in arm order.
    [[nodiscard]] std::vector<EpisodeResult> run(const Scenario& scenario) const;

    /// Run a batch of scenarios concurrently; results in (scenario, arm)
    /// declaration order. Episodes from different scenarios interleave
    /// freely across the pool.
    [[nodiscard]] std::vector<EpisodeResult> run(
        const std::vector<const Scenario*>& batch) const;

    [[nodiscard]] const HarnessConfig& config() const noexcept { return config_; }

private:
    [[nodiscard]] EpisodeResult run_episode(const Scenario& scenario,
                                            std::size_t arm_index) const;

    HarnessConfig config_;
};

} // namespace lotus::harness
