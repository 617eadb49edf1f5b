#pragma once
// Thin front-end glue for the bench binaries.
//
// Every bench binary is argument-free. The paper benches (fig1, fig2,
// fig7a, fig7b) print views the standard renderers do not (lotus_run
// --scenario covers every other figure and table); bench_fleet and
// bench_overhead are gates. All experiment driving lives in
// lotus::harness: a bench looks its scenarios up in the ScenarioRegistry,
// runs them on the shared ExperimentHarness (episodes execute in parallel;
// LOTUS_BENCH_JOBS overrides the pool size), and renders via the harness
// renderers (harness/sinks.hpp). Optional raw-trace CSV dumps: set
// LOTUS_BENCH_CSV=1; files land in ./bench_out/.

#include <string>
#include <vector>

#include "lotus_repro.hpp"

namespace lotus::bench {

using harness::EpisodeResult;
using harness::Scenario;

/// The bench harness configuration: defaults, with LOTUS_BENCH_JOBS as
/// the pool size when set.
[[nodiscard]] harness::HarnessConfig harness_config();

/// The registry scenario with this name (throws if unknown).
[[nodiscard]] const Scenario& scenario(const std::string& name);

/// Run one scenario's full arm set on the shared bench harness.
[[nodiscard]] std::vector<EpisodeResult> run(const Scenario& s);

/// Dump raw traces to ./bench_out/<stem>_<arm>.csv when LOTUS_BENCH_CSV=1.
void maybe_dump_csv(const std::string& stem, const std::vector<EpisodeResult>& results);

} // namespace lotus::bench
