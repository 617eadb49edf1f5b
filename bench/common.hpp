#pragma once
// Thin front-end glue for the paper-reproduction bench binaries.
//
// Every bench binary is argument-free and prints the rows/series of one
// table or figure from the paper. All experiment driving lives in
// lotus::harness: a bench looks its scenarios up in the ScenarioRegistry,
// runs them on the shared ExperimentHarness (episodes execute in parallel;
// LOTUS_BENCH_JOBS overrides the pool size), and renders via the harness
// renderers (harness/sinks.hpp). Optional raw-trace CSV dumps: set LOTUS_BENCH_CSV=1; files land in
// ./bench_out/.

#include <string>
#include <vector>

#include "lotus_repro.hpp"

namespace lotus::bench {

using harness::EpisodeResult;
using harness::Scenario;

/// The registry scenario with this name (throws if unknown).
[[nodiscard]] const Scenario& scenario(const std::string& name);

/// Run one scenario's full arm set on the shared bench harness.
[[nodiscard]] std::vector<EpisodeResult> run(const Scenario& s);
[[nodiscard]] std::vector<EpisodeResult> run(const std::string& name);

/// Dump raw traces to ./bench_out/<stem>_<arm>.csv when LOTUS_BENCH_CSV=1.
void maybe_dump_csv(const std::string& stem, const std::vector<EpisodeResult>& results);

} // namespace lotus::bench
