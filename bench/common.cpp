#include "common.hpp"

#include <cstdlib>

namespace lotus::bench {

namespace {

bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

const harness::ExperimentHarness& shared_harness() {
    static const harness::ExperimentHarness h(harness_config());
    return h;
}

} // namespace

harness::HarnessConfig harness_config() {
    harness::HarnessConfig cfg;
    if (const char* jobs = std::getenv("LOTUS_BENCH_JOBS")) {
        const auto v = std::strtoull(jobs, nullptr, 10);
        if (v > 0) cfg.jobs = static_cast<std::size_t>(v);
    }
    return cfg;
}

const Scenario& scenario(const std::string& name) {
    return harness::ScenarioRegistry::instance().at(name);
}

std::vector<EpisodeResult> run(const Scenario& s) { return shared_harness().run(s); }

void maybe_dump_csv(const std::string& stem, const std::vector<EpisodeResult>& results) {
    if (!env_flag("LOTUS_BENCH_CSV")) return;
    harness::write_csv_traces("bench_out", stem, results);
}

} // namespace lotus::bench
