#pragma once
// Lightweight internal profiler for the episode hot path.
//
// APEX-style instrumentation: RAII scoped timers over named regions plus
// monotonic counters, accumulated per thread (no locks or atomics on the
// hot path) and merged when a report is captured. Timings are kept per
// call-tree node, keyed by (parent node, region name): a region entered
// under two different parents is two nodes, so the report renders as the
// call tree it ran, with self-time (total minus time attributed to child
// nodes), and every child's total is at most its parent's.
//
// The profiler is always compiled in. `prof::set_enabled(bool)` is the one
// gate: it switches the *timers* at runtime (scoped-timer construction reads
// one relaxed atomic and takes no clock samples when disabled). Counters
// always count: they are one thread-local integer add, and the bench gates
// (e.g. "batched RL math issues >= 2x fewer scalar matvecs") need them
// without timer noise.
//
// Threading contract: timers and counters are safe from any thread at any
// time. `capture()` / `report_text()` / `reset()` merge the thread-local
// logs and must only run while worker threads are quiescent (the harness
// joins its pool before returning, so "after harness.run()" is safe; a
// thread's log is folded into the global registry at thread exit).
//
// Usage:
//   void ServingEngine::run(...) {
//       LOTUS_PROF_SCOPE("serving.run");
//       ...
//       LOTUS_PROF_COUNT("serving.requests", 1);
//   }

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lotus::prof {

/// One merged call-tree node of a captured report: a region under one
/// parent. `parent` is the index of the parent node's row, or npos for
/// roots; a region entered under several parents has one row per parent.
struct RegionReport {
    std::string name;
    std::size_t parent = static_cast<std::size_t>(-1);
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    /// Nanoseconds attributed to child nodes (self = total - child).
    std::uint64_t child_ns = 0;

    [[nodiscard]] std::uint64_t self_ns() const noexcept {
        return total_ns > child_ns ? total_ns - child_ns : 0;
    }
};

/// One merged counter row of a captured report.
struct CounterReport {
    std::string name;
    std::uint64_t value = 0;
};

/// Snapshot of all regions and counters, merged across threads.
struct Report {
    std::vector<RegionReport> regions;
    std::vector<CounterReport> counters;
};

/// Index into the global region registry (stable for process lifetime).
using RegionId = std::size_t;
/// Index into the global counter registry.
using CounterId = std::size_t;

/// Intern a region name; idempotent per call site via the macro's static.
[[nodiscard]] RegionId register_region(const char* name);
/// Intern a counter name.
[[nodiscard]] CounterId register_counter(const char* name);
/// Add `delta` to a counter (thread-local; merged at capture()).
void count(CounterId id, std::uint64_t delta) noexcept;

/// Enable / disable the scoped timers at runtime (counters are unaffected).
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// RAII timer for one region. Reads the clock only while enabled().
class ScopedTimer {
public:
    explicit ScopedTimer(RegionId id) noexcept;
    ~ScopedTimer();
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    std::size_t node_ = 0;
    std::uint64_t start_ns_ = 0;
    bool active_;
};

/// Merge every thread's log (live and exited) into one snapshot: nodes at
/// the same path are summed. Nodes are sorted by name, then by their
/// parent's path, and counters by name (parent links remapped), so the
/// snapshot is independent of which thread first executed each call site.
/// Only regions entered with timers on have rows; reset() keeps them.
[[nodiscard]] Report capture();
/// Merged value of one counter by name (0 if never registered).
[[nodiscard]] std::uint64_t counter_total(std::string_view name);
/// Zero all timer and counter state (names stay registered).
void reset();
/// Render capture() as an indented call tree plus a counter table.
[[nodiscard]] std::string report_text();

} // namespace lotus::prof

// Statement macro: declares a block-scoped RAII timer. The per-call-site
// static interns the region name exactly once (thread-safe magic static).
#define LOTUS_PROF_CONCAT_INNER(a, b) a##b
#define LOTUS_PROF_CONCAT(a, b) LOTUS_PROF_CONCAT_INNER(a, b)
#define LOTUS_PROF_SCOPE(name_literal)                                                   \
    static const ::lotus::prof::RegionId LOTUS_PROF_CONCAT(lotus_prof_rid_, __LINE__) =  \
        ::lotus::prof::register_region(name_literal);                                    \
    const ::lotus::prof::ScopedTimer LOTUS_PROF_CONCAT(lotus_prof_timer_, __LINE__)(     \
        LOTUS_PROF_CONCAT(lotus_prof_rid_, __LINE__))
#define LOTUS_PROF_COUNT(name_literal, delta)                                            \
    do {                                                                                 \
        static const ::lotus::prof::CounterId lotus_prof_cid_ =                          \
            ::lotus::prof::register_counter(name_literal);                               \
        ::lotus::prof::count(lotus_prof_cid_, static_cast<std::uint64_t>(delta));        \
    } while (false)
