// Profiler internals: thread-local accumulation logs, a process-global
// registry that interns names and folds the logs of exited threads, and the
// report renderer.

#include "prof/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "util/ascii.hpp"
#include "util/csv.hpp"

namespace lotus::prof {
namespace {

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

[[nodiscard]] std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::atomic<bool> g_enabled{false};

/// Per-thread accumulation for one region. `parent_plus1` is the region id
/// under which this region was first entered on this thread, plus one
/// (0 = unknown / root).
struct LocalRegion {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    std::size_t parent_plus1 = 0;
};

struct ThreadLog;

/// Global registry: interns names, tracks live thread logs, keeps the
/// folded stats of threads that have exited.
class Registry {
public:
    static Registry& instance() {
        static Registry r;
        return r;
    }

    std::size_t intern(std::vector<std::string>& names, const char* name) {
        const std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name) return i;
        }
        names.push_back(name);
        return names.size() - 1;
    }

    std::vector<std::string> region_names_;
    std::vector<std::string> counter_names_;

    void attach(ThreadLog* log) {
        const std::lock_guard<std::mutex> lock(mu_);
        live_.push_back(log);
    }
    void detach_and_fold(ThreadLog* log);

    Report capture();
    void reset();

private:
    std::mutex mu_;
    std::vector<ThreadLog*> live_;
    std::vector<LocalRegion> retired_regions_;
    std::vector<std::uint64_t> retired_counters_;

    void fold_locked(const std::vector<LocalRegion>& regions,
                     const std::vector<std::uint64_t>& counters) {
        if (retired_regions_.size() < regions.size()) retired_regions_.resize(regions.size());
        for (std::size_t i = 0; i < regions.size(); ++i) {
            auto& dst = retired_regions_[i];
            dst.calls += regions[i].calls;
            dst.total_ns += regions[i].total_ns;
            dst.child_ns += regions[i].child_ns;
            if (dst.parent_plus1 == 0) dst.parent_plus1 = regions[i].parent_plus1;
        }
        if (retired_counters_.size() < counters.size()) retired_counters_.resize(counters.size());
        for (std::size_t i = 0; i < counters.size(); ++i) retired_counters_[i] += counters[i];
    }
};

/// One thread's accumulation log; folds itself into the registry on exit.
struct ThreadLog {
    std::vector<LocalRegion> regions;
    std::vector<std::uint64_t> counters;
    std::vector<RegionId> stack;

    ThreadLog() { Registry::instance().attach(this); }
    ~ThreadLog() { Registry::instance().detach_and_fold(this); }

    LocalRegion& region(RegionId id) {
        if (regions.size() <= id) regions.resize(id + 1);
        return regions[id];
    }
    std::uint64_t& counter(CounterId id) {
        if (counters.size() <= id) counters.resize(id + 1, 0);
        return counters[id];
    }
};

ThreadLog& tls() {
    thread_local ThreadLog log;
    return log;
}

void Registry::detach_and_fold(ThreadLog* log) {
    const std::lock_guard<std::mutex> lock(mu_);
    live_.erase(std::remove(live_.begin(), live_.end(), log), live_.end());
    fold_locked(log->regions, log->counters);
}

Report Registry::capture() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<LocalRegion> regions = retired_regions_;
    std::vector<std::uint64_t> counters = retired_counters_;
    const auto fold_into = [](auto& dst, const auto& src, auto&& merge) {
        if (dst.size() < src.size()) dst.resize(src.size());
        for (std::size_t i = 0; i < src.size(); ++i) merge(dst[i], src[i]);
    };
    for (const auto* log : live_) {
        fold_into(regions, log->regions, [](LocalRegion& d, const LocalRegion& s) {
            d.calls += s.calls;
            d.total_ns += s.total_ns;
            d.child_ns += s.child_ns;
            if (d.parent_plus1 == 0) d.parent_plus1 = s.parent_plus1;
        });
        fold_into(counters, log->counters,
                  [](std::uint64_t& d, std::uint64_t s) { d += s; });
    }

    Report report;
    report.regions.resize(region_names_.size());
    for (std::size_t i = 0; i < region_names_.size(); ++i) {
        auto& r = report.regions[i];
        r.name = region_names_[i];
        if (i < regions.size()) {
            r.calls = regions[i].calls;
            r.total_ns = regions[i].total_ns;
            r.child_ns = regions[i].child_ns;
            r.parent = regions[i].parent_plus1 == 0 ? kNoParent : regions[i].parent_plus1 - 1;
        } else {
            r.parent = kNoParent;
        }
    }
    report.counters.resize(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        report.counters[i].name = counter_names_[i];
        report.counters[i].value = i < counters.size() ? counters[i] : 0;
    }

    // Emission boundary: interning order is first-execution order, which
    // under a parallel harness depends on which worker reaches a call site
    // first. Reports must be a pure function of the run, so sort regions and
    // counters by name and remap the parent links through the permutation.
    std::vector<std::size_t> order(report.regions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return report.regions[a].name < report.regions[b].name;
    });
    std::vector<std::size_t> inverse(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) inverse[order[i]] = i;
    std::vector<RegionReport> sorted_regions;
    sorted_regions.reserve(order.size());
    for (const auto idx : order) {
        auto& r = report.regions[idx];
        if (r.parent != kNoParent && r.parent < inverse.size()) {
            r.parent = inverse[r.parent];
        }
        sorted_regions.push_back(std::move(r));
    }
    report.regions = std::move(sorted_regions);
    std::sort(report.counters.begin(), report.counters.end(),
              [](const CounterReport& a, const CounterReport& b) { return a.name < b.name; });
    return report;
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    retired_regions_.assign(retired_regions_.size(), LocalRegion{});
    retired_counters_.assign(retired_counters_.size(), 0);
    for (auto* log : live_) {
        log->regions.assign(log->regions.size(), LocalRegion{});
        log->counters.assign(log->counters.size(), 0);
    }
}

[[nodiscard]] std::string format_ms(std::uint64_t ns) {
    return util::format_double(static_cast<double>(ns) / 1e6, 3);
}

} // namespace

RegionId register_region(const char* name) {
    auto& reg = Registry::instance();
    return reg.intern(reg.region_names_, name);
}

CounterId register_counter(const char* name) {
    auto& reg = Registry::instance();
    return reg.intern(reg.counter_names_, name);
}

void count(CounterId id, std::uint64_t delta) noexcept { tls().counter(id) += delta; }

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

ScopedTimer::ScopedTimer(RegionId id) noexcept : id_(id), active_(enabled()) {
    if (!active_) return;
    auto& log = tls();
    auto& r = log.region(id_);
    if (r.parent_plus1 == 0 && !log.stack.empty()) r.parent_plus1 = log.stack.back() + 1;
    log.stack.push_back(id_);
    start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
    if (!active_) return;
    const std::uint64_t elapsed = now_ns() - start_ns_;
    auto& log = tls();
    log.stack.pop_back();
    auto& r = log.region(id_);
    r.calls += 1;
    r.total_ns += elapsed;
    if (!log.stack.empty()) log.region(log.stack.back()).child_ns += elapsed;
}

Report capture() { return Registry::instance().capture(); }

std::uint64_t counter_total(std::string_view name) {
    const auto report = capture();
    for (const auto& c : report.counters) {
        if (c.name == name) return c.value;
    }
    return 0;
}

void reset() { Registry::instance().reset(); }

std::string report_text() {
    const auto report = capture();
    bool any_timed = false;
    for (const auto& r : report.regions) any_timed |= r.calls > 0;
    bool any_counted = false;
    for (const auto& c : report.counters) any_counted |= c.value > 0;
    if (!any_timed && !any_counted) {
        return "no profile samples recorded (enable timers with --profile / "
               "prof::set_enabled(true))\n";
    }

    std::string out;
    if (any_timed) {
        // Children grouped under their first-seen parent, siblings in name
        // order (capture() sorts the merged report so rendering is
        // deterministic across thread interleavings); indentation encodes
        // depth.
        std::vector<std::vector<std::size_t>> children(report.regions.size());
        std::vector<std::size_t> roots;
        for (std::size_t i = 0; i < report.regions.size(); ++i) {
            if (report.regions[i].calls == 0) continue;
            const auto parent = report.regions[i].parent;
            if (parent == kNoParent || parent >= report.regions.size()) {
                roots.push_back(i);
            } else {
                children[parent].push_back(i);
            }
        }
        util::TextTable table({"region", "calls", "total ms", "self ms", "us/call"});
        const auto add = [&](const auto& self, std::size_t i, std::size_t depth) -> void {
            const auto& r = report.regions[i];
            const double us_per_call =
                r.calls > 0 ? static_cast<double>(r.total_ns) / 1e3 /
                                  static_cast<double>(r.calls)
                            : 0.0;
            table.add_row({std::string(2 * depth, ' ') + r.name, std::to_string(r.calls),
                           format_ms(r.total_ns), format_ms(r.self_ns()),
                           util::format_double(us_per_call, 2)});
            for (const auto child : children[i]) self(self, child, depth + 1);
        };
        for (const auto root : roots) add(add, root, 0);
        out += table.render("profile: regions");
    }
    if (any_counted) {
        util::TextTable table({"counter", "value"});
        for (const auto& c : report.counters) {
            if (c.value > 0) table.add_row({c.name, std::to_string(c.value)});
        }
        out += table.render("profile: counters");
    }
    return out;
}

} // namespace lotus::prof
