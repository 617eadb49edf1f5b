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

/// One node of a call tree: a region entered under one parent node. The
/// same region under two parents is two nodes.
struct Node {
    RegionId region = 0;
    std::size_t parent = kNoParent;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
};

/// A call tree keyed by (parent node, region). Node 0 is the root, under
/// which top-level regions hang; nodes are appended when first entered, so
/// a parent always precedes its children.
class Tree {
public:
    static constexpr std::size_t kRoot = 0;

    Tree() : nodes_(1), first_child_(1, kNoParent), next_sibling_(1, kNoParent) {}

    [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
    Node& operator[](std::size_t i) noexcept { return nodes_[i]; }

    /// Index of the node for `region` under `parent`, created on first use.
    std::size_t child(std::size_t parent, RegionId region) {
        for (std::size_t n = first_child_[parent]; n != kNoParent; n = next_sibling_[n]) {
            if (nodes_[n].region == region) return n;
        }
        Node node;
        node.region = region;
        node.parent = parent;
        nodes_.push_back(node);
        next_sibling_.push_back(first_child_[parent]);
        first_child_.push_back(kNoParent);
        first_child_[parent] = nodes_.size() - 1;
        return nodes_.size() - 1;
    }

    /// Add every node of `src` to the node at the same path here.
    void fold(const Tree& src) {
        std::vector<std::size_t> here(src.nodes_.size(), kRoot);
        for (std::size_t i = kRoot + 1; i < src.nodes_.size(); ++i) {
            const Node& s = src.nodes_[i];
            here[i] = child(here[s.parent], s.region);
            Node& d = nodes_[here[i]];
            d.calls += s.calls;
            d.total_ns += s.total_ns;
            d.child_ns += s.child_ns;
        }
    }

    /// Zero every count; the nodes (and so the names) stay.
    void zero() noexcept {
        for (auto& n : nodes_) n.calls = n.total_ns = n.child_ns = 0;
    }

private:
    std::vector<Node> nodes_;
    // Sibling lists: the first child and the next sibling of each node.
    std::vector<std::size_t> first_child_;
    std::vector<std::size_t> next_sibling_;
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
    Tree retired_tree_;
    std::vector<std::uint64_t> retired_counters_;

    static void fold_counters(std::vector<std::uint64_t>& dst,
                              const std::vector<std::uint64_t>& src) {
        if (dst.size() < src.size()) dst.resize(src.size());
        for (std::size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
    }
};

/// One thread's accumulation log; folds itself into the registry on exit.
struct ThreadLog {
    Tree tree;
    std::vector<std::uint64_t> counters;
    /// Tree nodes of the open timers, innermost last.
    std::vector<std::size_t> stack;

    ThreadLog() { Registry::instance().attach(this); }
    ~ThreadLog() { Registry::instance().detach_and_fold(this); }

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
    retired_tree_.fold(log->tree);
    fold_counters(retired_counters_, log->counters);
}

Report Registry::capture() {
    const std::lock_guard<std::mutex> lock(mu_);
    Tree tree = retired_tree_;
    std::vector<std::uint64_t> counters = retired_counters_;
    for (const auto* log : live_) {
        tree.fold(log->tree);
        fold_counters(counters, log->counters);
    }

    // Emission boundary: node order is first-execution order, which under a
    // parallel harness depends on which worker reaches a call site first.
    // Reports must be a pure function of the run, so sort the nodes by name,
    // then by their parent's path, and remap the parent links.
    const auto& nodes = tree.nodes();
    std::vector<std::string> paths(nodes.size());
    std::vector<std::size_t> order;
    order.reserve(nodes.size() - 1);
    for (std::size_t i = Tree::kRoot + 1; i < nodes.size(); ++i) {
        paths[i] = paths[nodes[i].parent] + '/' + region_names_[nodes[i].region];
        order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const auto& na = region_names_[nodes[a].region];
        const auto& nb = region_names_[nodes[b].region];
        return na != nb ? na < nb : paths[a] < paths[b];
    });
    std::vector<std::size_t> row(nodes.size(), kNoParent); // the root has no row
    for (std::size_t i = 0; i < order.size(); ++i) row[order[i]] = i;

    Report report;
    report.regions.reserve(order.size());
    for (const auto idx : order) {
        const Node& n = nodes[idx];
        report.regions.push_back(RegionReport{
            .name = region_names_[n.region],
            .parent = row[n.parent],
            .calls = n.calls,
            .total_ns = n.total_ns,
            .child_ns = n.child_ns,
        });
    }
    report.counters.resize(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
        report.counters[i].name = counter_names_[i];
        report.counters[i].value = i < counters.size() ? counters[i] : 0;
    }
    std::sort(report.counters.begin(), report.counters.end(),
              [](const CounterReport& a, const CounterReport& b) { return a.name < b.name; });
    return report;
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    retired_tree_.zero();
    retired_counters_.assign(retired_counters_.size(), 0);
    for (auto* log : live_) {
        log->tree.zero();
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

ScopedTimer::ScopedTimer(RegionId id) noexcept : active_(enabled()) {
    if (!active_) return;
    auto& log = tls();
    node_ = log.tree.child(log.stack.empty() ? Tree::kRoot : log.stack.back(), id);
    log.stack.push_back(node_);
    start_ns_ = now_ns();
}

ScopedTimer::~ScopedTimer() {
    if (!active_) return;
    const std::uint64_t elapsed = now_ns() - start_ns_;
    auto& log = tls();
    log.stack.pop_back();
    auto& n = log.tree[node_];
    n.calls += 1;
    n.total_ns += elapsed;
    if (!log.stack.empty()) log.tree[log.stack.back()].child_ns += elapsed;
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
        // Children grouped under their parent node, siblings in name order
        // (capture() sorts the merged report so rendering is deterministic
        // across thread interleavings); indentation encodes depth.
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
