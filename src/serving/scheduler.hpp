#pragma once
// Scheduling policies for the serving runtime.
//
// A Scheduler decides, each time the device becomes free, which pending
// request executes next -- and, for admission-controlled policies, which
// pending requests to shed because their deadline is already unreachable
// (a shed request counts as an SLO violation, but stops poisoning the queue
// behind it; under saturation that is the difference between bounded and
// unbounded tail latency).
//
// Every policy is deterministic: ties break on (deadline, arrival, id) so a
// run replays identically at any --jobs count. Three built-ins:
//
//  * fifo      -- arrival order; the baseline every queueing text starts at.
//  * edf       -- earliest absolute deadline first; optimal for feasible
//                 workloads, degrades badly past saturation (every request
//                 gets a little service too late).
//  * edf_admit -- EDF plus admission control: shed any request whose
//                 deadline cannot be met even if it started right now
//                 (now + expected service > deadline).
//
// Cost per pick on a queue of n pending requests (see queue.hpp): fifo and
// edf pop the heap top, O(log n); edf_admit pops its k shed requests off the
// deadline-ordered top and sorts them back into push order, O((k + 1) log n
// + k log k). A pick whose order differs from the queue's current one
// re-heapifies once, O(n) -- only when two policies share a queue.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serving/queue.hpp"

namespace lotus::serving {

/// Outcome of one scheduling step.
struct ScheduleDecision {
    /// The request to execute now; absent when the queue is (or became) empty.
    std::optional<Request> next;
    /// Requests dropped by admission control at this step.
    std::vector<Request> shed;
};

class Scheduler {
public:
    virtual ~Scheduler() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Choose the next request at simulated time `now_s`.
    /// `expected_service_s` is the runtime's current service-time estimate
    /// (EWMA of recent execution latencies; 0 before the first completion).
    [[nodiscard]] virtual ScheduleDecision pick(RequestQueue& queue, double now_s,
                                                double expected_service_s) = 0;
};

class FifoScheduler final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "fifo"; }
    [[nodiscard]] ScheduleDecision pick(RequestQueue& queue, double now_s,
                                        double expected_service_s) override;
};

class EdfScheduler final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "edf"; }
    [[nodiscard]] ScheduleDecision pick(RequestQueue& queue, double now_s,
                                        double expected_service_s) override;
};

class EdfAdmitScheduler final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "edf_admit"; }
    [[nodiscard]] ScheduleDecision pick(RequestQueue& queue, double now_s,
                                        double expected_service_s) override;
};

/// Factory over the built-in policies: "fifo" | "edf" | "edf_admit" (also
/// accepts "edf-admit"). Throws std::invalid_argument on anything else.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

/// Canonical policy names, for CLI help and validation messages.
[[nodiscard]] const std::vector<std::string>& scheduler_names();

} // namespace lotus::serving
