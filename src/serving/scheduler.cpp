#include "serving/scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace lotus::serving {

namespace {

/// Pop the first request under `order`; nothing when the queue is empty.
ScheduleDecision pop_first(RequestQueue& queue, QueueOrder order) {
    ScheduleDecision d;
    queue.set_order(order);
    if (!queue.empty()) d.next = queue.pop();
    return d;
}

} // namespace

ScheduleDecision FifoScheduler::pick(RequestQueue& queue, double /*now_s*/,
                                     double /*expected_service_s*/) {
    return pop_first(queue, QueueOrder::arrival);
}

ScheduleDecision EdfScheduler::pick(RequestQueue& queue, double /*now_s*/,
                                    double /*expected_service_s*/) {
    return pop_first(queue, QueueOrder::deadline);
}

ScheduleDecision EdfAdmitScheduler::pick(RequestQueue& queue, double now_s,
                                         double expected_service_s) {
    // Shed every request that cannot meet its deadline even if dispatched
    // immediately. With no service estimate yet, only already-expired
    // requests are provably infeasible. In deadline order those requests
    // are exactly the ones above the first feasible one.
    const double horizon = now_s + (expected_service_s > 0.0 ? expected_service_s : 0.0);
    queue.set_order(QueueOrder::deadline);
    auto shed = queue.pop_while([horizon](const Request& r) { return r.deadline_s() < horizon; });
    ScheduleDecision d = pop_first(queue, QueueOrder::deadline);
    d.shed = std::move(shed);
    return d;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
    if (name == "fifo") return std::make_unique<FifoScheduler>();
    if (name == "edf") return std::make_unique<EdfScheduler>();
    if (name == "edf_admit" || name == "edf-admit") {
        return std::make_unique<EdfAdmitScheduler>();
    }
    std::string known;
    for (const auto& n : scheduler_names()) known += known.empty() ? n : "|" + n;
    throw std::invalid_argument("unknown scheduler '" + name + "' (" + known + ")");
}

const std::vector<std::string>& scheduler_names() {
    static const std::vector<std::string> names{"fifo", "edf", "edf_admit"};
    return names;
}

} // namespace lotus::serving
