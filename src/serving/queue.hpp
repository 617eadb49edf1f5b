#pragma once
// RequestQueue: the pending-request pool in front of the shared device.
//
// A binary min-heap ordered by the policy key of the scheduler that picks
// from it: (deadline, arrival, id) for the EDF family, (arrival, id) for
// FIFO. Request ids are unique, so the order is strict and the heap top is
// exactly the request a linear scan would pick; push and pop cost O(log n).
// Under overload the queue grows to thousands of requests
// (serve_overload_40k peaks at 4,209), so no pick may scan it.
//
// Every push is stamped with a sequence number, so bulk removals
// (admission-control sheds, failure drains) come back in push order no
// matter where the heap kept them. Depth statistics are tracked here
// because the queue is the one place that sees every transition.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "serving/request.hpp"

namespace lotus::serving {

/// Heap key of a RequestQueue. Ties always break on (arrival, id).
enum class QueueOrder {
    deadline, ///< earliest absolute deadline first (edf, edf_admit)
    arrival,  ///< earliest arrival first (fifo)
};

class RequestQueue {
public:
    void push(Request request);

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

    /// Re-key the heap (O(n), only when `order` differs from the current
    /// one). A new queue is deadline-ordered.
    void set_order(QueueOrder order);

    /// Remove and return the first request under the current order; throws
    /// std::out_of_range when the queue is empty.
    Request pop();

    /// Pop while `pred` holds for the first request; the removed requests
    /// come back in push order.
    template <class Pred>
    std::vector<Request> pop_while(Pred pred) {
        std::vector<Entry> out;
        while (!heap_.empty() && pred(heap_.front().request)) out.push_back(pop_entry());
        return in_push_order(std::move(out));
    }

    /// Remove every pending request, returned in push order.
    std::vector<Request> drain();

    /// Largest depth the queue ever reached (reported per run).
    [[nodiscard]] std::size_t max_depth() const noexcept { return max_depth_; }

private:
    struct Entry {
        Request request;
        std::uint64_t seq = 0;
    };

    /// Heap comparator: true when `a` comes after `b` under the current
    /// order (std's max-heap then keeps the first request at the front).
    [[nodiscard]] bool after(const Entry& a, const Entry& b) const noexcept;
    [[nodiscard]] auto later() const noexcept {
        return [this](const Entry& a, const Entry& b) { return after(a, b); };
    }
    Entry pop_entry();
    static std::vector<Request> in_push_order(std::vector<Entry> entries);

    std::vector<Entry> heap_;
    QueueOrder order_ = QueueOrder::deadline;
    std::uint64_t next_seq_ = 0;
    std::size_t max_depth_ = 0;
};

} // namespace lotus::serving
