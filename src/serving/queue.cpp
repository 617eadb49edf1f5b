#include "serving/queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lotus::serving {

bool RequestQueue::after(const Entry& a, const Entry& b) const noexcept {
    const Request& x = a.request;
    const Request& y = b.request;
    if (order_ == QueueOrder::deadline) {
        const double dx = x.deadline_s();
        const double dy = y.deadline_s();
        if (dx != dy) return dx > dy;
    }
    if (x.arrival_s != y.arrival_s) return x.arrival_s > y.arrival_s;
    return x.id > y.id;
}

void RequestQueue::push(Request request) {
    heap_.push_back(Entry{std::move(request), next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), later());
    max_depth_ = std::max(max_depth_, heap_.size());
}

void RequestQueue::set_order(QueueOrder order) {
    if (order == order_) return;
    order_ = order;
    std::make_heap(heap_.begin(), heap_.end(), later());
}

RequestQueue::Entry RequestQueue::pop_entry() {
    std::pop_heap(heap_.begin(), heap_.end(), later());
    Entry out = std::move(heap_.back());
    heap_.pop_back();
    return out;
}

Request RequestQueue::pop() {
    if (heap_.empty()) throw std::out_of_range("RequestQueue::pop: queue is empty");
    return pop_entry().request;
}

std::vector<Request> RequestQueue::drain() { return in_push_order(std::exchange(heap_, {})); }

std::vector<Request> RequestQueue::in_push_order(std::vector<Entry> entries) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.seq < b.seq; });
    std::vector<Request> out;
    out.reserve(entries.size());
    for (auto& e : entries) out.push_back(std::move(e.request));
    return out;
}

} // namespace lotus::serving
