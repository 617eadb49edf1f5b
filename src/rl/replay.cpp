#include "rl/replay.hpp"

#include <algorithm>
#include <stdexcept>

namespace lotus::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw std::invalid_argument("ReplayBuffer: zero capacity");
    store_.reserve(capacity_);
}

void ReplayBuffer::push(Transition t) {
    if (store_.size() < capacity_) {
        store_.push_back(std::move(t));
    } else {
        store_[head_] = std::move(t);
        head_ = (head_ + 1) % capacity_;
    }
    ++pushed_;
}

std::span<const Transition* const> ReplayBuffer::sample(util::Rng& rng, std::size_t k,
                                                        SampleScratch& scratch) const {
    scratch.batch.clear();
    if (store_.empty()) return {};
    rng.sample_indices(store_.size(), std::min(k, store_.size()), scratch.indices);
    for (const auto i : scratch.indices) scratch.batch.push_back(&store_[i]);
    return scratch.batch;
}

void ReplayBuffer::clear() noexcept {
    store_.clear();
    head_ = 0;
}

} // namespace lotus::rl
