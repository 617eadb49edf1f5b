#pragma once
// Experience replay buffer (Mnih et al. 2015), used once by zTT and twice by
// LOTUS (Sec. 4.3.4 keeps two separate buffers: one for the even-step
// transitions <s_2i, a_2i, r_2i, s_2i+1>, one for the odd-step transitions
// <s_2i+1, a_2i+1, r_2i+1, s_2i+2>).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace lotus::rl {

/// One DQN transition. States are stored padded to the full network input
/// dimension; `width_state` / `width_next` record which slimmable width
/// evaluates Q(s, .) and the bootstrap max_a Q(s', .) respectively (for a
/// single-width agent both are 1.0).
struct Transition {
    std::vector<double> state;
    int action = 0;
    double reward = 0.0;
    std::vector<double> next_state;
    bool terminal = false;
    double width_state = 1.0;
    double width_next = 1.0;

    /// Bootstrap memo, owned by DqnCore: max_a Q_target(next_state, a) at
    /// width_next, valid while `bootstrap_version` equals the version of the
    /// target network that computed it (0 = never computed). It lives in the
    /// transition so a ring overwrite replaces it together with the fields it
    /// was computed from; fields must not change once it is set.
    mutable double bootstrap = 0.0;
    mutable std::uint64_t bootstrap_version = 0;
};

/// Fixed-capacity uniform-sampling ring buffer.
class ReplayBuffer {
public:
    explicit ReplayBuffer(std::size_t capacity);

    void push(Transition t);

    /// Caller-owned scratch for sample(); reusing it across calls keeps a
    /// warm train step allocation-free.
    struct SampleScratch {
        std::vector<std::size_t> indices;
        std::vector<const Transition*> batch;
    };

    /// Sample `k` transitions uniformly without replacement (k is clamped to
    /// size()) into `scratch.batch` and return it. The pointers remain valid
    /// until the next push().
    std::span<const Transition* const> sample(util::Rng& rng, std::size_t k,
                                              SampleScratch& scratch) const;

    [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool empty() const noexcept { return store_.empty(); }
    [[nodiscard]] std::size_t total_pushed() const noexcept { return pushed_; }

    [[nodiscard]] const Transition& operator[](std::size_t i) const { return store_[i]; }

    void clear() noexcept;

private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t pushed_ = 0;
    std::vector<Transition> store_;
};

} // namespace lotus::rl
