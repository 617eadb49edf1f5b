#pragma once
// Arrival processes for serving streams.
//
// The paper evaluates LOTUS at a steady one-frame-at-a-time cadence; a
// serving system sees anything but. Five pluggable processes cover the load
// shapes that matter for a thermally constrained device:
//
//  * periodic -- a fixed-rate camera (the paper's implicit model);
//  * poisson  -- memoryless client traffic (M/D/1-style queueing);
//  * bursty   -- volleys of back-to-back requests separated by gaps, mean
//                rate preserved (motion-triggered cameras, batched uploads);
//  * diurnal  -- a non-homogeneous Poisson ramp (trough -> peak -> trough),
//                the day/night cycle compressed into one run;
//  * attack   -- adversarial duty cycle: long quiet phases that let the
//                device cool and the governor relax, then dense volleys
//                timed to land on a cold queue ("Can't Slow me Down"-style
//                latency attacks).
//
// All processes are pure functions of (spec, count, seed): parallel harness
// episodes replaying the same stream get byte-identical arrival times.
// ArrivalGenerator is the one implementation; timelines draw from it one
// arrival at a time.

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace lotus::serving {

enum class ArrivalKind { periodic, poisson, bursty, diurnal, attack };

[[nodiscard]] const char* to_string(ArrivalKind kind) noexcept;

/// Parse a CLI-style name ("periodic", "poisson", "burst"/"bursty",
/// "diurnal", "attack"); throws std::invalid_argument on anything else.
[[nodiscard]] ArrivalKind arrival_kind_from(const std::string& name);

struct ArrivalSpec {
    ArrivalKind kind = ArrivalKind::poisson;
    /// Mean request rate [Hz]; all processes preserve it over the run.
    double rate_hz = 1.0;
    /// Offset of the first arrival [s] (staggers otherwise identical streams).
    double phase_s = 0.0;
    /// Requests per volley (bursty/attack).
    std::size_t burst = 8;
    /// Spacing between requests inside a volley [s] (bursty/attack).
    double burst_spread_s = 0.05;
    /// Trough rate as a fraction of the peak rate (diurnal).
    double diurnal_floor = 0.2;
};

/// Streaming arrival-time generator: emits `count` ascending arrival times,
/// one value per next() call, in O(1) memory -- the primitive behind request
/// timelines and trace synthesis of million-request timelines. Arrivals are
/// clamped non-decreasing (volley processes can mathematically overlap
/// adjacent volleys at extreme rates) and every value is finite.
/// Deterministic in (spec, count, seed).
class ArrivalGenerator {
public:
    /// Validates the spec; throws std::invalid_argument for non-positive
    /// rates, zero burst sizes, negative spacing/phase or an out-of-range
    /// diurnal floor. count == 0 constructs an exhausted generator.
    ArrivalGenerator(const ArrivalSpec& spec, std::size_t count, std::uint64_t seed);

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
    [[nodiscard]] bool done() const noexcept { return emitted_ >= count_; }

    /// The next arrival time; throws std::logic_error when exhausted.
    double next();

private:
    ArrivalSpec spec_;
    std::size_t count_;
    util::Rng rng_;
    std::size_t emitted_ = 0;
    /// Running clock (poisson/diurnal).
    double t_ = 0.0;
    /// Volley state (bursty/attack).
    double volley_start_ = 0.0;
    std::size_t volley_j_ = 0;
    double spread_ = 0.0;
    double jitter_lo_ = 0.0;
    double jitter_hi_ = 0.0;
    /// Cycle length of the diurnal rate profile (the expected span).
    double span_ = 0.0;
    /// Monotonicity clamp.
    double last_ = 0.0;
    bool have_last_ = false;
};

} // namespace lotus::serving
