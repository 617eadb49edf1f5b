#include "serving/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lotus::serving {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Exponential inter-arrival with mean 1/rate.
double exp_gap(util::Rng& rng, double rate_hz) {
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - rng.uniform()) / rate_hz;
}

void validate(const ArrivalSpec& spec) {
    if (spec.rate_hz <= 0.0) {
        throw std::invalid_argument("ArrivalSpec: rate_hz must be > 0");
    }
    if (spec.burst == 0) {
        throw std::invalid_argument("ArrivalSpec: burst must be >= 1");
    }
    if (spec.burst_spread_s < 0.0 || spec.phase_s < 0.0) {
        throw std::invalid_argument("ArrivalSpec: negative spacing/phase");
    }
    if (!(spec.diurnal_floor > 0.0) || spec.diurnal_floor > 1.0) {
        throw std::invalid_argument("ArrivalSpec: diurnal_floor must be in (0, 1]");
    }
}

} // namespace

const char* to_string(ArrivalKind kind) noexcept {
    switch (kind) {
        case ArrivalKind::periodic: return "periodic";
        case ArrivalKind::poisson: return "poisson";
        case ArrivalKind::bursty: return "burst";
        case ArrivalKind::diurnal: return "diurnal";
        case ArrivalKind::attack: return "attack";
    }
    return "?";
}

ArrivalKind arrival_kind_from(const std::string& name) {
    if (name == "periodic") return ArrivalKind::periodic;
    if (name == "poisson") return ArrivalKind::poisson;
    if (name == "burst" || name == "bursty") return ArrivalKind::bursty;
    if (name == "diurnal") return ArrivalKind::diurnal;
    if (name == "attack") return ArrivalKind::attack;
    throw std::invalid_argument("unknown arrival process '" + name +
                                "' (periodic|poisson|burst|diurnal|attack)");
}

ArrivalGenerator::ArrivalGenerator(const ArrivalSpec& spec, std::size_t count,
                                   std::uint64_t seed)
    : spec_(spec), count_(count), rng_(seed) {
    validate(spec_);
    switch (spec_.kind) {
        case ArrivalKind::periodic:
            break;
        case ArrivalKind::poisson:
            t_ = spec_.phase_s;
            break;
        case ArrivalKind::bursty:
            // Volleys of `burst` requests `burst_spread_s` apart; volley
            // starts spaced so the mean rate stays rate_hz. +-25% jitter on
            // the inter-volley gap keeps volleys from phase-locking across
            // streams.
            volley_start_ = spec_.phase_s;
            spread_ = spec_.burst_spread_s;
            jitter_lo_ = 0.75;
            jitter_hi_ = 1.25;
            break;
        case ArrivalKind::diurnal:
            t_ = spec_.phase_s;
            span_ = static_cast<double>(count_) / spec_.rate_hz;
            break;
        case ArrivalKind::attack:
            // Adversarial duty cycle: a quiet phase long enough for the
            // device to shed heat and the queue to drain, then a dense
            // volley at 4x the volley tightness of `bursty`. Quiet length
            // jitters +-30% so the pattern cannot be learned as a fixed
            // period.
            spread_ = spec_.burst_spread_s * 0.25;
            jitter_lo_ = 0.7;
            jitter_hi_ = 1.3;
            volley_start_ = spec_.phase_s + static_cast<double>(spec_.burst) /
                                                spec_.rate_hz * rng_.uniform(0.7, 1.3);
            break;
    }
}

double ArrivalGenerator::next() {
    if (done()) {
        throw std::logic_error("ArrivalGenerator: next() past the last arrival");
    }
    double raw = 0.0;
    switch (spec_.kind) {
        case ArrivalKind::periodic:
            raw = spec_.phase_s + static_cast<double>(emitted_) / spec_.rate_hz;
            break;
        case ArrivalKind::poisson:
            t_ += exp_gap(rng_, spec_.rate_hz);
            raw = t_;
            break;
        case ArrivalKind::bursty:
        case ArrivalKind::attack: {
            const double cycle = static_cast<double>(spec_.burst) / spec_.rate_hz;
            if (volley_j_ == spec_.burst) {
                volley_start_ += cycle * rng_.uniform(jitter_lo_, jitter_hi_);
                volley_j_ = 0;
            }
            raw = volley_start_ + static_cast<double>(volley_j_) * spread_;
            ++volley_j_;
            break;
        }
        case ArrivalKind::diurnal: {
            // Non-homogeneous Poisson with a raised-cosine rate profile
            // over the run: trough -> peak -> trough, scaled so the mean
            // rate over the cycle is rate_hz. The cycle length is the
            // expected span of `count` requests; profile(t) lies in
            // [floor, 2 - floor], so the instantaneous rate never hits 0
            // and every gap stays finite even when the cycle is shorter
            // than one inter-arrival time.
            const double floor = spec_.diurnal_floor;
            const double s =
                0.5 * (1.0 - std::cos(2.0 * kPi * (t_ - spec_.phase_s) / span_));
            const double inst_rate = spec_.rate_hz * (floor + 2.0 * (1.0 - floor) * s);
            t_ += exp_gap(rng_, inst_rate);
            raw = t_;
            break;
        }
    }
    ++emitted_;
    // Volley processes can overlap adjacent volleys when the volley period
    // shrinks below the intra-volley span (rate >> 1/spread); clamping
    // keeps the contract that arrivals never step backwards. A no-op for
    // the inherently ascending processes.
    const double out = have_last_ ? std::max(raw, last_) : raw;
    last_ = out;
    have_last_ = true;
    return out;
}

} // namespace lotus::serving
