#pragma once
// Operating performance points (OPP): the discrete frequency/voltage ladder
// of a DVFS domain. The paper's action space is the cross product of the M
// CPU levels and N GPU levels (Sec. 4.3.1); each level here carries the
// voltage used by the power model (P_dyn ~ C f V^2).

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace lotus::platform {

struct OperatingPoint {
    double freq_hz = 0.0;
    double voltage_v = 0.0;
};

/// Immutable, ascending-frequency ladder of operating points.
class OppTable {
public:
    OppTable(std::string domain_name, std::vector<OperatingPoint> points);

    [[nodiscard]] const std::string& domain() const noexcept { return domain_; }
    [[nodiscard]] std::size_t num_levels() const noexcept { return points_.size(); }

    [[nodiscard]] const OperatingPoint& level(std::size_t i) const {
        if (i >= points_.size()) throw std::out_of_range("OppTable::level");
        return points_[i];
    }

    [[nodiscard]] double freq(std::size_t i) const { return level(i).freq_hz; }
    [[nodiscard]] double voltage(std::size_t i) const { return level(i).voltage_v; }

    [[nodiscard]] double min_freq() const noexcept { return points_.front().freq_hz; }
    [[nodiscard]] double max_freq() const noexcept { return points_.back().freq_hz; }

    [[nodiscard]] const std::vector<OperatingPoint>& points() const noexcept { return points_; }

private:
    std::string domain_;
    std::vector<OperatingPoint> points_;
};

} // namespace lotus::platform
