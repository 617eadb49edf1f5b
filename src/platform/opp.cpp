#include "platform/opp.hpp"

#include <stdexcept>

namespace lotus::platform {

OppTable::OppTable(std::string domain_name, std::vector<OperatingPoint> points)
    : domain_(std::move(domain_name)), points_(std::move(points)) {
    if (points_.size() < 2) {
        throw std::invalid_argument("OppTable: need at least two levels");
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (points_[i].freq_hz <= 0.0 || points_[i].voltage_v <= 0.0) {
            throw std::invalid_argument("OppTable: non-positive freq/voltage");
        }
        if (i > 0 && (points_[i].freq_hz <= points_[i - 1].freq_hz ||
                      points_[i].voltage_v < points_[i - 1].voltage_v)) {
            throw std::invalid_argument(
                "OppTable: levels must be strictly ascending in frequency and "
                "non-descending in voltage");
        }
    }
}

const OperatingPoint& OppTable::level(std::size_t i) const {
    if (i >= points_.size()) throw std::out_of_range("OppTable::level");
    return points_[i];
}

} // namespace lotus::platform
