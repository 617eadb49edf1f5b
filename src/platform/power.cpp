#include "platform/power.hpp"

#include <stdexcept>

namespace lotus::platform {

PowerModel::PowerModel(PowerParams params) : params_(params) {
    if (params_.c_eff < 0.0 || params_.leak0_w_per_v < 0.0) {
        throw std::invalid_argument("PowerModel: negative coefficients");
    }
    if (params_.idle_fraction < 0.0 || params_.idle_fraction > 1.0) {
        throw std::invalid_argument("PowerModel: idle_fraction out of [0,1]");
    }
}

} // namespace lotus::platform
