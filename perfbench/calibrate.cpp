#include "calibrate.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

namespace {

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// splitmix64: a fixed input stream, independent of the library's RNG.
std::uint64_t next(std::uint64_t& s) {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double unit(std::uint64_t& s) { return static_cast<double>(next(s) >> 11) * 0x1.0p-53; }

double reference_work() {
    std::uint64_t s = 12345;
    constexpr int kDim = 128;
    std::vector<double> w(kDim * kDim);
    std::vector<double> x(kDim);
    std::vector<double> y(kDim);
    for (auto& v : w) v = unit(s) - 0.5;
    for (auto& v : x) v = unit(s);
    double acc = 0.0;
    for (int round = 0; round < 48; ++round) {
        for (int i = 0; i < kDim; ++i) {
            double sum = 0.0;
            for (int j = 0; j < kDim; ++j) sum += w[i * kDim + j] * x[j];
            y[i] = std::tanh(sum);
        }
        std::swap(x, y);
    }
    acc += x[0];

    std::vector<double> keys(16384);
    for (auto& v : keys) v = unit(s);
    std::sort(keys.begin(), keys.end());
    acc += keys[keys.size() / 2];

    std::map<std::uint64_t, double> m;
    for (int i = 0; i < 8192; ++i) m.emplace(next(s) % 100000, unit(s));
    for (int i = 0; i < 4096; ++i) {
        const auto it = m.lower_bound(next(s) % 100000);
        if (it != m.end()) {
            acc += it->second;
            m.erase(it);
        }
    }
    return acc;
}

} // namespace

double calibration_s() {
    thread_local volatile double sink = 0.0;
    const double t0 = thread_cpu_s();
    sink = sink + reference_work();
    return thread_cpu_s() - t0;
}

} // namespace perfbench
