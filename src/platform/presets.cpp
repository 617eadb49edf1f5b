#include "platform/presets.hpp"

namespace lotus::platform {

DeviceSpec orin_nano_spec() {
    DeviceSpec spec{
        .name = "jetson-orin-nano",
        .cpu =
            DomainSpec{
                .opp = OppTable("cpu",
                                {
                                    {422.4e6, 0.62},
                                    {652.8e6, 0.66},
                                    {883.2e6, 0.71},
                                    {1113.6e6, 0.77},
                                    {1267.2e6, 0.82},
                                    {1344.0e6, 0.85},
                                    {1420.8e6, 0.88},
                                    {1510.4e6, 0.92},
                                }),
                // 3 W dynamic at the top OPP (6-core A78AE cluster).
                .power =
                    PowerParams{
                        .c_eff = 2.35e-9,
                        .leak0_w_per_v = 0.25,
                        .leak_temp_coeff = 0.020,
                        .t0_celsius = 25.0,
                        .idle_fraction = 0.06,
                    },
                // 6 cores x ~4-wide SIMD on the abstract op scale.
                .ops_per_cycle = 24.0,
            },
        .gpu =
            DomainSpec{
                // Steep voltage cliff at the top of the ladder: the last two
                // levels buy ~2-20% frequency for ~40% more power, so they
                // are thermally unsustainable and must be used in bursts.
                .opp = OppTable("gpu",
                                {
                                    {153.6e6, 0.62},
                                    {306.0e6, 0.66},
                                    {408.0e6, 0.68},
                                    {510.0e6, 0.70},
                                    {612.0e6, 0.95},
                                    {624.75e6, 1.00},
                                }),
                // ~16 W dynamic at the top OPP: hot enough that sustained
                // max-frequency operation must throttle (Fig. 4 "default"),
                // while the 408-510 MHz band is thermally sustainable.
                .power =
                    PowerParams{
                        .c_eff = 3.5e-8,
                        .leak0_w_per_v = 0.35,
                        .leak_temp_coeff = 0.022,
                        .t0_celsius = 25.0,
                        .idle_fraction = 0.05,
                    },
                // 1024 CUDA cores x 2 (FMA) on the abstract op scale.
                .ops_per_cycle = 2048.0,
            },
        .thermal =
            ThermalParams{
                // Die time constants of a few seconds give the spiky
                // trip/recover oscillation of real throttling; the board's
                // ~3 min constant shapes the slow ramp of Fig. 4 over the
                // first ~700 iterations.
                .capacity = {3.0, 3.0, 30.0},
                .g_to_board = {0.8, 0.9, 0.0},
                .g_to_ambient = {0.02, 0.02, 0.22},
                .initial = {25.0, 25.0, 25.0},
            },
        .cpu_throttle =
            ThrottleParams{
                .trip_celsius = 85.0,
                .hysteresis_k = 4.0,
                .poll_interval_s = 0.1,
                .clamp_level = 2,
                .num_levels = 8, // overwritten by EdgeDevice
            },
        .gpu_throttle =
            ThrottleParams{
                .trip_celsius = 85.0,
                .hysteresis_k = 4.0,
                .poll_interval_s = 0.1,
                .clamp_level = 0, // "a very low level" (Sec. 1)
                .num_levels = 6, // overwritten by EdgeDevice
            },
        .mem_bandwidth = 68.0e9, // 128-bit LPDDR5
        .dvfs_latency_s = 50e-6,
        .initial_ambient_celsius = 25.0,
    };
    return spec;
}

DeviceSpec mi11_lite_spec() {
    DeviceSpec spec{
        .name = "mi-11-lite",
        .cpu =
            DomainSpec{
                .opp = OppTable("cpu",
                                {
                                    {0.60e9, 0.60},
                                    {0.90e9, 0.65},
                                    {1.20e9, 0.70},
                                    {1.50e9, 0.75},
                                    {1.80e9, 0.80},
                                    {2.00e9, 0.84},
                                    {2.20e9, 0.88},
                                    {2.40e9, 0.92},
                                }),
                // ~3.2 W dynamic at the top OPP: on a phone the CPU is a
                // first-order heat source, which is why the stock governor
                // (CPU pinned high by schedutil) trips the skin limit while
                // the agents -- free to keep the CPU low -- do not.
                .power =
                    PowerParams{
                        .c_eff = 1.58e-9,
                        .leak0_w_per_v = 0.12,
                        .leak_temp_coeff = 0.020,
                        .t0_celsius = 25.0,
                        .idle_fraction = 0.06,
                    },
                .ops_per_cycle = 16.0,
            },
        .gpu =
            DomainSpec{
                // Same steep top-of-ladder voltage cliff as the Jetson: the
                // last two levels are burst-only inside the skin envelope.
                .opp = OppTable("gpu",
                                {
                                    {180.0e6, 0.62},
                                    {257.0e6, 0.65},
                                    {315.0e6, 0.68},
                                    {380.0e6, 0.70},
                                    {441.0e6, 0.71},
                                    {490.0e6, 0.82},
                                    {545.0e6, 0.93},
                                    {590.0e6, 0.98},
                                }),
                // ~6.2 W dynamic at the top OPP: unsustainable inside the
                // phone's skin-limited envelope, while ~441 MHz is fine.
                .power =
                    PowerParams{
                        .c_eff = 1.30e-8,
                        .leak0_w_per_v = 0.15,
                        .leak_temp_coeff = 0.022,
                        .t0_celsius = 25.0,
                        .idle_fraction = 0.05,
                    },
                // Adreno 642: far fewer ALUs than the Orin's Ampere GPU;
                // yields the ~3-4x latency gap between Tables 1 and 2.
                .ops_per_cycle = 512.0,
            },
        .thermal =
            ThermalParams{
                // Phone chassis: effective time constant ~4 min against the
                // ~20-40 min Fig. 6 runs; skin-limited trip engages within
                // the first third of the run under the default governor.
                // Die time constants (~8 s) span several of the phone's
                // second-scale frames, so throttle trip/recover cycles show
                // up as *between-frame* latency variance rather than
                // averaging out inside a single frame.
                .capacity = {6.0, 6.0, 60.0},
                .g_to_board = {0.8, 0.7, 0.0},
                .g_to_ambient = {0.01, 0.01, 0.28},
                .initial = {25.0, 25.0, 25.0},
            },
        // Phones throttle on skin temperature: a much lower bound with a
        // tighter hysteresis (Fig. 6 operates in the 28-40 degC band).
        // Phone thermal engines react on second-scale horizons (skin temps
        // move slowly): the sluggish poll + wide hysteresis make each
        // trip/recover cycle span several of the phone's second-long frames,
        // which is what turns throttling into *between-frame* latency
        // variance under the stock governor (Fig. 6).
        .cpu_throttle =
            ThrottleParams{
                .trip_celsius = 43.0,
                .hysteresis_k = 4.0,
                .poll_interval_s = 0.3,
                .clamp_level = 1,
                .num_levels = 8,
            },
        .gpu_throttle =
            ThrottleParams{
                .trip_celsius = 43.0,
                .hysteresis_k = 4.0,
                .poll_interval_s = 0.3,
                .clamp_level = 1,
                .num_levels = 8,
            },
        .mem_bandwidth = 17.0e9, // LPDDR4X
        .dvfs_latency_s = 60e-6,
        .initial_ambient_celsius = 25.0,
    };
    return spec;
}

double throttle_bound_celsius(const DeviceSpec& spec) {
    return std::max(spec.cpu_throttle.trip_celsius, spec.gpu_throttle.trip_celsius);
}

double reward_threshold_celsius(const DeviceSpec& spec) {
    // 2 K safety margin below the hardware trip: enough that an agent
    // respecting T_thres never throttles, but not so conservative that it
    // must give up the sustainable upper-middle of the ladder.
    return throttle_bound_celsius(spec) - 2.0;
}

} // namespace lotus::platform
