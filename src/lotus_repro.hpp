#pragma once
// Umbrella public header for the LOTUS reproduction library.
//
// Typical usage (see examples/quickstart.cpp):
//
//   auto spec  = lotus::platform::orin_nano_spec();
//   auto cfg   = lotus::runtime::static_experiment(
//                    spec, lotus::detector::DetectorKind::faster_rcnn,
//                    "KITTI", /*iterations=*/3000, /*pretrain=*/1500);
//   lotus::core::LotusConfig lotus_cfg;
//   lotus_cfg.reward.t_thres_celsius =
//       lotus::platform::reward_threshold_celsius(spec);
//   lotus::core::LotusAgent agent(spec.cpu.opp.num_levels(),
//                                 spec.gpu.opp.num_levels(), lotus_cfg);
//   lotus::runtime::ExperimentRunner runner(cfg);
//   auto trace = runner.run(agent);
//   auto s = trace.summary();   // mean latency, sigma_l, satisfaction rate

// Utilities
#include "util/ascii.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// RL substrate
#include "rl/dqn.hpp"
#include "rl/matrix.hpp"
#include "rl/mlp.hpp"
#include "rl/optimizer.hpp"
#include "rl/replay.hpp"
#include "rl/schedule.hpp"
#include "rl/serialize.hpp"

// Platform simulator
#include "platform/device.hpp"
#include "platform/opp.hpp"
#include "platform/power.hpp"
#include "platform/presets.hpp"
#include "platform/thermal.hpp"
#include "platform/throttle.hpp"

// Detector and workload models
#include "detector/model.hpp"
#include "detector/work.hpp"
#include "workload/dataset.hpp"
#include "workload/environment.hpp"
#include "workload/presets.hpp"

// Governors (baselines) and the LOTUS agent
#include "governors/governor.hpp"
#include "governors/linux_governors.hpp"
#include "governors/ztt.hpp"
#include "lotus/agent.hpp"
#include "lotus/reward.hpp"
#include "lotus/state.hpp"

// Runtime harness
#include "runtime/engine.hpp"
#include "runtime/runner.hpp"
#include "runtime/trace.hpp"

// Serving runtime: multi-stream request queues over one device
#include "serving/arrivals.hpp"
#include "serving/engine.hpp"
#include "serving/queue.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "serving/trace.hpp"

// Fleet layer: thermally-aware routing across a pool of devices
#include "fleet/engine.hpp"
#include "fleet/fleet.hpp"
#include "fleet/router.hpp"
#include "fleet/trace.hpp"

// Experiment harness: scenario catalog + parallel episode execution
#include "harness/harness.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"
#include "harness/sinks.hpp"
