#include "serving/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "prof/profiler.hpp"
#include "runtime/runner.hpp"
#include "serving/scheduler.hpp"
#include "telemetry/recorder.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace lotus::serving {

namespace {

/// EWMA weight of the newest service-time sample in the expected-service
/// estimate.
constexpr double kServiceEwma = 0.3;

} // namespace

void validate_streams(const std::vector<StreamSpec>& streams, const std::string& owner) {
    if (streams.empty()) {
        throw std::invalid_argument(owner + ": no streams configured");
    }
    for (const auto& s : streams) {
        if (s.requests == 0) {
            throw std::invalid_argument(owner + ": stream '" + s.name +
                                        "' emits zero requests");
        }
        if (s.slo_s <= 0.0) {
            throw std::invalid_argument(owner + ": stream '" + s.name +
                                        "' has a non-positive SLO");
        }
        (void)workload::dataset_by_name(s.dataset); // throws on unknown dataset
        try {
            (void)ArrivalGenerator(s.arrival, s.requests, 0); // validates the spec
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument(owner + ": stream '" + s.name + "': " + e.what());
        }
    }
}

ServingRecord served_record(const Request& r, double wait_s,
                            const runtime::FrameResult& result) {
    ServingRecord row;
    row.request_id = r.id;
    row.stream = r.stream;
    row.arrival_s = r.arrival_s;
    row.start_s = result.start_time_s;
    row.queue_wait_s = wait_s;
    row.service_s = result.latency_s;
    row.e2e_s = result.e2e_latency_s();
    row.slo_s = r.slo_s;
    row.missed = !slo_satisfied(row.e2e_s, r.slo_s);
    row.throttled = result.throttled;
    row.proposals = result.proposals_used;
    row.cpu_temp = result.cpu_temp;
    row.gpu_temp = result.gpu_temp;
    row.energy_j = result.energy_j;
    return row;
}

ServingRecord shed_record(const Request& r, double now_s, double cpu_temp,
                          double gpu_temp) {
    ServingRecord row;
    row.request_id = r.id;
    row.stream = r.stream;
    row.arrival_s = r.arrival_s;
    row.start_s = now_s;
    row.queue_wait_s = std::max(0.0, now_s - r.arrival_s);
    row.e2e_s = row.queue_wait_s;
    row.slo_s = r.slo_s;
    row.shed = true;
    row.missed = true;
    row.proposals = r.frame.proposals;
    row.cpu_temp = cpu_temp;
    row.gpu_temp = gpu_temp;
    return row;
}

double update_expected_service(double expected_s, double latency_s) {
    return expected_s <= 0.0 ? latency_s
                             : (1.0 - kServiceEwma) * expected_s + kServiceEwma * latency_s;
}

ServingEngine::ServingEngine(ServingConfig config) : config_(std::move(config)) {
    validate_streams(config_.streams, "ServingEngine");
    (void)make_scheduler(config_.scheduler); // throws on unknown policy
}

std::uint64_t arrival_stream_seed(std::uint64_t seed, const std::string& stream_name,
                                  std::size_t index) {
    return util::derive_seed(seed, "arrivals/" + stream_name, index);
}

std::uint64_t frame_stream_seed(std::uint64_t seed, const std::string& stream_name,
                                std::size_t index) {
    return util::derive_seed(seed, "frames/" + stream_name, index);
}

std::vector<Request> build_request_timeline(const std::vector<StreamSpec>& streams,
                                            std::uint64_t seed) {
    std::vector<Request> all;
    std::size_t total = 0;
    for (const auto& stream : streams) total += stream.requests;
    all.reserve(total);
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const auto& stream = streams[s];
        ArrivalGenerator arrivals(stream.arrival, stream.requests,
                                  arrival_stream_seed(seed, stream.name, s));
        workload::FrameStream frames(workload::dataset_by_name(stream.dataset),
                                     frame_stream_seed(seed, stream.name, s));
        for (std::size_t k = 0; k < stream.requests; ++k) {
            Request r;
            r.stream = s;
            r.arrival_s = arrivals.next();
            r.slo_s = stream.slo_s;
            r.frame = frames.next();
            all.push_back(std::move(r));
        }
    }
    // Merge the per-stream timelines; ids are global arrival order so every
    // scheduler tie-break is a pure function of the timeline.
    std::sort(all.begin(), all.end(), [](const Request& a, const Request& b) {
        if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
        if (a.stream != b.stream) return a.stream < b.stream;
        return a.frame.index < b.frame.index;
    });
    for (std::size_t i = 0; i < all.size(); ++i) all[i].id = i;
    trace::maybe_record(streams, all);
    return all;
}

std::vector<Request> replay_or_build_timeline(const std::vector<StreamSpec>& streams,
                                              std::uint64_t seed,
                                              const std::string& replay_trace) {
    if (!replay_trace.empty()) return trace::load_requests(replay_trace, streams);
    return build_request_timeline(streams, seed);
}

std::vector<Request> ServingEngine::build_requests() const {
    return replay_or_build_timeline(config_.streams, config_.seed, config_.replay_trace);
}

ServingTrace ServingEngine::run(governors::Governor& governor) const {
    LOTUS_PROF_SCOPE("serving.run");
    platform::EdgeDevice device(config_.device_spec);
    device.set_ambient(config_.ambient_celsius);
    runtime::InferenceEngine engine(device);
    const auto model = detector::make_detector(config_.detector);
    auto scheduler = make_scheduler(config_.scheduler);

    // --- pre-training phase (not recorded; mirrors ExperimentRunner) --------
    const auto& warm = config_.streams.front();
    workload::FrameStream warm_frames(
        workload::dataset_by_name(warm.dataset),
        util::derive_seed(config_.seed, "pretrain/" + warm.dataset, 0));
    runtime::pretrain(device, engine, model, governor, warm_frames,
                      config_.pretrain_constraint_s > 0.0 ? config_.pretrain_constraint_s
                                                          : warm.slo_s,
                      config_.pretrain_iterations);

    const auto requests = build_requests();
    std::vector<std::string> names;
    names.reserve(config_.streams.size());
    for (const auto& s : config_.streams) names.push_back(s.name);

    ServingTrace trace(std::move(names), config_.capture_rows);
    trace.reserve(requests.size());
    RequestQueue queue;
    std::size_t next_arrival = 0;
    std::size_t iteration = 0;
    double expected_service = 0.0;

    // Request-lifecycle spans: one async span per request on its stream's
    // track ("streams" pseudo-process), breaches recorded against the
    // device so the flight recorder snapshots what the device was doing.
    auto* tel = telemetry::current();
    int tel_dev = -1;
    int tel_queue = -1;
    std::vector<int> tel_streams;
    std::size_t tel_last_depth = static_cast<std::size_t>(-1);
    if (tel) {
        tel->set_context(device.telemetry_label());
        tel_dev = tel->track(device.telemetry_label(), "platform");
        tel_queue = tel->track(device.telemetry_label(), "queue");
        tel_streams.reserve(config_.streams.size());
        for (const auto& s : config_.streams) {
            tel_streams.push_back(tel->track("streams", s.name));
        }
    }
    const auto tel_queue_depth = [&](double t) {
        if (!tel || queue.size() == tel_last_depth) return;
        tel_last_depth = queue.size();
        tel->counter(tel_queue, "queue_depth", t, static_cast<double>(queue.size()));
    };

    const auto record_shed = [&](Request&& r, double now) {
        if (tel) {
            tel->rollup().record_request(device.telemetry_label(),
                                         config_.streams[r.stream].name, now,
                                         telemetry::Rollup::Outcome::shed, 0.0,
                                         std::max(0.0, now - r.arrival_s) * 1e3);
            tel->async_end(tel_streams[r.stream], "request", r.id, now,
                           "\"outcome\":\"shed\",\"queued_ms\":" +
                               telemetry::jnum(std::max(0.0, now - r.arrival_s) * 1e3));
            tel->breach(tel_dev, "shed", r.id, now,
                        "\"stream\":" + telemetry::jstr(config_.streams[r.stream].name) +
                            ",\"slo_ms\":" + telemetry::jnum(r.slo_s * 1e3));
        }
        trace.add(shed_record(r, now, device.cpu_temp(), device.gpu_temp()));
    };

    while (next_arrival < requests.size() || !queue.empty()) {
        const double now = device.now();
        while (next_arrival < requests.size() &&
               requests[next_arrival].arrival_s <= now + kTimeEps) {
            const Request& r = requests[next_arrival];
            if (tel) {
                // Span opens at the true arrival instant (possibly a hair
                // before `now`); exporters order by timestamp, not append
                // order, so the trace stays monotonic.
                tel->async_begin(tel_streams[r.stream], "request", r.id, r.arrival_s,
                                 "\"slo_ms\":" + telemetry::jnum(r.slo_s * 1e3));
            }
            queue.push(requests[next_arrival++]);
        }
        tel_queue_depth(now);
        if (queue.empty()) {
            // Device is free but no request is pending: idle (and cool)
            // until the next arrival.
            engine.run_idle(std::max(requests[next_arrival].arrival_s - now, kTimeEps),
                            governor);
            continue;
        }

        auto decision = scheduler->pick(queue, now, expected_service);
        for (auto& r : decision.shed) record_shed(std::move(r), now);
        tel_queue_depth(now);
        if (!decision.next) continue;
        LOTUS_PROF_SCOPE("serving.dispatch");
        LOTUS_PROF_COUNT("serving.requests", 1);

        Request req = std::move(*decision.next);
        // Admission tolerates kTimeEps of clock shortfall; never report a
        // negative wait for a request taken the instant it arrived.
        const double wait = std::max(0.0, now - req.arrival_s);
        if (tel) {
            tel->instant(tel_queue, "dispatch", now,
                         "\"request_id\":" + std::to_string(req.id) +
                             ",\"stream\":" +
                             telemetry::jstr(config_.streams[req.stream].name) +
                             ",\"queue_wait_ms\":" + telemetry::jnum(wait * 1e3));
        }
        const auto result =
            engine.run_frame(model, req.frame, governor, req.slo_s, iteration++, wait);

        auto row = served_record(req, wait, result);
        if (tel) {
            const double done = device.now();
            tel->rollup().record_request(device.telemetry_label(),
                                         config_.streams[req.stream].name, done,
                                         row.missed ? telemetry::Rollup::Outcome::late
                                                    : telemetry::Rollup::Outcome::ok,
                                         row.e2e_s * 1e3, wait * 1e3);
            tel->async_end(tel_streams[req.stream], "request", req.id, done,
                           std::string("\"outcome\":\"") +
                               (row.missed ? "missed" : "served") +
                               "\",\"e2e_ms\":" + telemetry::jnum(row.e2e_s * 1e3));
            if (row.missed) {
                tel->breach(tel_dev, "slo_miss", req.id, done,
                            "\"stream\":" +
                                telemetry::jstr(config_.streams[req.stream].name) +
                                ",\"e2e_ms\":" + telemetry::jnum(row.e2e_s * 1e3) +
                                ",\"slo_ms\":" + telemetry::jnum(req.slo_s * 1e3));
            }
        }
        trace.add(std::move(row));
        expected_service = update_expected_service(expected_service, result.latency_s);
    }

    trace.set_makespan(device.now());
    trace.set_total_energy(device.energy_joules());
    trace.set_max_queue_depth(queue.max_depth());
    trace.set_thermal_steps(device.thermal_steps());
    return trace;
}

} // namespace lotus::serving
