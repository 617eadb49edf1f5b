#include "serving/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "prof/profiler.hpp"
#include "runtime/runner.hpp"
#include "telemetry/recorder.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lotus::serving {

namespace {

/// EWMA weight of the newest service-time sample in the expected-service
/// estimate.
constexpr double kServiceEwma = 0.3;

std::uint64_t arrival_stream_seed(std::uint64_t seed, const std::string& stream_name,
                                  std::size_t index) {
    return util::derive_seed(seed, "arrivals/" + stream_name, index);
}

std::uint64_t frame_stream_seed(std::uint64_t seed, const std::string& stream_name,
                                std::size_t index) {
    return util::derive_seed(seed, "frames/" + stream_name, index);
}

} // namespace

void validate_load(const LoadConfig& load, const std::string& owner) {
    const auto& streams = load.streams;
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
    (void)make_scheduler(load.scheduler); // throws on unknown policy
}

ServingRecord shed_record(const Request& r, double now_s, std::size_t device, double cpu_temp,
                          double gpu_temp) {
    ServingRecord row;
    row.request_id = r.id;
    row.stream = r.stream;
    row.device = device;
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

RequestTelemetry::RequestTelemetry(const std::vector<StreamSpec>& streams,
                                   std::vector<std::string> devices)
    : tel_(telemetry::current()), streams_(streams), devices_(std::move(devices)),
      depths_(devices_.size(), static_cast<std::size_t>(-1)),
      queue_tracks_(devices_.size(), -1), platform_tracks_(devices_.size(), -1) {
    if (!tel_) return;
    stream_tracks_.reserve(streams.size());
    for (const auto& s : streams) stream_tracks_.push_back(tel_->track("streams", s.name));
}

int RequestTelemetry::track(int& slot, const std::string& process, const char* thread) {
    if (slot < 0) slot = tel_->track(process, thread);
    return slot;
}

void RequestTelemetry::arrival(const Request& r) {
    if (!tel_) return;
    // The span opens at the true arrival instant, possibly a hair before the
    // clock that noticed it; the trace is time-sorted, so it stays monotonic.
    tel_->async_begin(stream_tracks_[r.stream], "request", r.id, r.arrival_s,
                      telemetry::Args().num("slo_ms", r.slo_s * 1e3));
}

void RequestTelemetry::dispatch(std::size_t device, const Request& r, double now_s,
                                double wait_s) {
    if (!tel_) return;
    tel_->instant(track(queue_tracks_[device], devices_[device], "queue"), "dispatch", now_s,
                  telemetry::Args()
                      .integer("request_id", r.id)
                      .str("stream", streams_[r.stream].name)
                      .num("queue_wait_ms", wait_s * 1e3));
}

void RequestTelemetry::served(const ServingRecord& row, double done_s) {
    if (!tel_) return;
    const auto& label = devices_[row.device];
    const auto& stream = streams_[row.stream].name;
    tel_->rollup().record_request(label, stream, done_s,
                                  row.missed ? telemetry::Rollup::Outcome::late
                                             : telemetry::Rollup::Outcome::ok,
                                  row.e2e_s * 1e3, row.queue_wait_s * 1e3);
    tel_->async_end(stream_tracks_[row.stream], "request", row.request_id, done_s,
                    telemetry::Args()
                        .str("outcome", row.missed ? "missed" : "served")
                        .str("device", label)
                        .num("e2e_ms", row.e2e_s * 1e3));
    if (row.missed) {
        tel_->breach(track(platform_tracks_[row.device], label, "platform"), "slo_miss",
                     row.request_id, done_s,
                     telemetry::Args()
                         .str("stream", stream)
                         .num("e2e_ms", row.e2e_s * 1e3)
                         .num("slo_ms", row.slo_s * 1e3)
                         .str("device", label));
    }
}

void RequestTelemetry::shed(std::size_t device, const Request& r, double now_s) {
    if (!tel_) return;
    const bool on_device = device != kNoDevice;
    const auto& stream = streams_[r.stream].name;
    const double queued_ms = std::max(0.0, now_s - r.arrival_s) * 1e3;
    // A router-level shed is charged to the "fleet" pseudo-device: its
    // rollup row, and its breach on the "fleet"/"router" track.
    const std::string& process = on_device ? devices_[device] : router_process_;
    tel_->rollup().record_request(process, stream, now_s, telemetry::Rollup::Outcome::shed,
                                  0.0, queued_ms);
    tel_->async_end(stream_tracks_[r.stream], "request", r.id, now_s,
                    telemetry::Args().str("outcome", "shed").num("queued_ms", queued_ms));
    const int breach_track = on_device ? track(platform_tracks_[device], process, "platform")
                                       : track(router_track_, process, "router");
    telemetry::Args args;
    args.str("stream", stream).num("slo_ms", r.slo_s * 1e3);
    if (on_device) {
        args.str("device", process);
    } else {
        args.null("device");
    }
    tel_->breach(breach_track, "shed", r.id, now_s, args);
}

void RequestTelemetry::queue_depth(std::size_t device, double t_s, std::size_t depth) {
    if (!tel_) return;
    if (depth == depths_[device]) return;
    depths_[device] = depth;
    tel_->counter(track(queue_tracks_[device], devices_[device], "queue"), "queue_depth", t_s,
                  static_cast<double>(depth));
}

Station::Station(const platform::DeviceSpec& spec, const std::string& scheduler_name,
                 const detector::DetectorModel& model, std::size_t index)
    : device(spec), engine(device), scheduler(make_scheduler(scheduler_name)), model_(model),
      index_(index) {}

void Station::warm_up(const LoadConfig& load, const std::string& prefix,
                      governors::Governor& governor, double constraint_s) {
    const auto& dataset = load.streams.front().dataset;
    workload::FrameStream frames(workload::dataset_by_name(dataset),
                                 util::derive_seed(load.seed, prefix + "pretrain/" + dataset, 0));
    runtime::pretrain(device, engine, model_, governor, frames, constraint_s,
                      load.pretrain_iterations);
}

ServingRecord Station::shed(const Request& r, double now_s, RequestTelemetry& tel) const {
    tel.shed(index_, r, now_s);
    return shed_record(r, now_s, index_, device.cpu_temp(), device.gpu_temp());
}

ServingRecord Station::serve(const Request& r, double now_s, governors::Governor& governor,
                             RequestTelemetry& tel) {
    // Admission tolerates kTimeEps of clock shortfall; never report a
    // negative wait for a request taken the instant it arrived.
    const double wait = std::max(0.0, now_s - r.arrival_s);
    tel.dispatch(index_, r, now_s, wait);
    const auto result = engine.run_frame(model_, r.frame, governor, r.slo_s, frames++, wait);

    ServingRecord row;
    row.request_id = r.id;
    row.stream = r.stream;
    row.device = index_;
    row.arrival_s = r.arrival_s;
    row.start_s = result.start_time_s;
    row.queue_wait_s = wait;
    row.service_s = result.latency_s;
    row.e2e_s = result.e2e_latency_s();
    row.slo_s = r.slo_s;
    row.missed = !util::meets_limit(row.e2e_s, r.slo_s);
    row.throttled = result.throttled;
    row.proposals = result.proposals_used;
    row.cpu_temp = result.cpu_temp;
    row.gpu_temp = result.gpu_temp;
    row.energy_j = result.energy_j;
    tel.served(row, device.now());

    // The first sample replaces a missing estimate; later ones blend in.
    expected_service_s = expected_service_s <= 0.0 ? result.latency_s
                                                   : (1.0 - kServiceEwma) * expected_service_s +
                                                         kServiceEwma * result.latency_s;
    return row;
}

ServingEngine::ServingEngine(ServingConfig config) : config_(std::move(config)) {
    validate_load(config_, "ServingEngine");
}

RequestTimeline::RequestTimeline(const std::vector<StreamSpec>& streams, std::uint64_t seed) {
    heads_.reserve(streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const auto& stream = streams[s];
        heads_.push_back(Head{
            ArrivalGenerator(stream.arrival, stream.requests,
                             arrival_stream_seed(seed, stream.name, s)),
            workload::FrameStream(workload::dataset_by_name(stream.dataset),
                                  frame_stream_seed(seed, stream.name, s)),
            Request{}, false});
        auto& head = heads_.back();
        head.pending.stream = s;
        head.pending.slo_s = stream.slo_s;
        refill(head);
        size_ += stream.requests;
    }
}

void RequestTimeline::refill(Head& head) {
    head.live = !head.arrivals.done();
    if (!head.live) return;
    head.pending.arrival_s = head.arrivals.next();
    head.pending.frame = head.frames.next();
}

bool RequestTimeline::next(Request& out) {
    const auto key = [](const Head& head) {
        return trace::ArrivalKey{head.pending.arrival_s, head.pending.stream,
                                 head.pending.frame.index};
    };
    Head* best = nullptr;
    for (auto& head : heads_) {
        if (head.live && (best == nullptr || trace::arrives_before(key(head), key(*best)))) {
            best = &head;
        }
    }
    if (best == nullptr) return false;
    out = best->pending;
    out.id = next_id_++;
    refill(*best);
    return true;
}

RequestSource::RequestSource(const LoadConfig& load) {
    if (load.replay_trace.empty()) {
        timeline_.emplace(load.streams, load.seed);
        return;
    }
    reader_.emplace(load.replay_trace);
    trace::require_streams(load.replay_trace, reader_->info(), load.streams);
}

std::size_t RequestSource::size() const noexcept {
    return reader_ ? static_cast<std::size_t>(reader_->info().record_count) : timeline_->size();
}

bool RequestSource::next(Request& out) {
    if (!reader_) return timeline_->next(out);
    trace::TraceRecord rec;
    if (!reader_->next(rec)) return false;
    out = trace::to_request(rec);
    return true;
}

std::vector<Request> RequestSource::drain() {
    std::vector<Request> all;
    all.reserve(size());
    Request r;
    while (next(r)) all.push_back(r);
    return all;
}

std::vector<Request> build_request_timeline(const std::vector<StreamSpec>& streams,
                                            std::uint64_t seed) {
    LoadConfig load;
    load.streams = streams;
    load.seed = seed;
    return RequestSource(load).drain();
}

std::vector<Request> ServingEngine::build_requests() const {
    return RequestSource(config_).drain();
}

ServingTrace ServingEngine::run(governors::Governor& governor) const {
    LOTUS_PROF_SCOPE("serving.run");
    const auto model = detector::make_detector(config_.detector);
    Station station(config_.device_spec, config_.scheduler, model, 0);
    auto& device = station.device;

    // --- pre-training phase (not recorded; mirrors ExperimentRunner) --------
    station.warm_up(config_, "", governor, config_.warm_up_constraint_s());

    RequestSource source(config_);
    std::vector<std::string> names;
    names.reserve(config_.streams.size());
    for (const auto& s : config_.streams) names.push_back(s.name);

    ServingTrace trace(std::move(names), config_.capture_rows);
    trace.reserve(source.size());
    auto& queue = station.queue;
    Request next; // one request of look-ahead
    bool arriving = source.next(next);

    // The device's tracks take their ids before the emitter's stream tracks:
    // trace.json numbers processes and threads in track-creation order.
    if (auto* rec = telemetry::current()) {
        rec->set_context(device.telemetry_label());
        rec->track(device.telemetry_label(), "platform");
        rec->track(device.telemetry_label(), "queue");
    }
    RequestTelemetry tel(config_.streams, {device.telemetry_label()});

    while (arriving || !queue.empty()) {
        const double now = device.now();
        while (arriving && next.arrival_s <= now + kTimeEps) {
            tel.arrival(next);
            queue.push(next);
            arriving = source.next(next);
        }
        tel.queue_depth(0, now, queue.size());
        if (queue.empty()) {
            // Device is free but no request is pending: idle (and cool)
            // until the next arrival.
            station.engine.run_idle(std::max(next.arrival_s - now, kTimeEps), governor);
            continue;
        }

        auto decision = station.scheduler->pick(queue, now, station.expected_service_s);
        for (const auto& r : decision.shed) trace.add(station.shed(r, now, tel));
        tel.queue_depth(0, now, queue.size());
        if (!decision.next) continue;
        LOTUS_PROF_SCOPE("serving.dispatch");
        LOTUS_PROF_COUNT("serving.requests", 1);
        trace.add(station.serve(*decision.next, now, governor, tel));
    }

    trace.set_makespan(device.now());
    trace.set_total_energy(device.energy_joules());
    trace.set_max_queue_depth(queue.max_depth());
    trace.set_thermal_steps(device.thermal_steps());
    return trace;
}

} // namespace lotus::serving
