#include "fleet/engine.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "fleet/router.hpp"
#include "prof/profiler.hpp"
#include "serving/engine.hpp"
#include "telemetry/recorder.hpp"
#include "util/rng.hpp"

namespace lotus::fleet {

namespace {

using serving::kNoDevice;
using serving::kTimeEps;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A request staged on a device: routed, but only dispatchable once the
/// device clock reaches `ready_s` (the routing or migration instant) --
/// a migrated request must not execute on its new device at a local time
/// before it logically left the old one.
struct Staged {
    serving::Request request;
    double ready_s = 0.0;
};

/// The slot's spec with its ambient override written in.
platform::DeviceSpec slot_spec(const FleetDevice& slot) {
    auto spec = slot.spec;
    if (slot.ambient_overridden()) spec.initial_ambient_celsius = slot.ambient_celsius;
    return spec;
}

/// One pool slot at run time: the slot's serving::Station plus the
/// dispatcher's own state -- its governor, the staged requests, the
/// bookkeeping the router and DeviceStats read, and the failure drain.
struct Worker : serving::Station {
    Worker(const FleetDevice& slot, std::unique_ptr<governors::Governor> gov,
           const std::string& scheduler, const detector::DetectorModel& model,
           std::size_t index)
        : Station(slot_spec(slot), scheduler, model, index), spec(&slot),
          governor(std::move(gov)) {
        // Telemetry processes are named by slot id, not spec name, so
        // identical twins stay distinguishable in a trace.
        device.set_telemetry_label(slot.id);
        observe_peak();
    }

    void observe_peak() {
        peak_temp_c = std::max(peak_temp_c, std::max(device.cpu_temp(), device.gpu_temp()));
    }

    [[nodiscard]] std::size_t pending() const noexcept {
        return queue.size() + inbox.size();
    }

    /// Earliest device-local time at which this worker can act (dispatch or
    /// failure drain); +infinity when it has nothing pending.
    [[nodiscard]] double next_event_s() const noexcept {
        double t = kInf;
        if (!queue.empty()) t = device.now();
        for (const auto& s : inbox) {
            t = std::min(t, std::max(device.now(), s.ready_s));
        }
        return t;
    }

    [[nodiscard]] bool alive(double now_s) const noexcept {
        return now_s < spec->fail_at_s;
    }

    const FleetDevice* spec;
    std::unique_ptr<governors::Governor> governor;
    std::vector<Staged> inbox;
    std::size_t max_depth = 0;
    std::size_t migrations_out = 0;
    double peak_temp_c = 0.0;
    bool drained = false; // failure drain already executed
};

} // namespace

FleetDevice make_device(std::string id, platform::DeviceSpec spec) {
    return FleetDevice(std::move(id), std::move(spec));
}

std::vector<FleetDevice> device_pool(const platform::DeviceSpec& spec,
                                     const std::string& prefix, std::size_t n) {
    std::vector<FleetDevice> pool;
    pool.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pool.push_back(make_device(prefix + std::to_string(i), spec));
    }
    return pool;
}

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
    if (config_.devices.empty()) {
        throw std::invalid_argument("FleetEngine: no devices configured");
    }
    std::set<std::string> ids;
    for (const auto& d : config_.devices) {
        if (d.id.empty()) throw std::invalid_argument("FleetEngine: device with empty id");
        if (!ids.insert(d.id).second) {
            throw std::invalid_argument("FleetEngine: duplicate device id '" + d.id + "'");
        }
    }
    serving::validate_load(config_, "FleetEngine");
    (void)make_router(config_.router); // throws on unknown router
}

std::uint64_t FleetEngine::governor_seed(std::uint64_t governor_seed_root,
                                         std::size_t index) const {
    return util::derive_seed(governor_seed_root,
                             "governor/" + config_.devices.at(index).id, index);
}

FleetTrace FleetEngine::run(const GovernorFactory& make_governor,
                            std::uint64_t governor_seed_root) const {
    LOTUS_PROF_SCOPE("fleet.run");
    const auto model = detector::make_detector(config_.detector);

    // --- build the pool -----------------------------------------------------
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(config_.devices.size());
    for (std::size_t i = 0; i < config_.devices.size(); ++i) {
        const auto& slot = config_.devices[i];
        workers.push_back(std::make_unique<Worker>(
            slot, make_governor(slot.spec, governor_seed(governor_seed_root, i)),
            config_.scheduler, model, i));
    }

    for (auto& w : workers) {
        const double constraint = w->spec->pretrain_constraint_s > 0.0
                                      ? w->spec->pretrain_constraint_s
                                      : config_.warm_up_constraint_s();
        // Per-device pre-training (not recorded). Non-learning governors
        // need no warm-up (harness rule); device ids are unique, so the
        // namespace alone decorrelates identical twins.
        if (w->governor->decision_overhead_s() != 0.0) {
            w->warm_up(config_, w->spec->id + "/", *w->governor, constraint);
        }
        // Governor-informed service prior: before a device completes its
        // first request, the router estimates its pace from the calibrated
        // single-frame constraint (per-device in heterogeneous pools).
        w->expected_service_s = constraint;
    }

    serving::RequestSource source(config_);
    // Re-routed requests not yet ledgered, by id (a replayed slice's ids run past its size).
    std::unordered_set<std::size_t> migrated;

    std::vector<std::string> device_names;
    for (const auto& d : config_.devices) device_names.push_back(d.id);
    std::vector<std::string> stream_names;
    for (const auto& s : config_.streams) stream_names.push_back(s.name);
    FleetTrace trace(device_names, std::move(stream_names), config_.capture_rows);
    trace.reserve(source.size());

    auto router = make_router(config_.router);

    // Routing, migration and failure instants live on the "fleet"/"router"
    // track; the request lifecycle is the serving layer's emitter.
    auto* tel = telemetry::current();
    const int tel_router = tel ? tel->track("fleet", "router") : -1;
    serving::RequestTelemetry req_tel(config_.streams, std::move(device_names));
    const auto tel_queue_depth = [&](std::size_t index, double t) {
        req_tel.queue_depth(index, t, workers[index]->pending());
    };

    /// Stamp a terminal row with its migration mark and ledger it.
    const auto add = [&](serving::ServingRecord row) {
        row.migrated = migrated.erase(row.request_id) != 0;
        trace.add(std::move(row));
    };

    const auto make_views = [&](double now, std::size_t exclude) {
        std::vector<DeviceView> views;
        views.reserve(workers.size());
        for (std::size_t i = 0; i < workers.size(); ++i) {
            const auto& w = *workers[i];
            DeviceView v;
            v.index = i;
            v.now_s = w.device.now();
            v.cpu_temp_c = w.device.cpu_temp();
            v.gpu_temp_c = w.device.gpu_temp();
            v.headroom_c = std::min(
                w.spec->spec.cpu_throttle.trip_celsius - v.cpu_temp_c,
                w.spec->spec.gpu_throttle.trip_celsius - v.gpu_temp_c);
            v.throttled = w.device.throttled();
            v.queue_depth = w.pending();
            v.expected_service_s = w.expected_service_s;
            v.backlog_s = std::max(0.0, v.now_s - now) +
                          static_cast<double>(v.queue_depth) * v.expected_service_s;
            v.available = i != exclude && w.alive(now);
            views.push_back(v);
        }
        return views;
    };

    /// Route one request at `now`; excluded device (migration source /
    /// failed device) cannot be picked. Dispatcher-level shed when no live
    /// device remains.
    const auto route_request = [&](serving::Request req, double now, std::size_t exclude) {
        LOTUS_PROF_SCOPE("fleet.route");
        LOTUS_PROF_COUNT("fleet.routed", 1);
        const auto views = make_views(now, exclude);
        const auto idx = router->route(views, req, now);
        if (idx == kNoDevice) {
            req_tel.shed(kNoDevice, req, now);
            add(serving::shed_record(req, now, kNoDevice, 0.0, 0.0));
            return;
        }
        if (tel) {
            tel->instant(tel_router, "route", now,
                         telemetry::Args()
                             .integer("request_id", req.id)
                             .str("stream", config_.streams[req.stream].name)
                             .str("device", workers[idx]->spec->id)
                             .boolean("rerouted", migrated.contains(req.id)));
        }
        auto& w = *workers[idx];
        w.inbox.push_back(Staged{std::move(req), now});
        w.max_depth = std::max(w.max_depth, w.pending());
        tel_queue_depth(idx, now);
    };

    /// Pull every queued/staged request off `w` and re-route it across the
    /// rest of the pool at time `now` (throttle migration or failure drain).
    const auto migrate_off = [&](std::size_t index, double now) {
        auto& w = *workers[index];
        auto displaced = w.queue.drain();
        for (auto& s : w.inbox) displaced.push_back(std::move(s.request));
        w.inbox.clear();
        // Deterministic order: global arrival order, like the dispatcher's
        // own timeline.
        std::sort(displaced.begin(), displaced.end(),
                  [](const serving::Request& a, const serving::Request& b) {
                      return a.id < b.id;
                  });
        w.migrations_out += displaced.size();
        if (tel && !displaced.empty()) {
            tel->instant(tel_router, "migrate_off", now,
                         telemetry::Args()
                             .str("device", w.spec->id)
                             .integer("requests", displaced.size()));
        }
        tel_queue_depth(index, now);
        for (auto& r : displaced) {
            migrated.insert(r.id);
            route_request(std::move(r), now, index);
        }
    };

    /// The device is past its failure instant: withdraw it and re-route
    /// everything it still holds.
    const auto withdraw = [&](std::size_t index) {
        auto& w = *workers[index];
        w.drained = true;
        const double t_fail = std::max(w.device.now(), w.spec->fail_at_s);
        if (tel) {
            tel->instant(tel_router, "device_failed", t_fail,
                         telemetry::Args()
                             .str("device", w.spec->id)
                             .integer("pending", w.pending()));
        }
        migrate_off(index, t_fail);
    };

    /// Serve one scheduling step on `w`: idle up to the event instant, move
    /// ready staged requests into the scheduler-visible queue, pick, run.
    const auto dispatch_one = [&](std::size_t index) {
        LOTUS_PROF_SCOPE("fleet.dispatch");
        auto& w = *workers[index];
        const double target = w.next_event_s();
        if (w.device.now() + kTimeEps < target) {
            w.engine.run_idle(std::max(target - w.device.now(), kTimeEps), *w.governor);
            w.observe_peak();
        }
        const double now = w.device.now();
        for (std::size_t i = 0; i < w.inbox.size();) {
            if (w.inbox[i].ready_s <= now + kTimeEps) {
                w.queue.push(std::move(w.inbox[i].request));
                w.inbox.erase(w.inbox.begin() + static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }

        auto decision = w.scheduler->pick(w.queue, now, w.expected_service_s);
        for (const auto& r : decision.shed) add(w.shed(r, now, req_tel));
        tel_queue_depth(index, now);
        if (!decision.next) return;

        const auto row = w.serve(*decision.next, now, *w.governor, req_tel);
        w.observe_peak();
        add(row);
        if (config_.migrate_on_throttle && row.throttled && w.pending() > 0) {
            migrate_off(index, w.device.now());
        }
    };

    // --- the dispatcher loop ------------------------------------------------
    serving::Request next; // one request of look-ahead
    bool arriving = source.next(next);
    const auto any_pending = [&] {
        for (const auto& w : workers) {
            if (w->pending() > 0) return true;
        }
        return false;
    };

    while (arriving || any_pending()) {
        const double t_arr = arriving ? next.arrival_s : kInf;

        // Earliest per-device event (dispatch or failure drain); device
        // index breaks ties.
        std::size_t best = kNoDevice;
        double t_evt = kInf;
        for (std::size_t i = 0; i < workers.size(); ++i) {
            const double t = workers[i]->next_event_s();
            if (t < t_evt) {
                t_evt = t;
                best = i;
            }
        }

        // Arrivals at time t are routed before dispatches at time t, the
        // same boundary rule the single-device engine applies.
        if (best != kNoDevice && t_evt + kTimeEps < t_arr) {
            auto& w = *workers[best];
            if (!w.alive(std::max(t_evt, w.device.now()))) {
                withdraw(best);
            } else {
                dispatch_one(best);
            }
            continue;
        }

        // Route the next arrival. Idle (and cool) every live, empty device
        // up to the routing instant first, so the router reads pool
        // temperatures evaluated at this arrival.
        serving::Request req = next;
        arriving = source.next(next);
        for (std::size_t i = 0; i < workers.size(); ++i) {
            auto& w = *workers[i];
            if (w.pending() == 0 && w.alive(t_arr) &&
                w.device.now() + kTimeEps < t_arr) {
                w.engine.run_idle(t_arr - w.device.now(), *w.governor);
                w.observe_peak();
            }
            // A device whose failure instant has passed gives up its queue
            // the moment the dispatcher acts at or after that instant.
            if (!w.drained && !w.alive(t_arr) && w.pending() > 0) withdraw(i);
        }
        req_tel.arrival(req);
        route_request(std::move(req), t_arr, kNoDevice);
    }

    // --- close out ----------------------------------------------------------
    double makespan = 0.0;
    for (const auto& w : workers) makespan = std::max(makespan, w->device.now());
    for (std::size_t i = 0; i < workers.size(); ++i) {
        auto& w = *workers[i];
        DeviceStats stats;
        stats.makespan_s = w.device.now();
        stats.energy_j = w.device.energy_joules();
        stats.peak_temp_c = w.peak_temp_c;
        stats.max_queue_depth = std::max(w.max_depth, w.queue.max_depth());
        stats.thermal_steps = w.device.thermal_steps();
        stats.migrations_out = w.migrations_out;
        // Withdrawn only if the failure instant fell inside the run horizon
        // -- a fail_at_s beyond the makespan never took effect.
        stats.failed = w.drained || w.spec->fail_at_s <= makespan;
        trace.set_device_stats(i, stats);
    }
    trace.set_makespan(makespan);
    return trace;
}

} // namespace lotus::fleet
