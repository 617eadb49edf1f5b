// Unit contract of the sim-time telemetry Recorder (PR 7): deterministic
// track numbering, strict duration-span pairing, the per-process breach
// flight recorder, byte-identical exports for identical event sequences,
// failed artifact writes surfacing as errors, and the thread-local
// BindScope/SuspendScope plumbing every instrumentation site branches on.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>

#include "telemetry/recorder.hpp"

namespace lotus::telemetry {
namespace {

TEST(Recorder, TracksNumberInFirstSeenOrder) {
    Recorder rec;
    const int a = rec.track("orin", "engine");
    const int b = rec.track("orin", "governor");
    const int c = rec.track("mi11", "engine");
    EXPECT_EQ(rec.track("orin", "engine"), a);       // idempotent
    EXPECT_EQ(rec.track("orin", "governor"), b);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);

    // Context routing: nested emitters reach the right process without a
    // device handle.
    rec.set_context("mi11");
    EXPECT_EQ(rec.context_track("engine"), c);
    rec.set_context("orin");
    EXPECT_EQ(rec.context_track("governor"), b);
}

TEST(Recorder, DurationSpansPairStrictly) {
    Recorder rec;
    const int t = rec.track("dev", "engine");
    rec.begin(t, "frame", 0.1);
    rec.begin(t, "inference", 0.2); // nested
    rec.end(t, 0.3);
    rec.end(t, 0.4);
    EXPECT_EQ(rec.event_count(), 4u);
    // Closing with nothing open is unbalanced instrumentation -- a bug, not
    // a recoverable condition.
    EXPECT_THROW(rec.end(t, 0.5), std::logic_error);
}

TEST(Recorder, EventsOnUnknownTrackThrow) {
    Recorder rec;
    EXPECT_THROW(rec.instant(0, "tick", 0.0), std::out_of_range);
    EXPECT_THROW(rec.counter(42, "temp", 0.0, 1.0), std::out_of_range);
}

// Drive one plausible mini-episode through a recorder.
void record_episode(Recorder& rec) {
    const int eng = rec.track("dev", "engine");
    const int plat = rec.track("dev", "platform");
    const int stream = rec.track("streams", "cam0");
    rec.async_begin(stream, "req", 7, 0.05, "\"slo_ms\":" + jnum(900.0));
    rec.begin(eng, "frame", 0.1);
    rec.counter(plat, "cpu_temp_c", 0.1, 41.5);
    rec.instant(eng, "decision", 0.15, "\"cpu_level\":3");
    rec.end(eng, 0.3);
    rec.async_end(stream, "req", 7, 0.3, "\"outcome\":" + jstr("served"));
    // Recorded late -- a timestamp before the previous event -- must still
    // export monotonically (stable sort by time).
    rec.counter(plat, "gpu_temp_c", 0.2, 44.0);
}

TEST(Recorder, IdenticalEpisodesExportByteIdentically) {
    Recorder a;
    Recorder b;
    record_episode(a);
    record_episode(b);
    EXPECT_EQ(a.chrome_trace_json(), b.chrome_trace_json());
    EXPECT_EQ(a.manifest_json(), b.manifest_json());
}

TEST(Recorder, ExportsAreTimeSortedDespiteLateEvents) {
    Recorder rec;
    record_episode(rec);
    // The gpu_temp_c sample recorded last (t=0.2) must sort before the
    // t=0.3 completions.
    const auto trace = rec.chrome_trace_json();
    const auto gpu = trace.find("gpu_temp_c");
    const auto done = trace.find("\"outcome\"");
    ASSERT_NE(gpu, std::string::npos);
    ASSERT_NE(done, std::string::npos);
    EXPECT_LT(gpu, done);

    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"cat\":\"request\""), std::string::npos);
}

TEST(Recorder, BreachSnapshotsCapBoundedPerProcessRing) {
    Recorder rec;
    const int plat = rec.track("dev", "platform");
    const int queue = rec.track("dev", "queue");
    const int other = rec.track("elsewhere", "platform");
    const int ticks = static_cast<int>(kRingCapacity) + 5;
    for (int i = 0; i < ticks; ++i) {
        rec.instant(plat, "tick" + std::to_string(i), 0.01 * i);
    }
    rec.counter(queue, "queue_depth", 0.85, 5.0); // same pid, other thread
    rec.instant(other, "unrelated", 0.9);         // different process
    rec.breach(plat, "slo_miss", 12, 1.0, "\"e2e_ms\":" + jnum(1234.0));
    EXPECT_EQ(rec.breach_count(), 1u);

    const auto report = rec.breaches_jsonl();
    EXPECT_NE(report.find("\"reason\":\"slo_miss\""), std::string::npos);
    EXPECT_NE(report.find("\"request\":12"), std::string::npos);
    // The snapshot holds exactly kRingCapacity events: the queue sample
    // plus the newest device ticks; older ticks and every other-process
    // event are gone.
    std::size_t events = 0;
    for (auto pos = report.find("\"ph\":"); pos != std::string::npos;
         pos = report.find("\"ph\":", pos + 1)) {
        ++events;
    }
    EXPECT_EQ(events, kRingCapacity);
    const auto tick = [&](int i) {
        return report.find("\"tick" + std::to_string(i) + "\"") != std::string::npos;
    };
    EXPECT_TRUE(tick(ticks - 1));
    EXPECT_TRUE(tick(ticks - static_cast<int>(kRingCapacity) + 1));
    EXPECT_FALSE(tick(ticks - static_cast<int>(kRingCapacity)));
    EXPECT_FALSE(tick(0));
    EXPECT_NE(report.find("queue_depth"), std::string::npos);
    EXPECT_EQ(report.find("unrelated"), std::string::npos);
}

TEST(Recorder, BreachSnapshotOfAPartlyFilledRingIsOldestFirst) {
    Recorder rec;
    const int plat = rec.track("dev", "platform");
    const int idle = rec.track("idle", "platform");
    rec.instant(plat, "a", 0.1);
    rec.instant(plat, "b", 0.2);
    rec.instant(plat, "c", 0.3);
    rec.breach(plat, "slo_miss", 1, 0.4);
    rec.breach(idle, "shed", 2, 0.5);
    const auto report = rec.breaches_jsonl();
    const auto first_line = report.substr(0, report.find('\n'));
    const auto a = first_line.find("\"name\":\"a\"");
    const auto b = first_line.find("\"name\":\"b\"");
    const auto c = first_line.find("\"name\":\"c\"");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    ASSERT_NE(c, std::string::npos);
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_EQ(first_line.find("\"name\":\"c\"", c + 1), std::string::npos);
    // A process that recorded nothing snapshots no events.
    EXPECT_NE(report.find("\"request\":2,\"events\":[]}"), std::string::npos);
}

TEST(Recorder, WriteThrowsNamingTheFileOnAFullDisk) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const auto dir = std::filesystem::temp_directory_path() /
                     ("lotus_recorder_full_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto health = (dir / "health.json").string();
    std::filesystem::create_symlink("/dev/full", health);
    Recorder rec;
    record_episode(rec);
    try {
        rec.write(dir.string());
        ADD_FAILURE() << "a failed write was reported as success";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(health), std::string::npos) << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(Recorder, ThreadLocalBindingNestsAndSuspends) {
    EXPECT_EQ(current(), nullptr); // recording is off by default
    Recorder rec;
    {
        BindScope bind(&rec);
        EXPECT_EQ(current(), &rec);
        {
            SuspendScope hide;
            EXPECT_EQ(current(), nullptr); // pretrain phases record nothing
        }
        EXPECT_EQ(current(), &rec); // restored after the suspend
    }
    EXPECT_EQ(current(), nullptr);
}

TEST(Recorder, JsonHelpersEscapeAndDegrade) {
    EXPECT_EQ(jstr("plain"), "\"plain\"");
    EXPECT_EQ(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(jnum(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(jnum(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jnum(2.0), "2");
}

} // namespace
} // namespace lotus::telemetry
