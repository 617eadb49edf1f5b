// Unit contract of the sim-time telemetry Recorder: deterministic track
// numbering, strict duration-span pairing, the per-process breach flight
// recorder, byte-identical exports for identical event sequences, the
// (time, append order) export order, the chunked trace.json writer, failed
// artifact writes surfacing as errors, the Args fragment builder, and the
// thread-local BindScope/SuspendScope plumbing every instrumentation site
// branches on.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

/// A log whose trace.json spans several kTraceChunkBytes chunks.
void record_long_episode(Recorder& rec) {
    const int eng = rec.track("dev", "engine");
    const int stream = rec.track("streams", "cam \"0\"");
    for (int i = 0; i < 20000; ++i) {
        const double t = 0.01 * i;
        rec.async_begin(stream, "request", static_cast<std::uint64_t>(i), t,
                        Args().num("slo_ms", 900.0).str("stream", "cam \"0\""));
        rec.begin(eng, "frame", t, Args().integer("iteration", i).num("queue_wait_ms", 0.1 * i));
        rec.counter(eng, "cpu_temp_c", t + 0.001, 40.0 + 0.001 * i);
        rec.end(eng, t + 0.005);
    }
}

std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A fresh per-process directory under the system temp directory.
std::filesystem::path fresh_temp_dir(const std::string& stem) {
    const auto dir = std::filesystem::temp_directory_path() /
                     (stem + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

TEST(Recorder, WrittenTraceEqualsTheRenderedOneAcrossChunks) {
    Recorder rec;
    record_long_episode(rec);
    const auto trace = rec.chrome_trace_json();
    ASSERT_GT(trace.size(), 4 * kTraceChunkBytes);
    const auto dir = fresh_temp_dir("lotus_recorder_chunks");
    rec.write(dir.string());
    EXPECT_TRUE(slurp(dir / "trace.json") == trace);
    std::filesystem::remove_all(dir);
}

/// write(dir) with `file` a symlink to /dev/full must throw naming it.
void expect_full_disk_error(const std::string& file) {
    const auto dir = fresh_temp_dir("lotus_recorder_full");
    const auto path = (dir / file).string();
    std::filesystem::create_symlink("/dev/full", path);
    Recorder rec;
    record_long_episode(rec);
    try {
        rec.write(dir.string());
        ADD_FAILURE() << "a failed write of " << file << " was reported as success";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(Recorder, WriteThrowsNamingTheFileOnAFullDisk) {
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    expect_full_disk_error("health.json");
    // trace.json goes out in chunks; a failed one is not lost among them.
    expect_full_disk_error("trace.json");
}

TEST(Recorder, TimeOrderEqualsASortOfTimeAndIndex) {
    std::mt19937_64 rng(0x7123);
    for (const std::size_t n : {0, 1, 2, 50, 5000}) {
        for (const double late_share : {0.0, 0.05, 0.5, 1.0}) {
            // Timestamps on a coarse grid (many ties); a `late_share` of
            // events is stamped up to 20 ticks before the clock.
            std::vector<Event> log(n);
            double clock = 0.0;
            for (auto& e : log) {
                if (rng() % 3 == 0) clock += 0.25;
                const bool late = static_cast<double>(rng() % 1000) < late_share * 1000.0;
                e.t_s = late ? std::max(0.0, clock - 0.25 * static_cast<double>(rng() % 21))
                             : clock;
            }
            std::vector<std::pair<double, std::size_t>> keyed;
            for (std::size_t i = 0; i < n; ++i) keyed.emplace_back(log[i].t_s, i);
            std::sort(keyed.begin(), keyed.end());
            std::vector<std::size_t> expected;
            for (const auto& [t, i] : keyed) expected.push_back(i);
            EXPECT_EQ(time_order(log), expected) << n << " events, late share " << late_share;
        }
    }
    // A log recorded backwards is all late.
    std::vector<Event> reversed(100);
    for (std::size_t i = 0; i < reversed.size(); ++i) {
        reversed[i].t_s = static_cast<double>(reversed.size() - i / 2);
    }
    std::vector<std::size_t> expected;
    for (std::size_t i = reversed.size(); i > 0; i -= 2) {
        expected.push_back(i - 2);
        expected.push_back(i - 1);
    }
    EXPECT_EQ(time_order(reversed), expected);
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

TEST(Recorder, ArgsRenderLikeTheJsonHelpers) {
    const std::string odd = "a\"b\\c\n\x01";
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(std::string_view(Args()), "");
    EXPECT_EQ(std::string_view(Args().str("s", odd)), "\"s\":" + jstr(odd));
    EXPECT_EQ(std::string_view(Args().num("x", nan).num("y", -0.0000001).num("z", 2.5)),
              "\"x\":" + jnum(nan) + ",\"y\":" + jnum(-0.0000001) + ",\"z\":" + jnum(2.5));
    EXPECT_EQ(std::string_view(Args().integer("i", -7).integer("u", std::uint64_t{1} << 63)),
              "\"i\":-7,\"u\":9223372036854775808");
    EXPECT_EQ(std::string_view(Args().boolean("t", true).boolean("f", false).null("n")),
              "\"t\":true,\"f\":false,\"n\":null");
}

TEST(Recorder, LiveArgsBuildersKeepTheirOwnBuffers) {
    Args outer;
    outer.integer("a", 1);
    {
        Args inner;
        inner.str("b", "two");
        outer.num("c", 3.0);
        EXPECT_EQ(std::string_view(inner), "\"b\":\"two\"");
    }
    // The inner builder's buffer went back to the pool: the next builder
    // takes it, starts empty, and still leaves the live one alone.
    Args next;
    next.null("d");
    outer.boolean("e", true);
    EXPECT_EQ(std::string_view(next), "\"d\":null");
    EXPECT_EQ(std::string_view(outer), "\"a\":1,\"c\":3,\"e\":true");

    // Builders released out of order never hand one buffer to two owners.
    auto first = std::make_unique<Args>();
    first->integer("f", 1);
    Args second;
    second.integer("s", 2);
    first.reset();
    Args third;
    third.integer("t", 3);
    EXPECT_EQ(std::string_view(second), "\"s\":2");
    EXPECT_EQ(std::string_view(third), "\"t\":3");
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
