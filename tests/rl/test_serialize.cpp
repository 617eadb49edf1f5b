// Tests for Q-network checkpointing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "one_sample.hpp"
#include "rl/optimizer.hpp"
#include "rl/serialize.hpp"

namespace lotus::rl {
namespace {

MlpConfig net_config(std::uint64_t seed = 3) {
    MlpConfig cfg;
    cfg.dims = {7, 24, 24, 12};
    cfg.slim_input = true;
    cfg.seed = seed;
    return cfg;
}

TEST(Serialize, RoundTripIsBitExact) {
    SlimmableMlp net(net_config());
    std::stringstream buffer;
    save_mlp(net, buffer);
    const auto restored = load_mlp(buffer);

    const std::vector<double> x(7, 0.37);
    for (const double width : {0.75, 1.0}) {
        const auto a = net.forward(x, width);
        const auto b = restored.forward(x, width);
        ASSERT_EQ(a, b) << "width " << width;
    }
    EXPECT_EQ(restored.config().dims, net.config().dims);
    EXPECT_EQ(restored.config().slim_input, net.config().slim_input);
}

TEST(Serialize, FileRoundTrip) {
    const auto path =
        (std::filesystem::temp_directory_path() /
         ("lotus_mlp_test_" + std::to_string(::getpid()) + ".ckpt"))
            .string();
    SlimmableMlp net(net_config(7));
    save_mlp(net, path);
    const auto restored = load_mlp(path);
    const std::vector<double> x(7, -0.2);
    EXPECT_EQ(net.forward(x, 1.0), restored.forward(x, 1.0));
    std::filesystem::remove(path);
}

TEST(Serialize, LoadIntoExistingNetwork) {
    SlimmableMlp source(net_config(11));
    SlimmableMlp target(net_config(99)); // different init, same topology
    const std::vector<double> x(7, 0.5);
    ASSERT_NE(source.forward(x, 1.0), target.forward(x, 1.0));

    std::stringstream buffer;
    save_mlp(source, buffer);
    load_mlp_into(target, buffer);
    EXPECT_EQ(source.forward(x, 1.0), target.forward(x, 1.0));
}

TEST(Serialize, TopologyMismatchRejected) {
    SlimmableMlp source(net_config());
    std::stringstream buffer;
    save_mlp(source, buffer);

    MlpConfig other = net_config();
    other.dims = {7, 16, 12};
    SlimmableMlp target(other);
    EXPECT_THROW(load_mlp_into(target, buffer), std::runtime_error);
}

TEST(Serialize, CorruptInputsRejected) {
    std::stringstream garbage("garbage");
    EXPECT_THROW((void)load_mlp(garbage), std::runtime_error);
    std::stringstream truncated("lotus-mlp v1\ndims 3 7 16 4\nslim_input 1\n"
                                "slim_output 0\nlayer 0\nw 1.0 2.0");
    EXPECT_THROW((void)load_mlp(truncated), std::runtime_error);
    std::stringstream bad_magic("lotus-mlp v9\ndims 2 2 2\n");
    EXPECT_THROW((void)load_mlp(bad_magic), std::runtime_error);
}

// A negative dim parses as 2^64 - 1 into an unsigned field; it and any dim
// above the cap must fail with a clear message before anything is sized.
TEST(Serialize, OutOfRangeDimsRejectedWithClearMessage) {
    const struct {
        const char* dims;
        const char* expect;
    } cases[] = {
        {"dims 3 7 -1 48", "load_mlp: dim 18446744073709551615 out of range"},
        {"dims 3 7 65537 48", "load_mlp: dim 65537 out of range"},
        {"dims 3 7 0 48", "load_mlp: dim 0 out of range"},
    };
    for (const auto& c : cases) {
        std::stringstream in(std::string("lotus-mlp v1\n") + c.dims +
                             "\nslim_input 1\nslim_output 0\n");
        try {
            (void)load_mlp(in);
            ADD_FAILURE() << c.dims << ": expected a load error";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), c.expect) << c.dims;
        }
    }
    // The cap itself is accepted by the header parser (1 x 65536 layer).
    std::stringstream at_cap("lotus-mlp v1\ndims 2 1 65536\nslim_input 0\nslim_output 0\n");
    try {
        (void)load_mlp(at_cap);
        ADD_FAILURE() << "expected truncated weights";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "load_mlp: expected token 'layer', got ''");
    }
}

/// Load `text` and expect a std::runtime_error with exactly `message`.
void expect_load_error(const std::string& text, const std::string& message) {
    std::stringstream in(text);
    try {
        (void)load_mlp(in);
        ADD_FAILURE() << "expected a load error: " << message;
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), message);
    }
}

/// A one-layer 2 -> 1 checkpoint with weights `w` and bias `b`.
std::string tiny_checkpoint(const std::string& w, const std::string& b = "0.125") {
    return "lotus-mlp v1\ndims 2 2 1\nslim_input 0\nslim_output 0\nlayer 0\nw " + w +
           "\nb " + b + "\n";
}

TEST(Serialize, TrailingNumbersRejected) {
    std::stringstream whitespace_only(tiny_checkpoint("0.5 -0.25") + "  \n\t\n");
    EXPECT_EQ(load_mlp(whitespace_only).layers()[0].bias()[0], 0.125);
    expect_load_error(tiny_checkpoint("0.5 -0.25") + "3.0 4.0\n",
                      "load_mlp: trailing data after layer 0");
}

TEST(Serialize, TrailingGarbageRejected) {
    expect_load_error(tiny_checkpoint("0.5 -0.25") + "garbage",
                      "load_mlp: trailing data after layer 0");
}

TEST(Serialize, TruncatedWeightsReportedAsTruncation) {
    expect_load_error("lotus-mlp v1\ndims 2 2 1\nslim_input 0\nslim_output 0\nlayer 0\nw 0.5",
                      "load_mlp: truncated at layer 0 weights");
}

TEST(Serialize, MalformedNumberReportedAsMalformed) {
    expect_load_error(tiny_checkpoint("0.5 garbage"),
                      "load_mlp: malformed number 'garbage' in layer 0 weights");
    expect_load_error(tiny_checkpoint("0.5 -0.25", "1.0x"),
                      "load_mlp: malformed number '1.0x' in layer 0 bias");
}

TEST(Serialize, OutOfRangeNumberReportedAsOutOfRange) {
    expect_load_error(tiny_checkpoint("1e999 -0.25"),
                      "load_mlp: number '1e999' out of range in layer 0 weights");
    expect_load_error(tiny_checkpoint("0.5 -0.25", "nan"),
                      "load_mlp: number 'nan' out of range in layer 0 bias");
}

TEST(Serialize, MissingFileRejected) {
    EXPECT_THROW((void)load_mlp("/nonexistent/dir/net.ckpt"), std::runtime_error);
    SlimmableMlp net(net_config());
    EXPECT_THROW(save_mlp(net, "/nonexistent/dir/net.ckpt"), std::runtime_error);
}

TEST(Serialize, TrainedWeightsSurviveRoundTrip) {
    // Checkpoint a partially trained network, not just an initialized one.
    SlimmableMlp net(net_config(13));
    Adam adam(net, {});
    const std::vector<double> x(7, 0.4);
    for (int i = 0; i < 20; ++i) {
        std::vector<double> dout(net.output_dim(), 0.2);
        test::backprop_one(net, x, 0.75, dout);
        adam.step(net);
    }
    std::stringstream buffer;
    save_mlp(net, buffer);
    const auto restored = load_mlp(buffer);
    EXPECT_EQ(net.forward(x, 0.75), restored.forward(x, 0.75));
}

} // namespace
} // namespace lotus::rl
