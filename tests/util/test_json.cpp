// Tests for the artifact JSON reader: normal documents parse to the typed
// tree, malformed input throws std::runtime_error naming a byte offset, and
// nesting is capped at kJsonMaxDepth so a hostile file (a million '[') is a
// clear error instead of a stack overflow.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace lotus::util {
namespace {

/// `depth` nested arrays around one number: [[...[1]...]].
std::string nested_arrays(std::size_t depth) {
    return std::string(depth, '[') + "1" + std::string(depth, ']');
}

/// The runtime_error message json_parse throws for `text` ("" if none).
std::string parse_error(const std::string& text) {
    try {
        (void)json_parse(text);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(Json, ParsesAnArtifactShapedDocument) {
    const auto doc = json_parse(
        R"({"schema_version":1,"fleet":{"requests":3,"e2e_p50_ms":40.5,"peak_temp_c":null},)"
        R"("devices":[{"device":"aé\n","failed":false}],"ok":true})");
    EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
    const auto& fleet = doc.at("fleet");
    EXPECT_EQ(fleet.at("requests").as_number(), 3.0);
    EXPECT_EQ(fleet.number_or("e2e_p50_ms", 0.0), 40.5);
    EXPECT_TRUE(fleet.at("peak_temp_c").is_null());
    EXPECT_EQ(fleet.number_or("peak_temp_c", -1.0), -1.0);
    EXPECT_EQ(fleet.number_or("absent", -2.0), -2.0);
    const auto& devices = doc.at("devices").items();
    ASSERT_EQ(devices.size(), 1u);
    EXPECT_EQ(devices[0].at("device").as_string(), "a\xC3\xA9\n");
    EXPECT_FALSE(devices[0].at("failed").as_bool());
    EXPECT_TRUE(doc.at("ok").as_bool());
    // Members keep document order.
    EXPECT_EQ(doc.members().front().first, "schema_version");
    EXPECT_EQ(doc.members().back().first, "ok");
}

TEST(Json, MalformedInputNamesTheByteOffset) {
    EXPECT_NE(parse_error(R"({"a":1,})").find("at byte 7"), std::string::npos);
    EXPECT_NE(parse_error("[1,2] x").find("trailing characters"), std::string::npos);
    EXPECT_NE(parse_error(R"({"a":"unterminated)").find("unterminated string"),
              std::string::npos);
    EXPECT_THROW((void)json_parse(""), std::runtime_error);
    EXPECT_THROW((void)json_parse(R"({"a":1})").at("b"), std::runtime_error);
}

TEST(Json, AcceptsNestingUpToTheCap) {
    auto v = json_parse(nested_arrays(kJsonMaxDepth));
    for (std::size_t d = 1; d < kJsonMaxDepth; ++d) v = JsonValue(v.items().at(0));
    EXPECT_EQ(v.items().at(0).as_number(), 1.0);
    // Objects count toward the same limit as arrays.
    std::string objects;
    for (std::size_t d = 0; d < kJsonMaxDepth; ++d) objects += R"({"k":)";
    objects += "1" + std::string(kJsonMaxDepth, '}');
    EXPECT_NO_THROW((void)json_parse(objects));
}

TEST(Json, RejectsNestingOneLevelPastTheCap) {
    const auto message = parse_error(nested_arrays(kJsonMaxDepth + 1));
    EXPECT_NE(message.find("nesting deeper than 256 levels"), std::string::npos) << message;
    // The offending bracket is the (cap + 1)-th, at byte offset kJsonMaxDepth.
    EXPECT_NE(message.find("at byte " + std::to_string(kJsonMaxDepth)), std::string::npos)
        << message;
    std::string mixed;
    for (std::size_t d = 0; d <= kJsonMaxDepth; ++d) mixed += d % 2 == 0 ? "[" : R"({"k":)";
    EXPECT_NE(parse_error(mixed).find("nesting deeper"), std::string::npos);
}

TEST(Json, MillionDeepDocumentIsAnErrorNotACrash) {
    const std::string hostile(1'000'000, '[');
    const auto message = parse_error(hostile);
    EXPECT_NE(message.find("nesting deeper than 256 levels at byte 256"), std::string::npos)
        << message;
}

} // namespace
} // namespace lotus::util
