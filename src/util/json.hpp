#pragma once
// Minimal JSON reader for the repo's own artifacts (health.json,
// rollup.json, manifest.json). The repo takes no JSON dependency: emission
// is hand-rolled fragments (telemetry::jnum/jstr), and this is the
// matching hand-rolled recursive-descent parser for the tools that read
// the artifacts back (lotus_inspect).
//
// Deliberately small: doubles for all numbers (every number the emitters
// write fits), objects as insertion-ordered key/value vectors (iteration
// order is the document order, deterministic by construction), errors as
// std::runtime_error with a byte offset. Not a general-purpose validator
// -- it accepts exactly RFC 8259 JSON and nothing more, nested at most
// kJsonMaxDepth arrays/objects deep (the repo's artifacts nest <= 6), so a
// hostile file cannot overflow the parser's stack.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lotus::util {

/// Deepest array/object nesting json_parse accepts.
inline constexpr std::size_t kJsonMaxDepth = 256;

class JsonValue {
public:
    enum class Type { null, boolean, number, string, array, object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    [[nodiscard]] Type type() const noexcept { return type_; }
    [[nodiscard]] bool is_null() const noexcept { return type_ == Type::null; }

    /// Typed accessors throw std::runtime_error on a type mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<JsonValue>& items() const;
    [[nodiscard]] const std::vector<Member>& members() const;

    /// Object lookup: nullptr when absent (or not an object).
    [[nodiscard]] const JsonValue* find(const std::string& key) const;
    /// Object lookup that throws std::runtime_error when absent.
    [[nodiscard]] const JsonValue& at(const std::string& key) const;
    /// `at(key).as_number()`, but null (how the emitters spell NaN/inf)
    /// and absence degrade to `fallback`.
    [[nodiscard]] double number_or(const std::string& key, double fallback) const;

private:
    friend class JsonParser;

    Type type_ = Type::null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<Member> members_;
};

/// Parse one JSON document (throws std::runtime_error with a byte offset
/// on malformed input, including trailing garbage and nesting deeper than
/// kJsonMaxDepth).
[[nodiscard]] JsonValue json_parse(const std::string& text);

/// json_parse over a whole file (throws on unreadable path).
[[nodiscard]] JsonValue json_parse_file(const std::string& path);

} // namespace lotus::util
