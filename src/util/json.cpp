#include "util/json.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

namespace lotus::util {

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
    throw std::runtime_error(std::string("JsonValue: expected ") + want +
                             ", held type " +
                             std::to_string(static_cast<int>(got)));
}

} // namespace

bool JsonValue::as_bool() const {
    if (type_ != Type::boolean) type_error("boolean", type_);
    return bool_;
}

double JsonValue::as_number() const {
    if (type_ != Type::number) type_error("number", type_);
    return number_;
}

const std::string& JsonValue::as_string() const {
    if (type_ != Type::string) type_error("string", type_);
    return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
    if (type_ != Type::array) type_error("array", type_);
    return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
    if (type_ != Type::object) type_error("object", type_);
    return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
    if (type_ != Type::object) return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key) return &v;
    }
    return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
    const auto* v = find(key);
    if (!v) throw std::runtime_error("JsonValue: missing key '" + key + "'");
    return *v;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
    const auto* v = find(key);
    if (!v || v->is_null()) return fallback;
    return v->as_number();
}

// --- parser ------------------------------------------------------------------

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonValue parse_document() {
        auto v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json: " + what + " at byte " +
                                 std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    void expect_literal(const char* lit) {
        for (const char* p = lit; *p != '\0'; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p) {
                fail(std::string("expected literal '") + lit + "'");
            }
            ++pos_;
        }
    }

    JsonValue parse_value() {
        skip_ws();
        switch (peek()) {
            case '{':
            case '[': {
                // Bound the recursion before it can exhaust the stack.
                if (++depth_ > kJsonMaxDepth) {
                    fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
                         " levels");
                }
                auto v = peek() == '{' ? parse_object() : parse_array();
                --depth_;
                return v;
            }
            case '"': {
                JsonValue v;
                v.type_ = JsonValue::Type::string;
                v.string_ = parse_string();
                return v;
            }
            case 't': {
                expect_literal("true");
                JsonValue v;
                v.type_ = JsonValue::Type::boolean;
                v.bool_ = true;
                return v;
            }
            case 'f': {
                expect_literal("false");
                JsonValue v;
                v.type_ = JsonValue::Type::boolean;
                v.bool_ = false;
                return v;
            }
            case 'n': {
                expect_literal("null");
                return JsonValue{};
            }
            default: return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue v;
        v.type_ = JsonValue::Type::object;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skip_ws();
            auto key = parse_string();
            skip_ws();
            expect(':');
            v.members_.emplace_back(std::move(key), parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue v;
        v.type_ = JsonValue::Type::array;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items_.push_back(parse_value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': append_unicode_escape(out); break;
                default: fail("bad escape");
            }
        }
    }

    unsigned parse_hex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            value <<= 4U;
            if (c >= '0' && c <= '9') {
                value |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                value |= static_cast<unsigned>(c - 'a') + 10U;
            } else if (c >= 'A' && c <= 'F') {
                value |= static_cast<unsigned>(c - 'A') + 10U;
            } else {
                fail("bad \\u escape");
            }
        }
        return value;
    }

    void append_unicode_escape(std::string& out) {
        unsigned cp = parse_hex4();
        if (cp >= 0xD800U && cp <= 0xDBFFU) {
            // High surrogate: consume the paired low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
                fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00U || low > 0xDFFFU) fail("unpaired surrogate");
            cp = 0x10000U + ((cp - 0xD800U) << 10U) + (low - 0xDC00U);
        } else if (cp >= 0xDC00U && cp <= 0xDFFFU) {
            fail("unpaired surrogate");
        }
        // UTF-8 encode.
        if (cp < 0x80U) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800U) {
            out.push_back(static_cast<char>(0xC0U | (cp >> 6U)));
            out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        } else if (cp < 0x10000U) {
            out.push_back(static_cast<char>(0xE0U | (cp >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((cp >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        } else {
            out.push_back(static_cast<char>(0xF0U | (cp >> 18U)));
            out.push_back(static_cast<char>(0x80U | ((cp >> 12U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | ((cp >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        }
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
                c == '+' || c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) fail("expected value");
        double value = 0.0;
        // Locale-free parse; from_chars accepts exactly the JSON grammar's
        // number productions (plus a few more we never emit).
        const auto* first = text_.data() + start;
        const auto* last = text_.data() + pos_;
        const auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc{} || end != last) {
            pos_ = start;
            fail("bad number");
        }
        JsonValue v;
        v.type_ = JsonValue::Type::number;
        v.number_ = value;
        return v;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< open arrays/objects around pos_
};

JsonValue json_parse(const std::string& text) {
    return JsonParser(text).parse_document();
}

JsonValue json_parse_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("json: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return json_parse(buf.str());
}

} // namespace lotus::util
