#include "rl/serialize.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lotus::rl {

namespace {

constexpr const char* kMagic = "lotus-mlp v1";
/// Largest layer size a checkpoint may declare. The paper's layers are at
/// most 128 wide; the cap turns a corrupt or hostile header into a clear
/// error instead of a huge allocation.
constexpr std::size_t kMaxDim = 65'536;

void expect_token(std::istream& in, const std::string& expected) {
    std::string token;
    if (!(in >> token) || token != expected) {
        throw std::runtime_error("load_mlp: expected token '" + expected + "', got '" +
                                 token + "'");
    }
}

/// Read one parameter of `section` ("weights" or "bias") of layer `layer`.
/// The end of the input, a token that is not a number and a number outside
/// the finite double range are three different errors.
double read_param(std::istream& in, const char* section, std::size_t layer) {
    const std::string at = " layer " + std::to_string(layer) + " " + section;
    std::string token;
    if (!(in >> token)) throw std::runtime_error("load_mlp: truncated at" + at);
    double v = 0.0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, v);
    if (ptr != end) throw std::runtime_error("load_mlp: malformed number '" + token + "' in" + at);
    if (ec != std::errc{} || !std::isfinite(v)) {
        throw std::runtime_error("load_mlp: number '" + token + "' out of range in" + at);
    }
    return v;
}

MlpConfig read_header(std::istream& in) {
    std::string line;
    std::getline(in, line);
    if (line != kMagic) {
        throw std::runtime_error("load_mlp: bad magic line '" + line + "'");
    }
    MlpConfig cfg;
    expect_token(in, "dims");
    std::size_t n = 0;
    if (!(in >> n) || n < 2 || n > 64) throw std::runtime_error("load_mlp: bad dims count");
    cfg.dims.resize(n);
    for (auto& d : cfg.dims) {
        if (!(in >> d)) throw std::runtime_error("load_mlp: bad dim");
        if (d == 0 || d > kMaxDim) {
            throw std::runtime_error("load_mlp: dim " + std::to_string(d) + " out of range");
        }
    }
    int flag = 0;
    expect_token(in, "slim_input");
    if (!(in >> flag)) throw std::runtime_error("load_mlp: bad slim_input");
    cfg.slim_input = flag != 0;
    expect_token(in, "slim_output");
    if (!(in >> flag)) throw std::runtime_error("load_mlp: bad slim_output");
    cfg.slim_output = flag != 0;
    return cfg;
}

} // namespace

void save_mlp(const SlimmableMlp& net, std::ostream& out) {
    const auto& cfg = net.config();
    out << kMagic << '\n';
    out << "dims " << cfg.dims.size();
    for (const auto d : cfg.dims) out << ' ' << d;
    out << '\n';
    out << "slim_input " << (cfg.slim_input ? 1 : 0) << '\n';
    out << "slim_output " << (cfg.slim_output ? 1 : 0) << '\n';

    out << std::setprecision(17);
    for (std::size_t li = 0; li < net.layers().size(); ++li) {
        const auto& layer = net.layers()[li];
        out << "layer " << li << '\n';
        out << "w";
        for (const double v : layer.weights().flat()) out << ' ' << v;
        out << '\n';
        out << "b";
        for (const double v : layer.bias()) out << ' ' << v;
        out << '\n';
    }
    if (!out) throw std::runtime_error("save_mlp: stream write failed");
}

void save_mlp(const SlimmableMlp& net, const std::string& path) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("save_mlp: cannot open " + path);
    save_mlp(net, out);
}

void load_mlp_into(SlimmableMlp& net, std::istream& in) {
    const auto cfg = read_header(in);
    if (cfg.dims != net.config().dims || cfg.slim_input != net.config().slim_input ||
        cfg.slim_output != net.config().slim_output) {
        throw std::runtime_error("load_mlp_into: topology mismatch");
    }
    for (std::size_t li = 0; li < net.layers().size(); ++li) {
        expect_token(in, "layer");
        std::size_t index = 0;
        if (!(in >> index) || index != li) {
            throw std::runtime_error("load_mlp: layer index mismatch");
        }
        auto& layer = net.layers()[li];
        expect_token(in, "w");
        for (auto& v : layer.weights().flat()) v = read_param(in, "weights", li);
        expect_token(in, "b");
        for (auto& v : layer.bias()) v = read_param(in, "bias", li);
    }
    if (!(in >> std::ws).eof()) {
        throw std::runtime_error("load_mlp: trailing data after layer " +
                                 std::to_string(net.layers().size() - 1));
    }
}

SlimmableMlp load_mlp(std::istream& in) {
    // Peek the header to build the topology, then rewind and fill.
    const auto pos = in.tellg();
    const auto cfg = read_header(in);
    in.seekg(pos);
    SlimmableMlp net(cfg);
    load_mlp_into(net, in);
    return net;
}

SlimmableMlp load_mlp(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("load_mlp: cannot open " + path);
    return load_mlp(in);
}

} // namespace lotus::rl
