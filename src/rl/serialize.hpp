#pragma once
// Q-network checkpointing: train once (the paper's 10,000-iteration budget),
// deploy many times. The format is a small line-oriented text file:
//
//   lotus-mlp v1
//   dims <n> d0 d1 ... dn-1
//   slim_input <0|1>
//   slim_output <0|1>
//   layer <index>
//   w <out*in doubles, row-major, max-precision>
//   b <out doubles>
//   ...
//
// Text keeps checkpoints diffable and platform-independent; the networks are
// a few thousand parameters, so file size is irrelevant.

#include <iosfwd>
#include <string>

#include "rl/mlp.hpp"

namespace lotus::rl {

/// Write the network (topology + parameters) to a stream/file.
void save_mlp(const SlimmableMlp& net, std::ostream& out);
void save_mlp(const SlimmableMlp& net, const std::string& path);

/// Load a network saved by save_mlp. The returned network reproduces the
/// saved forward function exactly (bit-identical doubles). Throws
/// std::runtime_error with a message naming the problem on a bad header, a
/// truncated, malformed or out-of-range (non-finite) parameter, or any
/// non-whitespace after the last layer.
[[nodiscard]] SlimmableMlp load_mlp(std::istream& in);
[[nodiscard]] SlimmableMlp load_mlp(const std::string& path);

/// Load parameters into an existing network; throws on topology mismatch.
void load_mlp_into(SlimmableMlp& net, std::istream& in);

} // namespace lotus::rl
