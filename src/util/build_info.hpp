#pragma once
// Build identity shared by every JSON emitter in the repo.
//
// scenario_json and the telemetry exporters all stamp their documents with
// the same schema version and the git-describe build id, so artifacts can
// be attributed to the commit that produced them and diffed across PRs
// without guessing which emitter wrote what.

#include <string>

namespace lotus::util {

/// Version of the repo's JSON document family. Bump when any emitter
/// changes shape (renamed/removed fields, changed units); additive fields
/// do not require a bump.
inline constexpr int kSchemaVersion = 2;

/// git-describe --always --dirty of the tree this library was configured
/// from; "unknown" when the build ran outside a git checkout.
[[nodiscard]] const char* build_id() noexcept;

/// Pre-rendered object fragment `"schema_version":N,"build":"<id>"` for the
/// repo's hand-rolled JSON emitters (no surrounding braces, no trailing
/// comma).
[[nodiscard]] std::string build_info_json_fields();

} // namespace lotus::util
