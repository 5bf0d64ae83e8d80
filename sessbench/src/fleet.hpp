#pragma once

// The `fleet` workload's server settings, shared by the load generator
// (which passes them to `qdd-tool serve`) and the in-process replay (which
// builds its Api with the same ones).

#include <cstddef>

namespace sessbench::fleet {

/// Live sessions kept by the workload.
inline constexpr std::size_t kSessions = 64;
/// `--spill-budget`: sessions allowed to hold a live DD package.
inline constexpr std::size_t kBudget = 8;
/// `--max-sessions`: room for the pool plus the one being replaced.
inline constexpr std::size_t kMaxSessions = 4 * kSessions;

} // namespace sessbench::fleet
