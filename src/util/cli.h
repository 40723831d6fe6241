// Shared command-line hygiene for the tools and benches.
//
// Every binary that takes flags must treat an unrecognized one as a HARD
// error with usage text — a silently ignored typo ("--mem-budgte=1g") in a
// script is a mis-run that looks like a result. This tiny helper is the
// single implementation of that policy; mmjoin_cli, real_backend_join,
// mmjoind, mmjoin_client and service_load all route their reject paths
// through it.
#ifndef MMJOIN_UTIL_CLI_H_
#define MMJOIN_UTIL_CLI_H_

#include <string>

namespace mmjoin::cli {

/// Prints "<program>: unknown argument '<arg>'" plus the usage text to
/// stderr and exits 2 — the conventional usage-error status. `--help` and
/// `-h` are not errors: the usage text goes to stdout and the exit is 0.
[[noreturn]] void UnknownFlag(const char* program, const std::string& arg,
                              const char* usage);

/// Prints the same shape for a flag whose VALUE is bad.
[[noreturn]] void BadFlagValue(const char* program, const std::string& arg,
                               const char* usage);

/// True when `arg` starts with "--": positional-only tools use this to
/// reject flag-looking arguments instead of misparsing them as data.
bool IsFlagLike(const char* arg);

}  // namespace mmjoin::cli

#endif  // MMJOIN_UTIL_CLI_H_
