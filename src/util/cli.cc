#include "util/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mmjoin::cli {

[[noreturn]] void UnknownFlag(const char* program, const std::string& arg,
                              const char* usage) {
  if (arg == "--help" || arg == "-h") {
    std::fputs(usage, stdout);
    std::exit(0);
  }
  std::fprintf(stderr, "%s: unknown argument '%s'\n\n%s", program,
               arg.c_str(), usage);
  std::exit(2);
}

[[noreturn]] void BadFlagValue(const char* program, const std::string& arg,
                               const char* usage) {
  std::fprintf(stderr, "%s: bad value in '%s'\n\n%s", program, arg.c_str(),
               usage);
  std::exit(2);
}

bool IsFlagLike(const char* arg) {
  return std::strncmp(arg, "--", 2) == 0;
}

}  // namespace mmjoin::cli
