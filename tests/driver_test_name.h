// Names parameterized gtest cases after join drivers. gtest names must be
// identifiers, so "hybrid-hash" becomes "hybrid_hash"; a join::DriverSpec
// parameter prints as its driver name.
#ifndef MMJOIN_TESTS_DRIVER_TEST_NAME_H_
#define MMJOIN_TESTS_DRIVER_TEST_NAME_H_

#include <algorithm>
#include <ostream>
#include <string>

#include "join/drivers.h"

namespace mmjoin {

inline std::string DriverTestName(join::Algorithm a) {
  std::string name = join::AlgorithmName(a);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

namespace join {
inline void PrintTo(const DriverSpec& driver, std::ostream* os) {
  *os << driver.name;
}
}  // namespace join

}  // namespace mmjoin

#endif  // MMJOIN_TESTS_DRIVER_TEST_NAME_H_
