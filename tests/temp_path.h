#ifndef GEPC_TESTS_TEMP_PATH_H_
#define GEPC_TESTS_TEMP_PATH_H_

#include <string>

namespace gepc {
namespace testing_support {

/// `name` under the gtest temp directory, prefixed with the running test's
/// suite and test name. ctest runs every discovered case as its own
/// process in parallel, so fixed file names would collide across cases.
std::string TestTempPath(const std::string& name);

}  // namespace testing_support
}  // namespace gepc

#endif  // GEPC_TESTS_TEMP_PATH_H_
