#include "tests/temp_path.h"

#include <gtest/gtest.h>

namespace gepc {
namespace testing_support {

std::string TestTempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "_" + name;
}

}  // namespace testing_support
}  // namespace gepc
