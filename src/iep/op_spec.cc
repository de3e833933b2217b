#include "iep/op_spec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

namespace gepc {

namespace {

/// Splits "a:b:c" into fields.
std::vector<std::string> SplitSpec(const std::string& spec) {
  std::vector<std::string> fields;
  size_t begin = 0;
  while (begin <= spec.size()) {
    const size_t colon = spec.find(':', begin);
    if (colon == std::string::npos) {
      fields.push_back(spec.substr(begin));
      break;
    }
    fields.push_back(spec.substr(begin, colon - begin));
    begin = colon + 1;
  }
  return fields;
}

Result<int> ParseIntField(const std::string& spec, const std::string& field) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(field.c_str(), &end, 10);
  if (field.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("op '" + spec + "': '" + field +
                                   "' is not an integer");
  }
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("op '" + spec + "': '" + field +
                                   "' does not fit in an int");
  }
  return static_cast<int>(value);
}

Result<double> ParseDoubleField(const std::string& spec,
                                const std::string& field) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (field.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("op '" + spec + "': '" + field +
                                   "' is not a number");
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("op '" + spec + "': '" + field +
                                   "' is not finite");
  }
  return value;
}

}  // namespace

Result<AtomicOp> ParseOpSpec(const std::string& spec) {
  const std::vector<std::string> f = SplitSpec(spec);
  auto need = [&](size_t n) -> Status {
    if (f.size() != n) {
      return Status::InvalidArgument("op '" + spec + "' needs " +
                                     std::to_string(n - 1) + " fields");
    }
    return Status::OK();
  };
  if (f.empty() || f[0].empty()) {
    return Status::InvalidArgument("empty op spec");
  }
  if (f[0] == "eta") {
    GEPC_RETURN_IF_ERROR(need(3));
    GEPC_ASSIGN_OR_RETURN(const int event, ParseIntField(spec, f[1]));
    GEPC_ASSIGN_OR_RETURN(const int value, ParseIntField(spec, f[2]));
    return AtomicOp::UpperBoundChange(event, value);
  }
  if (f[0] == "xi") {
    GEPC_RETURN_IF_ERROR(need(3));
    GEPC_ASSIGN_OR_RETURN(const int event, ParseIntField(spec, f[1]));
    GEPC_ASSIGN_OR_RETURN(const int value, ParseIntField(spec, f[2]));
    return AtomicOp::LowerBoundChange(event, value);
  }
  if (f[0] == "time") {
    GEPC_RETURN_IF_ERROR(need(4));
    GEPC_ASSIGN_OR_RETURN(const int event, ParseIntField(spec, f[1]));
    GEPC_ASSIGN_OR_RETURN(const int start, ParseIntField(spec, f[2]));
    GEPC_ASSIGN_OR_RETURN(const int end, ParseIntField(spec, f[3]));
    return AtomicOp::TimeChange(event, {start, end});
  }
  if (f[0] == "budget") {
    GEPC_RETURN_IF_ERROR(need(3));
    GEPC_ASSIGN_OR_RETURN(const int user, ParseIntField(spec, f[1]));
    GEPC_ASSIGN_OR_RETURN(const double value, ParseDoubleField(spec, f[2]));
    return AtomicOp::BudgetChange(user, value);
  }
  if (f[0] == "mu") {
    GEPC_RETURN_IF_ERROR(need(4));
    GEPC_ASSIGN_OR_RETURN(const int user, ParseIntField(spec, f[1]));
    GEPC_ASSIGN_OR_RETURN(const int event, ParseIntField(spec, f[2]));
    GEPC_ASSIGN_OR_RETURN(const double value, ParseDoubleField(spec, f[3]));
    return AtomicOp::UtilityChange(user, event, value);
  }
  if (f[0] == "loc") {
    GEPC_RETURN_IF_ERROR(need(4));
    GEPC_ASSIGN_OR_RETURN(const int event, ParseIntField(spec, f[1]));
    GEPC_ASSIGN_OR_RETURN(const double x, ParseDoubleField(spec, f[2]));
    GEPC_ASSIGN_OR_RETURN(const double y, ParseDoubleField(spec, f[3]));
    return AtomicOp::LocationChange(event, {x, y});
  }
  return Status::InvalidArgument("unknown op kind '" + f[0] + "'");
}

}  // namespace gepc
