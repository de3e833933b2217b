#include "iep/op_spec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

namespace gepc {

namespace {

Status FieldError(const std::string& text, const std::string& field,
                  const char* problem) {
  return Status::InvalidArgument("op '" + text + "': '" + field + "' " +
                                 problem);
}

Result<int> ParseIntField(const std::string& text, const std::string& field) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(field.c_str(), &end, 10);
  if (field.empty() || end != field.c_str() + field.size()) {
    return FieldError(text, field, "is not an integer");
  }
  if (errno == ERANGE || value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return FieldError(text, field, "does not fit in an int");
  }
  return static_cast<int>(value);
}

Result<double> ParseDoubleField(const std::string& text,
                                const std::string& field) {
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size()) {
    return FieldError(text, field, "is not a number");
  }
  if (!std::isfinite(value)) return FieldError(text, field, "is not finite");
  return value;
}

}  // namespace

Result<AtomicOp> ParseOpFields(const std::vector<std::string>& f,
                               const std::string& text) {
  // Exactly `n` fields; `new` takes at least `n`, one utility per user.
  auto need = [&](size_t n) -> Status {
    if (f[0] == "new" ? f.size() >= n : f.size() == n) return Status::OK();
    return Status::InvalidArgument("op '" + text + "' needs " +
                                   std::to_string(n - 1) + " fields");
  };
  auto int_at = [&](size_t i) { return ParseIntField(text, f[i]); };
  auto double_at = [&](size_t i) { return ParseDoubleField(text, f[i]); };
  if (f.empty() || f[0].empty()) {
    return Status::InvalidArgument("empty op");
  }
  if (f[0] == "eta" || f[0] == "xi") {
    GEPC_RETURN_IF_ERROR(need(3));
    GEPC_ASSIGN_OR_RETURN(const int event, int_at(1));
    GEPC_ASSIGN_OR_RETURN(const int value, int_at(2));
    return f[0] == "eta" ? AtomicOp::UpperBoundChange(event, value)
                         : AtomicOp::LowerBoundChange(event, value);
  }
  if (f[0] == "time") {
    GEPC_RETURN_IF_ERROR(need(4));
    GEPC_ASSIGN_OR_RETURN(const int event, int_at(1));
    GEPC_ASSIGN_OR_RETURN(const int start, int_at(2));
    GEPC_ASSIGN_OR_RETURN(const int end, int_at(3));
    return AtomicOp::TimeChange(event, {start, end});
  }
  if (f[0] == "budget") {
    GEPC_RETURN_IF_ERROR(need(3));
    GEPC_ASSIGN_OR_RETURN(const int user, int_at(1));
    GEPC_ASSIGN_OR_RETURN(const double value, double_at(2));
    return AtomicOp::BudgetChange(user, value);
  }
  if (f[0] == "mu") {
    GEPC_RETURN_IF_ERROR(need(4));
    GEPC_ASSIGN_OR_RETURN(const int user, int_at(1));
    GEPC_ASSIGN_OR_RETURN(const int event, int_at(2));
    GEPC_ASSIGN_OR_RETURN(const double value, double_at(3));
    return AtomicOp::UtilityChange(user, event, value);
  }
  if (f[0] == "loc") {
    GEPC_RETURN_IF_ERROR(need(4));
    GEPC_ASSIGN_OR_RETURN(const int event, int_at(1));
    GEPC_ASSIGN_OR_RETURN(const double x, double_at(2));
    GEPC_ASSIGN_OR_RETURN(const double y, double_at(3));
    return AtomicOp::LocationChange(event, {x, y});
  }
  if (f[0] == "new") {
    GEPC_RETURN_IF_ERROR(need(8));
    Event fresh;
    GEPC_ASSIGN_OR_RETURN(fresh.location.x, double_at(1));
    GEPC_ASSIGN_OR_RETURN(fresh.location.y, double_at(2));
    GEPC_ASSIGN_OR_RETURN(fresh.lower_bound, int_at(3));
    GEPC_ASSIGN_OR_RETURN(fresh.upper_bound, int_at(4));
    GEPC_ASSIGN_OR_RETURN(fresh.time.start, int_at(5));
    GEPC_ASSIGN_OR_RETURN(fresh.time.end, int_at(6));
    GEPC_ASSIGN_OR_RETURN(fresh.fee, double_at(7));
    std::vector<double> utilities;
    for (size_t i = 8; i < f.size(); ++i) {
      GEPC_ASSIGN_OR_RETURN(const double mu, double_at(i));
      utilities.push_back(mu);
    }
    return AtomicOp::NewEvent(fresh, std::move(utilities));
  }
  return Status::InvalidArgument("unknown op kind '" + f[0] + "'");
}

Result<AtomicOp> ParseOpSpec(const std::string& spec) {
  std::vector<std::string> fields;
  std::istringstream in(spec);
  for (std::string field; std::getline(in, field, ':');) {
    fields.push_back(std::move(field));
  }
  if (!spec.empty() && spec.back() == ':') fields.emplace_back();
  if (!fields.empty() && fields[0] == "new") {
    return Status::InvalidArgument(
        "the new op has no compact spec; feed it through a GOPS1 trace");
  }
  return ParseOpFields(fields, spec);
}

}  // namespace gepc
