#include "iep/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <sstream>

#include "iep/op_spec.h"

namespace gepc {

namespace {

Status TraceError(int line, const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " + what);
}

// ParseOpRow cannot read nan or inf back, so SaveOp never writes them.
Status RequireFinite(std::initializer_list<double> values) {
  if (std::all_of(values.begin(), values.end(),
                  [](double v) { return std::isfinite(v); })) {
    return Status::OK();
  }
  return Status::InvalidArgument("op value is not finite");
}

}  // namespace

Status SaveOp(const AtomicOp& op, std::ostream& out) {
  out << std::setprecision(17);
  switch (op.kind) {
    case AtomicOp::Kind::kUpperBoundChanged:
      out << "eta " << op.event << " " << op.new_bound << "\n";
      break;
    case AtomicOp::Kind::kLowerBoundChanged:
      out << "xi " << op.event << " " << op.new_bound << "\n";
      break;
    case AtomicOp::Kind::kTimeChanged:
      out << "time " << op.event << " " << op.new_time.start << " "
          << op.new_time.end << "\n";
      break;
    case AtomicOp::Kind::kLocationChanged:
      GEPC_RETURN_IF_ERROR(
          RequireFinite({op.new_location.x, op.new_location.y}));
      out << "loc " << op.event << " " << op.new_location.x << " "
          << op.new_location.y << "\n";
      break;
    case AtomicOp::Kind::kBudgetChanged:
      GEPC_RETURN_IF_ERROR(RequireFinite({op.new_budget}));
      out << "budget " << op.user << " " << op.new_budget << "\n";
      break;
    case AtomicOp::Kind::kUtilityChanged:
      GEPC_RETURN_IF_ERROR(RequireFinite({op.new_utility}));
      out << "mu " << op.user << " " << op.event << " " << op.new_utility
          << "\n";
      break;
    case AtomicOp::Kind::kNewEvent: {
      GEPC_RETURN_IF_ERROR(RequireFinite({op.new_event.location.x,
                                          op.new_event.location.y,
                                          op.new_event.fee}));
      for (double mu : op.new_event_utilities) {
        GEPC_RETURN_IF_ERROR(RequireFinite({mu}));
      }
      out << "new " << op.new_event.location.x << " "
          << op.new_event.location.y << " " << op.new_event.lower_bound
          << " " << op.new_event.upper_bound << " "
          << op.new_event.time.start << " " << op.new_event.time.end << " "
          << op.new_event.fee;
      for (double mu : op.new_event_utilities) out << " " << mu;
      out << "\n";
      break;
    }
  }
  if (!out) return Status::Internal("write failed");
  return Status::OK();
}

Status SaveOps(const std::vector<AtomicOp>& ops, std::ostream& out) {
  out << "GOPS1\n";
  for (const AtomicOp& op : ops) {
    GEPC_RETURN_IF_ERROR(SaveOp(op, out));
  }
  if (!out) return Status::Internal("write failed");
  return Status::OK();
}

Status SaveOpsToFile(const std::vector<AtomicOp>& ops,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  return SaveOps(ops, out);
}

Result<AtomicOp> ParseOpRow(const std::string& line) {
  std::istringstream row(line);
  std::vector<std::string> fields;
  for (std::string field; row >> field;) fields.push_back(std::move(field));
  return ParseOpFields(fields, line);
}

Result<std::vector<AtomicOp>> LoadOps(std::istream& in) {
  std::string line;
  int line_number = 0;
  bool saw_header = false;
  std::vector<AtomicOp> ops;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line.rfind("GOPS1", 0) != 0) {
        return TraceError(line_number, "expected GOPS1 header");
      }
      saw_header = true;
      continue;
    }
    auto op = ParseOpRow(line);
    if (!op.ok()) return TraceError(line_number, op.status().message());
    ops.push_back(*std::move(op));
  }
  if (!saw_header) return Status::InvalidArgument("missing GOPS1 header");
  return ops;
}

Result<std::vector<AtomicOp>> LoadOpsFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open: " + path);
  return LoadOps(in);
}

}  // namespace gepc
