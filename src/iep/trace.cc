#include "iep/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <sstream>

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
  std::string kind;
  row >> kind;
  if (kind == "eta" || kind == "xi") {
    int event = -1;
    int value = 0;
    row >> event >> value;
    if (row.fail()) return Status::InvalidArgument("bad " + kind + " row");
    return kind == "eta" ? AtomicOp::UpperBoundChange(event, value)
                         : AtomicOp::LowerBoundChange(event, value);
  } else if (kind == "time") {
    int event = -1;
    Interval time;
    row >> event >> time.start >> time.end;
    if (row.fail()) return Status::InvalidArgument("bad time row");
    return AtomicOp::TimeChange(event, time);
  } else if (kind == "loc") {
    int event = -1;
    Point location;
    row >> event >> location.x >> location.y;
    if (row.fail()) return Status::InvalidArgument("bad loc row");
    return AtomicOp::LocationChange(event, location);
  } else if (kind == "budget") {
    int user = -1;
    double budget = 0.0;
    row >> user >> budget;
    if (row.fail()) return Status::InvalidArgument("bad budget row");
    return AtomicOp::BudgetChange(user, budget);
  } else if (kind == "mu") {
    int user = -1;
    int event = -1;
    double mu = 0.0;
    row >> user >> event >> mu;
    if (row.fail()) return Status::InvalidArgument("bad mu row");
    return AtomicOp::UtilityChange(user, event, mu);
  } else if (kind == "new") {
    Event fresh;
    row >> fresh.location.x >> fresh.location.y >> fresh.lower_bound >>
        fresh.upper_bound >> fresh.time.start >> fresh.time.end >> fresh.fee;
    if (row.fail()) return Status::InvalidArgument("bad new-event row");
    std::vector<double> utilities;
    double mu = 0.0;
    while (row >> mu) utilities.push_back(mu);
    return AtomicOp::NewEvent(fresh, std::move(utilities));
  }
  return Status::InvalidArgument("unknown op kind '" + kind + "'");
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
