#ifndef GEPC_IEP_TRACE_H_
#define GEPC_IEP_TRACE_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "iep/planner.h"

namespace gepc {

/// Text serialization for streams of atomic operations ("GOPS1"): lets a
/// production system log every change it absorbed and lets tests/tools
/// replay a day of drift deterministically.
///
///   GOPS1
///   eta <event> <value>
///   xi <event> <value>
///   time <event> <start> <end>
///   loc <event> <x> <y>
///   budget <user> <value>
///   mu <user> <event> <value>
///   new <x> <y> <xi> <eta> <start> <end> <fee> <mu_0> ... <mu_{n-1}>
///
/// Comments (#) and blank lines are ignored. A `new` row carries one
/// utility per user of the instance it will be applied to.
Status SaveOps(const std::vector<AtomicOp>& ops, std::ostream& out);

/// Writes the single row for `op` (no header) — the append primitive the
/// service journal uses so a trace can grow one accepted operation at a
/// time. Doubles are written with 17 significant digits so rows round-trip
/// byte-identically.
Status SaveOp(const AtomicOp& op, std::ostream& out);
Status SaveOpsToFile(const std::vector<AtomicOp>& ops,
                     const std::string& path);

Result<std::vector<AtomicOp>> LoadOps(std::istream& in);
Result<std::vector<AtomicOp>> LoadOpsFromFile(const std::string& path);

/// Parses a single op row (one line, no header, no trailing newline) —
/// the primitive LoadOps, the journal's crash-tolerant scanner and the
/// replication tail share. Fields are whitespace-separated and follow
/// ParseOpFields' strict grammar (iep/op_spec.h); returns kInvalidArgument
/// on anything that is not a well-formed row.
Result<AtomicOp> ParseOpRow(const std::string& line);

}  // namespace gepc

#endif  // GEPC_IEP_TRACE_H_
