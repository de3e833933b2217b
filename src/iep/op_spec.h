#ifndef GEPC_IEP_OP_SPEC_H_
#define GEPC_IEP_OP_SPEC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "iep/planner.h"

namespace gepc {

/// Parses the compact colon-separated atomic-op spec shared by the
/// `gepc_cli apply --op` flag and the `gepc_serve` JSONL protocol:
///
///   eta:EVENT:VALUE     xi:EVENT:VALUE       time:EVENT:START:END
///   budget:USER:VALUE   mu:USER:EVENT:VALUE  loc:EVENT:X:Y
///
/// Returns kInvalidArgument on an unknown kind, wrong field count, or a
/// non-numeric field. (The `new` op carries a per-user utility column and
/// has no compact spec; feed it through a GOPS1 trace instead.)
Result<AtomicOp> ParseOpSpec(const std::string& spec);

/// The one field grammar behind ParseOpSpec and the GOPS1 row parser
/// (iep/trace.h): `fields[0]` is the kind, every number must parse whole
/// (ints fit an int, doubles are finite) and extra fields are errors. It
/// also reads `new X Y XI ETA START END FEE MU_0 ... MU_{n-1}`. `text` is
/// the original input, quoted in error messages.
Result<AtomicOp> ParseOpFields(const std::vector<std::string>& fields,
                               const std::string& text);

}  // namespace gepc

#endif  // GEPC_IEP_OP_SPEC_H_
