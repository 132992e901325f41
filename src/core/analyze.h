#ifndef LAMBADA_CORE_ANALYZE_H_
#define LAMBADA_CORE_ANALYZE_H_

#include <string>

#include "core/driver.h"
#include "core/optimizer.h"

namespace lambada::core {

/// EXPLAIN ANALYZE: the optimizer's deterministic plan rendering
/// (PhysicalQuery::explain_text) re-emitted with an "actual:" annotation
/// under every operator line, reporting what the fleet really did — rows,
/// modeled bytes, exchange traffic per exchange instance, invocation
/// attempts — followed by a totals footer listing the merged fleet metric
/// registry. Virtual-time-per-operator annotations come from the query's
/// trace and appear only when the run was traced
/// (RunOptions::trace.enabled); everything else is derived from
/// QueryReport::fleet_metrics and is always present.
///
/// The rendering is deterministic: a fixed (workload, seed) produces
/// byte-identical text across runs, so goldens can assert on it.
/// Driver::Run fills QueryReport::explain_analyze_text with this; the SQL
/// frontend's "EXPLAIN ANALYZE <query>" surfaces it.
std::string RenderExplainAnalyze(const PhysicalQuery& physical,
                                 const QueryReport& report);

}  // namespace lambada::core

#endif  // LAMBADA_CORE_ANALYZE_H_
