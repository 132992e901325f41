#ifndef LAMBADA_CORE_WORKER_H_
#define LAMBADA_CORE_WORKER_H_

#include "cloud/faas.h"
#include "exec/exec_context.h"

namespace lambada::core {

/// Builds the Lambda event handler of a Lambada worker (Section 3.3):
/// it parses the invocation payload, invokes second-generation workers of
/// the invocation tree (Section 4.2), fetches the plan fragment from S3,
/// executes it (scan -> pipeline -> exchange rounds -> join / partial
/// aggregation), and posts the result — or the error — to the result
/// queue in SQS.
///
/// `exec` configures the worker-local morsel runtime (host-side like
/// data_scale: it never travels in payloads). No setting changes result
/// bytes or the virtual-time schedule.
cloud::Handler MakeWorkerHandler(exec::ExecContext exec = {});

}  // namespace lambada::core

#endif  // LAMBADA_CORE_WORKER_H_
