#ifndef LAMBADA_CORE_WORKER_H_
#define LAMBADA_CORE_WORKER_H_

#include "cloud/faas.h"

namespace lambada::core {

/// Builds the Lambda event handler of a Lambada worker (Section 3.3):
/// it parses the invocation payload, invokes second-generation workers of
/// the invocation tree (Section 4.2), fetches the plan fragment from S3,
/// executes it (scan -> pipeline -> exchange rounds -> join / partial
/// aggregation), and posts the result — or the error — to the result
/// queue in SQS.
cloud::Handler MakeWorkerHandler();

}  // namespace lambada::core

#endif  // LAMBADA_CORE_WORKER_H_
