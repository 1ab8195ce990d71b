#include "obs/alloc.h"

namespace wave::obs::internal {

constinit thread_local AllocStats* tls_alloc_sink = nullptr;

}  // namespace wave::obs::internal
