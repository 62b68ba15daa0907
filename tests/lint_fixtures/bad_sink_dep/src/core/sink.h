// Fixture: the sink (batch consumer API) layer reaching up into a consumer
// module. Both the module-DAG check and the dedicated sink-isolation check
// must flag this include; the self-test asserts the "sink isolation"
// wording appears.
#pragma once

#include "service/service.h"

namespace shredder::core {
struct BadSink {};
}  // namespace shredder::core
