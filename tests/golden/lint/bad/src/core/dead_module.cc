// The dead module's own implementation: not a caller.

#include "core/dead_module.h"

namespace fixture {

int DeadModuleValue() { return 7; }

}  // namespace fixture
