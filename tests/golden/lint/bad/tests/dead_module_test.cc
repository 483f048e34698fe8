// A test of the dead module: tests/ includers do not count as callers.

#include "core/dead_module.h"

namespace fixture {

int CheckDeadModule() { return DeadModuleValue() == 7 ? 0 : 1; }

}  // namespace fixture
