#ifndef BITPUSH_CORE_DEAD_MODULE_H_
#define BITPUSH_CORE_DEAD_MODULE_H_

// A module nothing calls: only its own .cc and a test include this
// header, so header-hygiene flags it once, on line 1.

namespace fixture {

int DeadModuleValue();

}  // namespace fixture

#endif  // BITPUSH_CORE_DEAD_MODULE_H_
