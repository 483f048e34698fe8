// A program outside the scanned tree that includes every other fixture
// header under src/, so each demonstrates only its own finding and
// core/dead_module.h is the one header nothing calls. Includes from
// examples/ count as callers.

#include "core/missing_include.h"
#include "core/using_ns.h"
#include "core/wrong_guard.h"
#include "federated/shard/merge.h"
#include "persist/journal.h"

int main() { return 0; }
