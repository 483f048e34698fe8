// The two cross-TU dataflow check families of bitpush_lint
// (privacy-taint, determinism-flow; see lint.h for the catalogue). Both
// walk the declaration index RunLint builds once per run and report
// findings for src/ files only.

#ifndef BITPUSH_TOOLS_BITPUSH_LINT_DATAFLOW_H_
#define BITPUSH_TOOLS_BITPUSH_LINT_DATAFLOW_H_

#include <vector>

#include "analysis_core/index.h"
#include "bitpush_lint/lint.h"

namespace bitpush::lint {

// Appends Check::kPrivacyTaint findings: source->sink paths with no
// sanitizer in between (with the call chain in the message), and
// disclosures that precede the privacy-meter charge.
void RunPrivacyTaint(const analysis::Index& index,
                     std::vector<Finding>* findings);

// Appends Check::kDeterminismFlow findings: Rng constructions with no seed
// lineage, draws inside kernel code, and streams reused across a replay
// boundary without reseeding.
void RunDeterminismFlow(const analysis::Index& index,
                        std::vector<Finding>* findings);

}  // namespace bitpush::lint

#endif  // BITPUSH_TOOLS_BITPUSH_LINT_DATAFLOW_H_
