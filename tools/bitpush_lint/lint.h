// Project-invariant static analysis for the bitpush tree.
//
// The repository carries three machine-checkable contracts that ordinary
// compilers cannot see: seeded determinism (crash-recovered campaigns must
// replay byte-identically — docs/PERSISTENCE.md), bit-level privacy
// metering (no client bit is disclosed without a PrivacyMeter charge, and
// only its perturbed value leaves the client — paper §1.1,
// core/privacy_meter.h), and wire/journal format exhaustiveness (every
// record type must encode, decode, and be fuzzed — federated/wire.h,
// persist/journal.h). `bitpush_lint` enforces them as named checks over
// src/, tests/, bench/, and tools/, with no compiler dependency, so the
// invariants fail a PR at lint time instead of depending on reviewer
// memory. One run lexes the tree once and builds one cross-TU declaration
// index (tools/analysis_core) that the two dataflow families walk.
//
// Checks (see docs/STATIC_ANALYSIS.md for the full catalogue):
//
//   determinism         bans ambient-entropy and wall-clock constructs
//                       (std::random_device, std::rand, time(),
//                       system_clock/steady_clock, std RNG engines)
//                       outside the wall-clock allowlist, and SplitMix64
//                       constants outside src/rng/ (keyed draws come
//                       from rng/keyed.h, not a private mixer).
//   privacy-metering    a TU that serializes or constructs client bit
//                       reports must reference the PrivacyMeter charge
//                       path (TryChargeBit) or carry a waiver.
//   wire-exhaustiveness every frame-kind enumerator and Encode/Decode
//                       message pair declared in federated/wire.h,
//                       persist/journal.h, and federated/shard/merge.h
//                       must be referenced by the library and exercised
//                       by a fuzz or golden test; wire-section version
//                       constants (k*Version) must gate a codec path in
//                       src/ and be named by a fuzz/golden case that
//                       proves fail-closed decoding.
//   obs-stability       files allowed to touch wall clocks may not
//                       register Determinism::kStable instruments.
//   header-hygiene      canonical include guards, no `using namespace`
//                       in headers, direct includes for std vocabulary
//                       types (self-containment), SIMD intrinsics
//                       headers (<immintrin.h>, <arm_neon.h>, ...)
//                       confined to src/kernels/, and no src/ header
//                       that nothing outside its own .cc and tests/
//                       includes (src/, bench/, examples/, tools/,
//                       perfbench/ searched).
//   privacy-taint       (dataflow) every disclosed client bit must flow
//                       through randomized-response perturbation before
//                       reaching a wire / journal / obs sink. Sources are
//                       client-value encodes and raw bit reads
//                       (SelectValue, FixedPointCodec::Bit, codec
//                       Encode/EncodeAll, BuildReportBatch); sanitizers
//                       are the perturbation points (RandomizedResponse::
//                       Apply/ApplyToWords, PerturbBatch, DrawFlip,
//                       secure-agg masking); sinks are wire encoders,
//                       journal record codecs and appends, and obs event
//                       emission/export. A source->sink path with no
//                       sanitizer between is a finding, with the call
//                       chain printed. A function that both charges the
//                       meter (TryChargeBit) and discloses must charge
//                       first.
//   determinism-flow    (dataflow) every Rng must descend from the seeded
//                       fork roots (docs/PERSISTENCE.md,
//                       docs/SHARDING.md): flags Rng constructions whose
//                       seed expression references no seed/fork lineage,
//                       random draws inside kernel code (src/kernels/,
//                       except the sanctioned scalar source shared.cc),
//                       and reuse of an RNG stream across a replay
//                       boundary (Restart/recovery) without reseeding.
//
// The five token-level families report over all four roots; the two
// dataflow families report for src/ only (the other roots are harnesses,
// but their definitions still feed the call graph).
//
// Any finding can be suppressed with an annotated waiver comment
// `bitpush-lint: allow(<check>): <reason>` inside a // comment. A waiver
// covers its own line and the next; privacy-metering and privacy-taint
// waivers are file-scoped because both are whole-TU properties. The reason
// is mandatory; waivers are counted and printed as a budget so reviewers
// can watch it. Malformed waivers are themselves findings (check name
// "waiver-syntax").

#ifndef BITPUSH_TOOLS_BITPUSH_LINT_LINT_H_
#define BITPUSH_TOOLS_BITPUSH_LINT_LINT_H_

#include <string>
#include <vector>

namespace bitpush::lint {

enum class Check {
  kDeterminism,
  kPrivacyMetering,
  kWireExhaustiveness,
  kObsStability,
  kHeaderHygiene,
  kPrivacyTaint,
  kDeterminismFlow,
  // Malformed or unknown `bitpush-lint:` annotations. Always enabled; not
  // a check family of its own, it polices the waiver syntax itself.
  kWaiverSyntax,
};

// Canonical check name as used in waiver comments and --checks.
std::string CheckName(Check check);
// Returns true and sets *out when `name` is a known check name.
bool ParseCheckName(const std::string& name, Check* out);

struct Finding {
  std::string path;  // Relative to the lint root.
  int line = 0;      // 1-based.
  Check check = Check::kDeterminism;
  std::string message;
};

struct Waiver {
  std::string path;
  int line = 0;
  Check check = Check::kDeterminism;
  std::string reason;
};

struct Options {
  // Empty means every check family. "waiver-syntax" is always enabled.
  std::vector<Check> checks;
  // Apply mechanical fixes (include guards, waiver normalization) in
  // place; fixed files are listed in Result::fixed_paths and findings are
  // re-computed on the fixed text.
  bool fix = false;
};

struct Result {
  std::vector<Finding> findings;    // Unsuppressed violations.
  std::vector<Waiver> waivers;      // The waiver budget actually in use.
  std::vector<std::string> fixed_paths;
  int files_scanned = 0;
  int functions_indexed = 0;
  bool io_error = false;
  std::string io_error_message;
};

// Lints every *.h / *.cc under <root>/{src,tests,bench,tools}. Directories
// named "golden" are skipped: they hold fixture snippets (including the
// deliberately-broken inputs of tests/golden/lint/) that must not count
// against the real tree. `root` must contain at least one of the four
// directories.
Result RunLint(const std::string& root, const Options& options);

// One "path:line: [check] message" line per finding, sorted by path then
// line, followed by a one-line summary with the waiver budget and index
// size.
std::string FormatReport(const Result& result);

// One line per waiver: "path:line: allow(check): reason".
std::string FormatWaiverReport(const Result& result);

}  // namespace bitpush::lint

#endif  // BITPUSH_TOOLS_BITPUSH_LINT_LINT_H_
