// Bad: one waiver missing its reason string, one naming an unknown
// check.
// bitpush-lint: allow(determinism-flow):
// bitpush-lint: allow(bogus-check): exporter is intentionally raw here
namespace bitpush {

constexpr int kUnused = 0;

}  // namespace bitpush
