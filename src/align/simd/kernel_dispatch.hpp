// Runtime-dispatched SIMD kernels for the step-2 hot path.
//
// The step-2 scan spends its time in two-sided ungapped extension, whose
// inner loop is "walk identical concrete bases until the first mismatch".
// That primitive vectorizes cleanly (compare 32 code bytes, movemask,
// count zeros — see kernels.hpp), while the x-drop scoring and the ORIS
// order-abort bookkeeping stay scalar and only run once per *match-run
// boundary* instead of once per character.  The walk (align/ungapped.hpp)
// matches each run's first few characters inline and calls a kernel only
// for a run that is still matching after them, so the many runs that end
// at once never pay for the indirect call.
//
// Selection happens at runtime so one binary serves every x86 machine
// (and non-x86 builds fall back to scalar at compile time):
//
//   dispatch()        — the best kernel this CPU supports, unless the
//                       SCORIS_FORCE_SCALAR environment variable is set
//                       to anything but "" or "0" (read once per process);
//   kernel(k)         — a specific kernel, for differential tests and
//                       benchmarks (throws when the CPU lacks it);
//   select(force)     — dispatch(), or the scalar kernel when `force`
//                       (the Options::force_scalar_kernel knob).
//
// The invariant the whole layer is built on: every kernel produces
// IDENTICAL results — same HSPs, same order-abort decisions, hence
// byte-identical m8 output.  tests/simd_test.cpp enforces this
// differentially, and CI diffs a forced-scalar run against the
// dispatched run across the determinism matrix.
#pragma once

#include <cstddef>
#include <string>

#include "seqio/nucleotide.hpp"

namespace scoris::align::simd {

/// The values are what the scoris_simd_kernel_level gauge reports, so they
/// stay fixed; 1 is unassigned.
enum class Kernel { kScalar = 0, kAvx2 = 2 };

/// One kernel's entry points (see kernels.hpp for the exact semantics
/// and the bounds contract).  References returned by the dispatch layer
/// point at immutable static storage and stay valid forever.
struct KernelOps {
  Kernel kind = Kernel::kScalar;
  const char* name = "scalar";
  std::size_t (*match_run_fwd)(const seqio::Code* a, const seqio::Code* b,
                               std::size_t max) = nullptr;
  std::size_t (*match_run_bwd)(const seqio::Code* a, const seqio::Code* b,
                               std::size_t max) = nullptr;
};

/// "scalar" / "avx2".
[[nodiscard]] const char* to_string(Kernel k);

/// True when this build AND this CPU can run `k` (scalar: always).
[[nodiscard]] bool cpu_supports(Kernel k);

/// The named kernel. Throws std::runtime_error when unsupported here.
[[nodiscard]] const KernelOps& kernel(Kernel k);

/// Best supported kernel, demoted to scalar when SCORIS_FORCE_SCALAR is
/// set (cached after the first call).
[[nodiscard]] const KernelOps& dispatch();

/// dispatch(), or the scalar kernel when `force_scalar`.
[[nodiscard]] const KernelOps& select(bool force_scalar);

}  // namespace scoris::align::simd
