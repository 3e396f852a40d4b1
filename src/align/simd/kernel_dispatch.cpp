#include "align/simd/kernel_dispatch.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "align/simd/kernels.hpp"

namespace scoris::align::simd {
namespace {

constexpr KernelOps kScalarOps{Kernel::kScalar, "scalar",
                               &match_run_fwd_scalar,
                               &match_run_bwd_scalar};

#if defined(__x86_64__) || defined(__i386__)
constexpr KernelOps kAvx2Ops{Kernel::kAvx2, "avx2", &match_run_fwd_avx2,
                             &match_run_bwd_avx2};
#endif

bool force_scalar_env() {
  const char* v = std::getenv("SCORIS_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

}  // namespace

const char* to_string(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool cpu_supports(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Kernel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Kernel::kAvx2:
      return false;
#endif
  }
  return false;
}

const KernelOps& kernel(Kernel k) {
  if (!cpu_supports(k)) {
    throw std::runtime_error(std::string("simd: kernel ") + to_string(k) +
                             " is not supported on this CPU");
  }
  switch (k) {
#if defined(__x86_64__) || defined(__i386__)
    case Kernel::kAvx2:
      return kAvx2Ops;
#endif
    default:
      return kScalarOps;
  }
}

const KernelOps& dispatch() {
  // Environment and CPUID are immutable for the process lifetime, so the
  // probe runs exactly once; every later call is one load.
  static const KernelOps* best = [] {
    if (force_scalar_env()) return &kScalarOps;
    if (cpu_supports(Kernel::kAvx2)) return &kernel(Kernel::kAvx2);
    return &kScalarOps;
  }();
  return *best;
}

const KernelOps& select(bool force_scalar) {
  return force_scalar ? kScalarOps : dispatch();
}

}  // namespace scoris::align::simd
