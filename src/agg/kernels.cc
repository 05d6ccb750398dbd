#include "agg/kernels.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/value.h"

#if !defined(OLAP_DISABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define OLAP_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace olap::kernels {
namespace {

using detail::LoadBits;
using detail::OrBitsAt;
using detail::SetBit;
using detail::TestBit;

inline uint64_t FullMask(int count) {
  return count >= 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
}

inline bool IsSentinelNull(double raw) { return CellValue::IsStorageNull(raw); }

const double kNullDouble = CellValue::NullStorage();

// ---------------------------------------------------------------------------
// Scalar reference implementations. These DEFINE the results; the AVX2
// implementations must match them bitwise. Dispatch falls back to them on
// any host (or build) without AVX2+FMA.
// ---------------------------------------------------------------------------

RunSum MaskedRunSumScalarImpl(const double* values, const uint64_t* valid,
                              int64_t bit_offset, int64_t len) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t count = 0;
  for (int64_t i = 0; i < len; ++i) {
    if (TestBit(valid, bit_offset + i)) {
      acc[i & 3] += values[i];
      ++count;
    }
  }
  return {(acc[0] + acc[1]) + (acc[2] + acc[3]), count};
}

void MergeWeightedRunIntoSentinelScalarImpl(double w, const double* src,
                                            const uint64_t* valid,
                                            int64_t bit_offset, double* dst,
                                            int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    if (!TestBit(valid, bit_offset + i)) continue;
    const double s = src[i];
    dst[i] = IsSentinelNull(dst[i]) ? w * s : std::fma(w, s, dst[i]);
  }
}

void MergeWeightedSentinelRunScalarImpl(double w, const double* src,
                                        double* dst, int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    const double s = src[i];
    if (IsSentinelNull(s)) continue;
    dst[i] = IsSentinelNull(dst[i]) ? w * s : std::fma(w, s, dst[i]);
  }
}

int64_t CopyRunMaskedScalarImpl(const double* src_values,
                                const uint64_t* src_valid,
                                int64_t src_bit_offset, double* dst_values,
                                uint64_t* dst_valid, int64_t dst_bit_offset,
                                int64_t len) {
  int64_t copied = 0;
  for (int64_t i = 0; i < len; ++i) {
    if (!TestBit(src_valid, src_bit_offset + i)) continue;
    dst_values[i] = src_values[i];
    SetBit(dst_valid, dst_bit_offset + i);
    ++copied;
  }
  return copied;
}

void ExpandToSentinelScalarImpl(const double* values, const uint64_t* valid,
                                int64_t bit_offset, double* out, int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    out[i] = TestBit(valid, bit_offset + i) ? values[i] : kNullDouble;
  }
}

int64_t DecodeSentinelRunScalarImpl(const double* raw, double* values,
                                    uint64_t* valid, int64_t bit_offset,
                                    int64_t len) {
  int64_t count = 0;
  for (int64_t i = 0; i < len; ++i) {
    const double r = raw[i];
    if (std::isnan(r)) {
      values[i] = 0.0;
    } else {
      values[i] = r;
      SetBit(valid, bit_offset + i);
      ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations (x86). Compiled with per-function target
// attributes so the rest of the binary keeps the baseline ISA; only called
// after __builtin_cpu_supports checks.
// ---------------------------------------------------------------------------
#if defined(OLAP_KERNELS_HAVE_AVX2)

// kNibbleMaskBits[m][j]: all-ones when bit j of nibble m is set. Loaded as
// a pd mask for AND/blend of one 4-lane group.
alignas(32) constexpr uint64_t kNibbleMaskBits[16][4] = {
    {0, 0, 0, 0},    {~0ull, 0, 0, 0},
    {0, ~0ull, 0, 0},    {~0ull, ~0ull, 0, 0},
    {0, 0, ~0ull, 0},    {~0ull, 0, ~0ull, 0},
    {0, ~0ull, ~0ull, 0},    {~0ull, ~0ull, ~0ull, 0},
    {0, 0, 0, ~0ull},    {~0ull, 0, 0, ~0ull},
    {0, ~0ull, 0, ~0ull},    {~0ull, ~0ull, 0, ~0ull},
    {0, 0, ~0ull, ~0ull},    {~0ull, 0, ~0ull, ~0ull},
    {0, ~0ull, ~0ull, ~0ull},    {~0ull, ~0ull, ~0ull, ~0ull},
};

// kTailLaneBits[r][j]: all-ones when j < r — the maskload/maskstore lane
// mask for a tail group of r (1..3) elements.
alignas(32) constexpr uint64_t kTailLaneBits[4][4] = {
    {0, 0, 0, 0},
    {~0ull, 0, 0, 0},
    {~0ull, ~0ull, 0, 0},
    {~0ull, ~0ull, ~0ull, 0},
};

__attribute__((target("avx2,fma"))) inline __m256d NibbleMaskPd(unsigned nib) {
  return _mm256_load_pd(reinterpret_cast<const double*>(kNibbleMaskBits[nib]));
}

__attribute__((target("avx2,fma"))) inline __m256i TailLaneMask(int rem) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kTailLaneBits[rem]));
}

__attribute__((target("avx2,fma"))) RunSum MaskedRunSumAvx2(
    const double* values, const uint64_t* valid, int64_t bit_offset,
    int64_t len) {
  __m256d acc = _mm256_setzero_pd();
  int64_t count = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(valid, bit_offset + i, n);
    count += std::popcount(m);
    const double* p = values + i;
    if (n == 64 && m == ~uint64_t{0}) {
      for (int k = 0; k < 64; k += 4) {
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(p + k));
      }
    } else if (m != 0) {
      int k = 0;
      for (; k + 4 <= n; k += 4) {
        const unsigned nib = static_cast<unsigned>((m >> k) & 0xF);
        if (nib == 0) continue;
        const __m256d x =
            _mm256_and_pd(_mm256_loadu_pd(p + k), NibbleMaskPd(nib));
        acc = _mm256_add_pd(acc, x);
      }
      if (k < n) {
        const int rem = n - k;
        const unsigned nib = static_cast<unsigned>(m >> k);
        if (nib != 0) {
          __m256d x = _mm256_maskload_pd(p + k, TailLaneMask(rem));
          x = _mm256_and_pd(x, NibbleMaskPd(nib));
          acc = _mm256_add_pd(acc, x);
        }
      }
    }
    i += n;
  }
  alignas(32) double a[4];
  _mm256_store_pd(a, acc);
  return {(a[0] + a[1]) + (a[2] + a[3]), count};
}

__attribute__((target("avx2,fma"))) void MergeWeightedRunIntoSentinelAvx2(
    double w, const double* src, const uint64_t* valid, int64_t bit_offset,
    double* dst, int64_t len) {
  const __m256d wv = _mm256_set1_pd(w);
  const __m256i null_bits =
      _mm256_set1_epi64x(static_cast<long long>(CellValue::NullStorageBits()));
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(valid, bit_offset + i, n);
    if (m != 0) {
      const double* s = src + i;
      double* d = dst + i;
      int k = 0;
      for (; k + 4 <= n; k += 4) {
        const unsigned nib = static_cast<unsigned>((m >> k) & 0xF);
        if (nib == 0) continue;
        const __m256d dv = _mm256_loadu_pd(d + k);
        const __m256d sv = _mm256_loadu_pd(s + k);
        const __m256d dnull = _mm256_castsi256_pd(
            _mm256_cmpeq_epi64(_mm256_castpd_si256(dv), null_bits));
        const __m256d prod = _mm256_mul_pd(wv, sv);
        const __m256d fused = _mm256_fmadd_pd(wv, sv, dv);
        const __m256d merged = _mm256_blendv_pd(fused, prod, dnull);
        const __m256d res = _mm256_blendv_pd(dv, merged, NibbleMaskPd(nib));
        _mm256_storeu_pd(d + k, res);
      }
      for (; k < n; ++k) {
        if (!((m >> k) & 1u)) continue;
        d[k] = IsSentinelNull(d[k]) ? w * s[k] : std::fma(w, s[k], d[k]);
      }
    }
    i += n;
  }
}

__attribute__((target("avx2,fma"))) void MergeWeightedSentinelRunAvx2(
    double w, const double* src, double* dst, int64_t len) {
  const __m256d wv = _mm256_set1_pd(w);
  const __m256i null_bits =
      _mm256_set1_epi64x(static_cast<long long>(CellValue::NullStorageBits()));
  int64_t k = 0;
  for (; k + 4 <= len; k += 4) {
    const __m256d sv = _mm256_loadu_pd(src + k);
    const __m256i snull_i =
        _mm256_cmpeq_epi64(_mm256_castpd_si256(sv), null_bits);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(snull_i)) == 0xF) continue;
    const __m256d snull = _mm256_castsi256_pd(snull_i);
    const __m256d dv = _mm256_loadu_pd(dst + k);
    const __m256d dnull = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_castpd_si256(dv), null_bits));
    const __m256d prod = _mm256_mul_pd(wv, sv);
    const __m256d fused = _mm256_fmadd_pd(wv, sv, dv);
    const __m256d merged = _mm256_blendv_pd(fused, prod, dnull);
    const __m256d res = _mm256_blendv_pd(merged, dv, snull);
    _mm256_storeu_pd(dst + k, res);
  }
  for (; k < len; ++k) {
    const double s = src[k];
    if (IsSentinelNull(s)) continue;
    dst[k] = IsSentinelNull(dst[k]) ? w * s : std::fma(w, s, dst[k]);
  }
}

__attribute__((target("avx2,fma"))) int64_t CopyRunMaskedAvx2(
    const double* src_values, const uint64_t* src_valid,
    int64_t src_bit_offset, double* dst_values, uint64_t* dst_valid,
    int64_t dst_bit_offset, int64_t len) {
  int64_t copied = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(src_valid, src_bit_offset + i, n);
    if (m != 0) {
      OrBitsAt(dst_valid, dst_bit_offset + i, m, n);
      const int pop = std::popcount(m);
      copied += pop;
      if (m == FullMask(n)) {
        std::memcpy(dst_values + i, src_values + i, sizeof(double) * n);
      } else if (pop <= 16) {
        uint64_t bits = m;
        while (bits != 0) {
          const int k = std::countr_zero(bits);
          dst_values[i + k] = src_values[i + k];
          bits &= bits - 1;
        }
      } else {
        const double* s = src_values + i;
        double* d = dst_values + i;
        int k = 0;
        for (; k + 4 <= n; k += 4) {
          const unsigned nib = static_cast<unsigned>((m >> k) & 0xF);
          if (nib == 0) continue;
          const __m256d sv = _mm256_loadu_pd(s + k);
          const __m256d dv = _mm256_loadu_pd(d + k);
          _mm256_storeu_pd(d + k,
                           _mm256_blendv_pd(dv, sv, NibbleMaskPd(nib)));
        }
        for (; k < n; ++k) {
          if ((m >> k) & 1u) d[k] = s[k];
        }
      }
    }
    i += n;
  }
  return copied;
}

__attribute__((target("avx2,fma"))) void ExpandToSentinelAvx2(
    const double* values, const uint64_t* valid, int64_t bit_offset,
    double* out, int64_t len) {
  const __m256d nullv = _mm256_set1_pd(kNullDouble);
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(valid, bit_offset + i, n);
    if (m == FullMask(n)) {
      std::memcpy(out + i, values + i, sizeof(double) * n);
    } else {
      const double* p = values + i;
      double* o = out + i;
      int k = 0;
      for (; k + 4 <= n; k += 4) {
        const unsigned nib = static_cast<unsigned>((m >> k) & 0xF);
        const __m256d v = _mm256_loadu_pd(p + k);
        _mm256_storeu_pd(o + k, _mm256_blendv_pd(nullv, v, NibbleMaskPd(nib)));
      }
      for (; k < n; ++k) {
        o[k] = ((m >> k) & 1u) ? p[k] : kNullDouble;
      }
    }
    i += n;
  }
}

__attribute__((target("avx2,fma"))) int64_t DecodeSentinelRunAvx2(
    const double* raw, double* values, uint64_t* valid, int64_t bit_offset,
    int64_t len) {
  int64_t count = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const double* r = raw + i;
    double* v = values + i;
    uint64_t m = 0;
    int k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m256d x = _mm256_loadu_pd(r + k);
      const __m256d ord = _mm256_cmp_pd(x, x, _CMP_ORD_Q);
      _mm256_storeu_pd(v + k, _mm256_and_pd(x, ord));
      m |= static_cast<uint64_t>(_mm256_movemask_pd(ord)) << k;
    }
    for (; k < n; ++k) {
      const double x = r[k];
      if (std::isnan(x)) {
        v[k] = 0.0;
      } else {
        v[k] = x;
        m |= uint64_t{1} << k;
      }
    }
    if (m != 0) {
      OrBitsAt(valid, bit_offset + i, m, n);
      count += std::popcount(m);
    }
    i += n;
  }
  return count;
}

#endif  // OLAP_KERNELS_HAVE_AVX2

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

struct KernelTable {
  Isa isa;
  RunSum (*masked_run_sum)(const double*, const uint64_t*, int64_t, int64_t);
  void (*merge_weighted_run_into_sentinel)(double, const double*,
                                           const uint64_t*, int64_t, double*,
                                           int64_t);
  void (*merge_weighted_sentinel_run)(double, const double*, double*, int64_t);
  int64_t (*copy_run_masked)(const double*, const uint64_t*, int64_t, double*,
                             uint64_t*, int64_t, int64_t);
  void (*expand_to_sentinel)(const double*, const uint64_t*, int64_t, double*,
                             int64_t);
  int64_t (*decode_sentinel_run)(const double*, double*, uint64_t*, int64_t,
                                 int64_t);
};

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    MaskedRunSumScalarImpl,
    MergeWeightedRunIntoSentinelScalarImpl,
    MergeWeightedSentinelRunScalarImpl,
    CopyRunMaskedScalarImpl,
    ExpandToSentinelScalarImpl,
    DecodeSentinelRunScalarImpl,
};

#if defined(OLAP_KERNELS_HAVE_AVX2)
constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,
    MaskedRunSumAvx2,
    MergeWeightedRunIntoSentinelAvx2,
    MergeWeightedSentinelRunAvx2,
    CopyRunMaskedAvx2,
    ExpandToSentinelAvx2,
    DecodeSentinelRunAvx2,
};
#endif

const KernelTable* ResolveTable() {
#if defined(OLAP_KERNELS_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &kAvx2Table;
  }
#endif
  return &kScalarTable;
}

std::atomic<const KernelTable*> g_table{nullptr};

inline const KernelTable& Active() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = ResolveTable();
    g_table.store(t, std::memory_order_release);
  }
  return *t;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Isa ActiveIsa() { return Active().isa; }

bool SimdCompiledIn() {
#if defined(OLAP_KERNELS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

void ForceScalar(bool on) {
  g_table.store(on ? &kScalarTable : ResolveTable(),
                std::memory_order_release);
}

RunSum MaskedRunSum(const double* values, const uint64_t* valid,
                    int64_t bit_offset, int64_t len) {
  return Active().masked_run_sum(values, valid, bit_offset, len);
}

RunSum MaskedRunSumScalar(const double* values, const uint64_t* valid,
                          int64_t bit_offset, int64_t len) {
  return MaskedRunSumScalarImpl(values, valid, bit_offset, len);
}

void MergeWeightedRunIntoSentinel(double w, const double* src_values,
                                  const uint64_t* src_valid,
                                  int64_t src_bit_offset, double* dst,
                                  int64_t len) {
  Active().merge_weighted_run_into_sentinel(w, src_values, src_valid,
                                            src_bit_offset, dst, len);
}

void MergeWeightedRunIntoSentinelScalar(double w, const double* src_values,
                                        const uint64_t* src_valid,
                                        int64_t src_bit_offset, double* dst,
                                        int64_t len) {
  MergeWeightedRunIntoSentinelScalarImpl(w, src_values, src_valid,
                                         src_bit_offset, dst, len);
}

void MergeWeightedSentinelRun(double w, const double* src, double* dst,
                              int64_t len) {
  Active().merge_weighted_sentinel_run(w, src, dst, len);
}

void MergeWeightedSentinelRunScalar(double w, const double* src, double* dst,
                                    int64_t len) {
  MergeWeightedSentinelRunScalarImpl(w, src, dst, len);
}

int64_t CopyRunMasked(const double* src_values, const uint64_t* src_valid,
                      int64_t src_bit_offset, double* dst_values,
                      uint64_t* dst_valid, int64_t dst_bit_offset,
                      int64_t len) {
  return Active().copy_run_masked(src_values, src_valid, src_bit_offset,
                                  dst_values, dst_valid, dst_bit_offset, len);
}

int64_t CopyRunMaskedScalar(const double* src_values,
                            const uint64_t* src_valid, int64_t src_bit_offset,
                            double* dst_values, uint64_t* dst_valid,
                            int64_t dst_bit_offset, int64_t len) {
  return CopyRunMaskedScalarImpl(src_values, src_valid, src_bit_offset,
                                 dst_values, dst_valid, dst_bit_offset, len);
}

void ExpandToSentinel(const double* values, const uint64_t* valid,
                      int64_t bit_offset, double* out, int64_t len) {
  Active().expand_to_sentinel(values, valid, bit_offset, out, len);
}

void ExpandToSentinelScalar(const double* values, const uint64_t* valid,
                            int64_t bit_offset, double* out, int64_t len) {
  ExpandToSentinelScalarImpl(values, valid, bit_offset, out, len);
}

int64_t DecodeSentinelRun(const double* raw, double* values, uint64_t* valid,
                          int64_t bit_offset, int64_t len) {
  return Active().decode_sentinel_run(raw, values, valid, bit_offset, len);
}

int64_t DecodeSentinelRunScalar(const double* raw, double* values,
                                uint64_t* valid, int64_t bit_offset,
                                int64_t len) {
  return DecodeSentinelRunScalarImpl(raw, values, valid, bit_offset, len);
}

int64_t PopcountRange(const uint64_t* words, int64_t bit_offset, int64_t len) {
  int64_t count = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    count += std::popcount(LoadBits(words, bit_offset + i, n));
    i += n;
  }
  return count;
}

bool AnyBitInRange(const uint64_t* words, int64_t bit_offset, int64_t len) {
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    if (LoadBits(words, bit_offset + i, n) != 0) return true;
    i += n;
  }
  return false;
}

}  // namespace olap::kernels
