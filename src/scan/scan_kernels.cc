#include "scan/scan_kernels.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MISTIQUE_SCAN_X86 1
#endif

namespace mistique {
namespace scan {

namespace {

// ---------------------------------------------------------------- SWAR
//
// Fields are b-bit unsigned integers at stride b within a u64 word,
// LSB-first, never straddling the word; spare high bits (64 mod b) are
// zero. Word-parallel comparison follows the classic guarded-subtract
// scheme: force the minuend's per-field MSB on and the subtrahend's off so
// no subtraction ever borrows across a field boundary, then recover the
// true predicate from the MSBs. Spare bits stay zero throughout because
// every constant below leaves them zero and no field-local carry/borrow
// can reach them.

/// `f` replicated into every field of a word (spare bits zero).
uint64_t Broadcast(uint64_t f, unsigned bits) {
  const size_t per_word = 64 / bits;
  uint64_t w = 0;
  for (size_t j = 0; j < per_word; ++j) w |= f << (j * bits);
  return w;
}

/// Per-field x >= y (unsigned), reported in each field's MSB position.
/// H = Broadcast(1 << (bits-1)). Exact for any field values: when the
/// MSBs of x and y agree the guarded subtract's MSB decides on the low
/// bits; when they differ, x's MSB decides.
inline uint64_t GeMask(uint64_t x, uint64_t y, uint64_t H) {
  const uint64_t d = (x | H) - (y & ~H);
  return ((d & ~(x ^ y)) | (x & ~y)) & H;
}

/// MSB-mask restricted to the first `remain` fields (tail words).
inline uint64_t TailMask(uint64_t m, size_t remain, size_t per_word,
                         unsigned bits) {
  if (remain >= per_word) return m;
  return m & ((1ull << (remain * bits)) - 1);
}

void CmpSwar(const PackedView& v, uint64_t lo, uint64_t hi, uint64_t base,
             std::vector<uint64_t>* out) {
  const unsigned b = v.bits;
  const size_t per_word = v.fields_per_word();
  const uint64_t H = Broadcast(1ull << (b - 1), b);
  const uint64_t lo_b = Broadcast(lo, b);
  const uint64_t hi_b = Broadcast(hi, b);
  const size_t words = v.num_words();
  for (size_t w = 0; w < words; ++w) {
    const uint64_t x = v.Word(w);
    const uint64_t first = w * per_word;
    const size_t remain =
        std::min<size_t>(per_word, static_cast<size_t>(v.n) - first);
    uint64_t m = TailMask(GeMask(x, lo_b, H) & GeMask(hi_b, x, H), remain,
                          per_word, b);
    while (m) {
      const unsigned tz = static_cast<unsigned>(std::countr_zero(m));
      out->push_back(base + first + tz / b);
      m &= m - 1;
    }
  }
}

// --------------------------------------------------- SSE2/AVX2 (8-bit)
//
// 8-bit fields are plain bytes (kUInt8 chunks), so the range test
// vectorizes directly: x in [lo, hi] <=> max(x, lo) == x && min(x, hi)
// == x with unsigned byte min/max. Sub-byte widths stay on SWAR, which
// already compares 9..64 fields per op.

#ifdef MISTIQUE_SCAN_X86

void Cmp8Sse2(const PackedView& v, uint64_t lo, uint64_t hi, uint64_t base,
              std::vector<uint64_t>* out) {
  const uint8_t lo8 = static_cast<uint8_t>(lo);
  const uint8_t hi8 = static_cast<uint8_t>(hi);
  const __m128i vlo = _mm_set1_epi8(static_cast<char>(lo8));
  const __m128i vhi = _mm_set1_epi8(static_cast<char>(hi8));
  const size_t n = static_cast<size_t>(v.n);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v.data + i));
    const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(x, vlo), x);
    const __m128i le = _mm_cmpeq_epi8(_mm_min_epu8(x, vhi), x);
    unsigned m =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_and_si128(ge, le)));
    while (m) {
      out->push_back(base + i + static_cast<unsigned>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    const uint8_t x = v.data[i];
    if (x >= lo8 && x <= hi8) out->push_back(base + i);
  }
}

__attribute__((target("avx2"))) void Cmp8Avx2(const PackedView& v,
                                              uint64_t lo, uint64_t hi,
                                              uint64_t base,
                                              std::vector<uint64_t>* out) {
  const uint8_t lo8 = static_cast<uint8_t>(lo);
  const uint8_t hi8 = static_cast<uint8_t>(hi);
  const __m256i vlo = _mm256_set1_epi8(static_cast<char>(lo8));
  const __m256i vhi = _mm256_set1_epi8(static_cast<char>(hi8));
  const size_t n = static_cast<size_t>(v.n);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v.data + i));
    const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(x, vlo), x);
    const __m256i le = _mm256_cmpeq_epi8(_mm256_min_epu8(x, vhi), x);
    uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_and_si256(ge, le)));
    while (m) {
      out->push_back(base + i + static_cast<unsigned>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    const uint8_t x = v.data[i];
    if (x >= lo8 && x <= hi8) out->push_back(base + i);
  }
}

#endif  // MISTIQUE_SCAN_X86

using Cmp8Fn = void (*)(const PackedView&, uint64_t, uint64_t, uint64_t,
                        std::vector<uint64_t>*);

struct Dispatch {
  Cmp8Fn cmp8 = nullptr;
  const char* tier = "swar";
};

const Dispatch& GetDispatch() {
  static const Dispatch d = [] {
    Dispatch r;
#ifdef MISTIQUE_SCAN_X86
    if (__builtin_cpu_supports("avx2")) {
      r.cmp8 = Cmp8Avx2;
      r.tier = "avx2";
    } else {
      r.cmp8 = Cmp8Sse2;  // baseline on x86-64
      r.tier = "sse2";
    }
#endif
    return r;
  }();
  return d;
}

}  // namespace

const char* KernelTier() { return GetDispatch().tier; }

void CmpPacked(const PackedView& v, uint64_t lo_bin, uint64_t hi_bin,
               uint64_t base_row, std::vector<uint64_t>* out) {
  if (v.n == 0 || v.bits < 1 || v.bits > 8) return;
  const uint64_t max_bin = (1ull << v.bits) - 1;
  if (lo_bin > max_bin || lo_bin > hi_bin) return;
  hi_bin = std::min(hi_bin, max_bin);
  if (v.bits == 8) {
    if (Cmp8Fn fn = GetDispatch().cmp8) {
      fn(v, lo_bin, hi_bin, base_row, out);
      return;
    }
  }
  CmpSwar(v, lo_bin, hi_bin, base_row, out);
}

bool TopKAccumulator::Worse(const Entry& a, const Entry& b) {
  if (a.bin != b.bin) return a.bin < b.bin;
  return a.row > b.row;
}

void TopKAccumulator::Offer(uint64_t bin, uint64_t row) {
  if (k_ == 0) return;
  const Entry e{bin, row};
  // Max-heap under "worse-than" keeps the worst retained entry at front.
  const auto cmp = [](const Entry& a, const Entry& b) { return Worse(b, a); };
  if (heap_.size() < k_) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), cmp);
    return;
  }
  if (!Worse(heap_.front(), e)) return;
  std::pop_heap(heap_.begin(), heap_.end(), cmp);
  heap_.back() = e;
  std::push_heap(heap_.begin(), heap_.end(), cmp);
}

std::vector<TopKAccumulator::Entry> TopKAccumulator::Take() {
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return Worse(b, a); });
  return std::move(heap_);
}

void TopKPacked(const PackedView& v, uint64_t base_row,
                TopKAccumulator* acc) {
  if (v.n == 0 || v.bits < 1 || v.bits > 8 || acc->k() == 0) return;
  const unsigned b = v.bits;
  const size_t per_word = v.fields_per_word();
  const uint64_t H = Broadcast(1ull << (b - 1), b);
  const uint64_t fmask = (1ull << b) - 1;
  const size_t words = v.num_words();
  for (size_t w = 0; w < words; ++w) {
    const uint64_t x = v.Word(w);
    const uint64_t first = w * per_word;
    const size_t remain =
        std::min<size_t>(per_word, static_cast<size_t>(v.n) - first);
    if (acc->full()) {
      // One compare rejects the whole word when nothing can enter the
      // heap; >= keeps ties eligible (a tie with a lower row id wins).
      uint64_t m =
          TailMask(GeMask(x, Broadcast(acc->threshold(), b), H), remain,
                   per_word, b);
      while (m) {
        const unsigned tz = static_cast<unsigned>(std::countr_zero(m));
        const unsigned j = tz / b;
        acc->Offer((x >> (j * b)) & fmask, base_row + first + j);
        m &= m - 1;
      }
    } else {
      for (size_t j = 0; j < remain; ++j) {
        acc->Offer((x >> (j * b)) & fmask, base_row + first + j);
      }
    }
  }
}

}  // namespace scan
}  // namespace mistique
