#include "storage/codec.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace irbuf::storage {

void VByteEncode(uint32_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value & 0x7f));
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value | 0x80));
}

std::vector<uint8_t> EncodePostings(const std::vector<Posting>& postings) {
  std::vector<uint8_t> out;
  out.reserve(postings.size() + 8);
  VByteEncode(static_cast<uint32_t>(postings.size()), &out);
  size_t i = 0;
  while (i < postings.size()) {
    uint32_t freq = postings[i].freq;
    size_t run_end = i;
    while (run_end < postings.size() && postings[run_end].freq == freq) {
      ++run_end;
    }
    VByteEncode(freq, &out);
    VByteEncode(static_cast<uint32_t>(run_end - i), &out);
    DocId prev = 0;
    for (size_t j = i; j < run_end; ++j) {
      // First doc id absolute, subsequent ones gap-encoded (gap >= 1).
      uint32_t delta = (j == i) ? postings[j].doc : postings[j].doc - prev;
      VByteEncode(delta, &out);
      prev = postings[j].doc;
    }
    i = run_end;
  }
  return out;
}

void PostingBlock::FromPostings(const std::vector<Posting>& postings) {
  Clear();
  doc_ids.reserve(postings.size());
  size_t i = 0;
  while (i < postings.size()) {
    uint32_t freq = postings[i].freq;
    size_t run_end = i;
    while (run_end < postings.size() && postings[run_end].freq == freq) {
      ++run_end;
    }
    runs.push_back(PostingRun{freq, static_cast<uint32_t>(i),
                              static_cast<uint32_t>(run_end)});
    for (size_t j = i; j < run_end; ++j) doc_ids.push_back(postings[j].doc);
    i = run_end;
  }
}

std::vector<Posting> PostingBlock::ToPostings() const {
  std::vector<Posting> out;
  out.reserve(doc_ids.size());
  for (const PostingRun& run : runs) {
    for (uint32_t i = run.begin; i < run.end; ++i) {
      out.push_back(Posting{doc_ids[i], run.freq});
    }
  }
  return out;
}

namespace {

/// Reads one vbyte at *pp (7 bits per byte, low group first, high bit
/// set on the terminating byte) and advances *pp. Returns false on
/// truncated input or an over-long (more than five-byte) encoding.
inline bool ReadVByte(const uint8_t** pp, const uint8_t* end,
                      uint32_t* value) {
  const uint8_t* p = *pp;
  uint32_t v = 0;
  int shift = 0;
  while (p < end) {
    uint8_t byte = *p++;
    if (byte & 0x80) {
      *value = v | (static_cast<uint32_t>(byte & 0x7f) << shift);
      *pp = p;
      return true;
    }
    v |= static_cast<uint32_t>(byte) << shift;
    shift += 7;
    if (shift > 28) return false;  // Over-long encoding.
  }
  return false;
}

/// Decodes one run's doc ids — the absolute first id, then `run - 1`
/// gaps — resolving the prefix sum on the fly so `docs` holds absolute
/// ids when this returns. The portable path, one vbyte at a time, and
/// the oracle the SIMD kernel is tested against. Returns false on
/// truncated or over-long input.
bool DecodeRunDocsScalar(const uint8_t** pp, const uint8_t* end,
                         uint32_t* docs, uint32_t run) {
  const uint8_t* p = *pp;
  uint32_t doc = 0;
  if (!ReadVByte(&p, end, &doc)) return false;  // First doc id is absolute.
  docs[0] = doc;
  // LINT-HOT-LOOP: block-decode gap loop (portable, one vbyte at a time).
  for (uint32_t i = 1; i < run; ++i) {
    uint32_t gap = 0;
    if (!ReadVByte(&p, end, &gap)) return false;
    doc += gap;
    docs[i] = doc;
  }
  // LINT-HOT-LOOP-END
  *pp = p;
  return true;
}

#if defined(__x86_64__) && defined(__GNUC__)

/// Masked VByte's lookup table, for 8-byte windows. Entry `m` is indexed
/// by a window's terminator bits (bit i set = byte i ends a gap) and
/// describes the greedy parse of the window into complete gaps of one or
/// two bytes: `shuffle[m]` is a pshufb mask that moves gap k's first
/// byte to byte 2k and its second byte, if any, to byte 2k + 1, zeroing
/// every other byte; `gaps[m]` counts those gaps and `bytes[m]` the bytes
/// they span. The parse stops at the first gap of three or more bytes,
/// or at a gap the window's end cuts.
struct GapWindowTable {
  alignas(16) uint8_t shuffle[256][16];
  uint8_t gaps[256];
  uint8_t bytes[256];
};

constexpr GapWindowTable MakeGapWindowTable() {
  GapWindowTable t{};
  for (uint32_t m = 0; m < 256; ++m) {
    for (uint8_t& lane_byte : t.shuffle[m]) lane_byte = 0x80;  // Zeroes.
    uint32_t gaps = 0;
    uint32_t pos = 0;
    while (pos < 8) {
      if ((m >> pos) & 1u) {
        t.shuffle[m][2 * gaps] = static_cast<uint8_t>(pos);
        pos += 1;
      } else if (pos + 1 < 8 && ((m >> (pos + 1)) & 1u)) {
        t.shuffle[m][2 * gaps] = static_cast<uint8_t>(pos);
        t.shuffle[m][2 * gaps + 1] = static_cast<uint8_t>(pos + 1);
        pos += 2;
      } else {
        break;
      }
      ++gaps;
    }
    t.gaps[m] = static_cast<uint8_t>(gaps);
    t.bytes[m] = static_cast<uint8_t>(pos);
  }
  return t;
}

constexpr GapWindowTable kGapWindows = MakeGapWindowTable();
static_assert(kGapWindows.gaps[0xFF] == 8 && kGapWindows.bytes[0xFF] == 8);
static_assert(kGapWindows.gaps[0xAA] == 4 && kGapWindows.bytes[0xAA] == 8);
static_assert(kGapWindows.gaps[0x7F] == 7 && kGapWindows.bytes[0x7F] == 7);
static_assert(kGapWindows.gaps[0xFC] == 0 && kGapWindows.bytes[0xFC] == 0);

/// Inclusive prefix sum over four 32-bit lanes.
inline __m128i PrefixSum32x4(__m128i x) {
  x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
  return _mm_add_epi32(x, _mm_slli_si128(x, 8));
}

/// Inclusive prefix sum over eight 16-bit lanes.
inline __m128i PrefixSum16x8(__m128i x) {
  x = _mm_add_epi16(x, _mm_slli_si128(x, 2));
  x = _mm_add_epi16(x, _mm_slli_si128(x, 4));
  return _mm_add_epi16(x, _mm_slli_si128(x, 8));
}

/// DecodeRunDocsScalar's SSSE3 twin: the same doc ids and the same
/// failures on every input. Each pass loads 16 bytes, only while 16
/// remain in the image, and reads their terminator bits with one
/// movemask. Sixteen terminators decode as sixteen one-byte gaps.
/// Otherwise the low 8 bits pick a kGapWindows entry, whose shuffle
/// widens the window's complete one- and two-byte gaps into 16-bit
/// lanes; two masks and one shift join each gap's 7-bit halves. The
/// prefix sum runs in registers and `last` carries the running doc id
/// in every lane, so no value leaves the vector unit between passes. A
/// window that opens with a gap of three or more bytes, the run's last
/// gaps and the image's last 15 bytes go through ReadVByte, which owns
/// every truncation and over-long check. A pass stores 8 (or 16) doc
/// ids, so it runs only while that many gaps remain in the run; the
/// lanes past a window's gap count repeat its last doc id and the next
/// pass overwrites them.
__attribute__((target("ssse3"))) bool DecodeRunDocsSimd(
    const uint8_t** pp, const uint8_t* end, uint32_t* docs, uint32_t run) {
  const uint8_t* p = *pp;
  uint32_t doc = 0;
  if (!ReadVByte(&p, end, &doc)) return false;  // First doc id is absolute.
  docs[0] = doc;
  uint32_t got = 1;
  const __m128i zero = _mm_setzero_si128();
  const __m128i low7 = _mm_set1_epi16(0x007f);
  const __m128i high7 = _mm_set1_epi16(0x7f00);
  const __m128i lane7 = _mm_set1_epi16(0x0f0e);  // pshufb: 16-bit lane 7.
  __m128i last = _mm_set1_epi32(static_cast<int>(doc));
  // LINT-HOT-LOOP: block-decode gap kernel (SSSE3, fused prefix sum).
  while (run - got >= 8 && end - p >= 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const uint32_t term = static_cast<uint32_t>(_mm_movemask_epi8(v));
    if (term == 0xFFFF && run - got >= 16) {
      // Sixteen one-byte gaps; their 16-bit prefix sums stay <= 16 * 127.
      const __m128i m = _mm_and_si128(v, _mm_set1_epi8(0x7f));
      const __m128i a = PrefixSum16x8(_mm_unpacklo_epi8(m, zero));
      __m128i b = PrefixSum16x8(_mm_unpackhi_epi8(m, zero));
      b = _mm_add_epi16(b, _mm_shuffle_epi8(a, lane7));
      __m128i* out = reinterpret_cast<__m128i*>(docs + got);
      _mm_storeu_si128(out, _mm_add_epi32(_mm_unpacklo_epi16(a, zero), last));
      _mm_storeu_si128(out + 1,
                       _mm_add_epi32(_mm_unpackhi_epi16(a, zero), last));
      _mm_storeu_si128(out + 2,
                       _mm_add_epi32(_mm_unpacklo_epi16(b, zero), last));
      const __m128i tail = _mm_add_epi32(_mm_unpackhi_epi16(b, zero), last);
      _mm_storeu_si128(out + 3, tail);
      last = _mm_shuffle_epi32(tail, 0xFF);
      p += 16;
      got += 16;
      continue;
    }
    const uint32_t w = term & 0xFF;
    const uint32_t n = kGapWindows.gaps[w];
    if (n == 0) {  // The window opens with a gap of three or more bytes.
      uint32_t gap = 0;
      if (!ReadVByte(&p, end, &gap)) return false;
      doc = static_cast<uint32_t>(_mm_cvtsi128_si32(last)) + gap;
      docs[got++] = doc;
      last = _mm_set1_epi32(static_cast<int>(doc));
      continue;
    }
    const __m128i shuffle = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kGapWindows.shuffle[w]));
    const __m128i lanes = _mm_shuffle_epi8(v, shuffle);
    const __m128i low = _mm_and_si128(lanes, low7);
    const __m128i high = _mm_srli_epi16(_mm_and_si128(lanes, high7), 1);
    const __m128i gaps = _mm_or_si128(low, high);
    const __m128i lo = PrefixSum32x4(_mm_unpacklo_epi16(gaps, zero));
    __m128i hi = PrefixSum32x4(_mm_unpackhi_epi16(gaps, zero));
    hi = _mm_add_epi32(_mm_add_epi32(hi, _mm_shuffle_epi32(lo, 0xFF)), last);
    __m128i* out = reinterpret_cast<__m128i*>(docs + got);
    _mm_storeu_si128(out, _mm_add_epi32(lo, last));
    _mm_storeu_si128(out + 1, hi);
    last = _mm_shuffle_epi32(hi, 0xFF);
    p += kGapWindows.bytes[w];
    got += n;
  }
  // LINT-HOT-LOOP-END
  doc = static_cast<uint32_t>(_mm_cvtsi128_si32(last));
  while (got < run) {
    uint32_t gap = 0;
    if (!ReadVByte(&p, end, &gap)) return false;
    doc += gap;
    docs[got++] = doc;
  }
  *pp = p;
  return true;
}

#endif  // __x86_64__ && __GNUC__

using RunDecoder = bool (*)(const uint8_t** pp, const uint8_t* end,
                            uint32_t* docs, uint32_t run);

/// The image walk both paths share: the posting count, the run headers
/// and every malformed-image check. `DecodeRun` fills one run's doc ids.
template <RunDecoder DecodeRun>
Status DecodeImage(const std::vector<uint8_t>& in, PostingBlock* out) {
  out->runs.clear();
  const uint8_t* p = in.data();
  const uint8_t* end = p + in.size();
  uint32_t count = 0;
  if (!ReadVByte(&p, end, &count)) {
    return Status::Corrupted("truncated postings header");
  }
  // Every posting costs at least one encoded byte, so a count exceeding
  // the image size is corrupt; rejecting it here also bounds the resize
  // below.
  if (count > in.size()) {
    return Status::Corrupted("implausible posting count");
  }
  out->doc_ids.resize(count);
  uint32_t filled = 0;
  while (filled < count) {
    uint32_t freq = 0, run = 0;
    if (!ReadVByte(&p, end, &freq) || !ReadVByte(&p, end, &run)) {
      return Status::Corrupted("truncated run header");
    }
    // 64-bit sum: a crafted run near 2^32 would wrap uint32 arithmetic
    // past the `> count` rejection and overflow doc_ids below.
    if (run == 0 || static_cast<uint64_t>(filled) + run > count) {
      return Status::Corrupted("corrupt run length");
    }
    uint32_t* docs = out->doc_ids.data() + filled;
    if (!DecodeRun(&p, end, docs, run)) {
      return Status::Corrupted("truncated doc gap");
    }
    out->runs.push_back(PostingRun{freq, filled, filled + run});
    filled += run;
  }
  if (p != end) {
    return Status::Corrupted("trailing bytes after postings");
  }
  return Status();
}

}  // namespace

Status DecodePostingsInto(const std::vector<uint8_t>& in, PostingBlock* out) {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has_ssse3 = __builtin_cpu_supports("ssse3");
  if (has_ssse3) return DecodeImage<DecodeRunDocsSimd>(in, out);
#endif
  return DecodeImage<DecodeRunDocsScalar>(in, out);
}

namespace internal {

Status DecodePostingsIntoScalar(const std::vector<uint8_t>& in,
                                PostingBlock* out) {
  return DecodeImage<DecodeRunDocsScalar>(in, out);
}

}  // namespace internal

}  // namespace irbuf::storage
