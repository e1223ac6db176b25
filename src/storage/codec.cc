#include "storage/codec.h"

#include <cstring>

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

bool VByteDecode(const std::vector<uint8_t>& in, size_t* pos,
                 uint32_t* value) {
  uint32_t v = 0;
  int shift = 0;
  while (*pos < in.size()) {
    uint8_t byte = in[(*pos)++];
    if (byte & 0x80) {
      *value = v | (static_cast<uint32_t>(byte & 0x7f) << shift);
      return true;
    }
    v |= static_cast<uint32_t>(byte) << shift;
    shift += 7;
    if (shift > 28) return false;  // Over-long encoding.
  }
  return false;
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

Result<std::vector<Posting>> DecodePostings(const std::vector<uint8_t>& in) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!VByteDecode(in, &pos, &count)) {
    return Status::IOError("truncated postings header");
  }
  std::vector<Posting> postings;
  postings.reserve(count);
  while (postings.size() < count) {
    uint32_t freq = 0, run = 0;
    if (!VByteDecode(in, &pos, &freq) || !VByteDecode(in, &pos, &run)) {
      return Status::IOError("truncated run header");
    }
    if (run == 0 || postings.size() + run > count) {
      return Status::IOError("corrupt run length");
    }
    DocId doc = 0;
    for (uint32_t j = 0; j < run; ++j) {
      uint32_t delta = 0;
      if (!VByteDecode(in, &pos, &delta)) {
        return Status::IOError("truncated doc gap");
      }
      doc = (j == 0) ? delta : doc + delta;
      postings.push_back(Posting{doc, freq});
    }
  }
  if (pos != in.size()) {
    return Status::IOError("trailing bytes after postings");
  }
  return postings;
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

/// Pointer-based scalar vbyte read used by the block decoder (same
/// format and same over-long rejection as VByteDecode, minus the
/// std::vector indexing).
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

constexpr uint64_t kTerminators = 0x8080808080808080ull;

#if defined(__x86_64__) && defined(__GNUC__)
/// 16-wide fast path: _mm_movemask_epi8 tests all 16 high bits in one
/// instruction; when every byte terminates a gap, the prefix sum runs
/// in-register (two shift-adds per 4-lane group) so only one serial
/// `doc` dependency remains per 4 postings instead of per posting.
/// Decodes exactly the same values as the portable path (the
/// round-trip tests run whichever one dispatches). Returns the new
/// fill count; `doc_io` carries the running absolute doc id.
__attribute__((target("sse4.1"))) uint32_t DecodeDocsSse(
    const uint8_t** pp, const uint8_t* end, uint32_t* docs, uint32_t got,
    uint32_t run, uint32_t* doc_io) {
  const uint8_t* p = *pp;
  uint32_t doc = *doc_io;
  // LINT-HOT-LOOP: block-decode bulk gap loop (SSE4.1, fused prefix sum).
  while (run - got >= 16 && end - p >= 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    if (_mm_movemask_epi8(v) != 0xFFFF) break;  // Continuation byte present.
    __m128i m = _mm_and_si128(v, _mm_set1_epi8(0x7f));
    for (int g = 0; g < 4; ++g) {
      __m128i x = _mm_cvtepu8_epi32(m);
      m = _mm_srli_si128(m, 4);
      x = _mm_add_epi32(x, _mm_slli_si128(x, 4));
      x = _mm_add_epi32(x, _mm_slli_si128(x, 8));
      x = _mm_add_epi32(x, _mm_set1_epi32(static_cast<int>(doc)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(docs + got + 4 * g), x);
      doc = static_cast<uint32_t>(_mm_extract_epi32(x, 3));
    }
    p += 16;
    got += 16;
  }
  // LINT-HOT-LOOP-END
  *pp = p;
  *doc_io = doc;
  return got;
}
#endif

/// Decodes one run's doc ids — the absolute first id, then `run - 1`
/// gaps — resolving the prefix sum on the fly so `docs` holds absolute
/// ids when this returns. At ~1 byte/posting compression almost every
/// gap is a single terminator byte, so the loop reads 8 source bytes at
/// a time: an all-terminator word decodes branch-free, and a mixed word
/// still salvages its leading single-byte gaps (count-trailing-zeros on
/// the inverted terminator mask) before one scalar vbyte handles the
/// multi-byte gap. Returns false on truncated or over-long input.
inline bool DecodeRunDocs(const uint8_t** pp, const uint8_t* end,
                          uint32_t* docs, uint32_t run) {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has_sse41 = __builtin_cpu_supports("sse4.1");
#endif
  const uint8_t* p = *pp;
  uint32_t doc = 0;
  if (!ReadVByte(&p, end, &doc)) return false;  // First doc id is absolute.
  docs[0] = doc;
  uint32_t got = 1;
  // LINT-HOT-LOOP: block-decode bulk gap loop (fused prefix sum).
  while (run - got >= 8 && end - p >= 8) {
#if defined(__x86_64__) && defined(__GNUC__)
    if (has_sse41) {
      got = DecodeDocsSse(&p, end, docs, got, run, &doc);
      if (run - got < 8 || end - p < 8) break;
    }
#endif
    uint64_t w;
    std::memcpy(&w, p, 8);
    const uint64_t term = w & kTerminators;
    if (term == kTerminators) {
      doc += static_cast<uint32_t>(w) & 0x7f;
      docs[got + 0] = doc;
      doc += static_cast<uint32_t>(w >> 8) & 0x7f;
      docs[got + 1] = doc;
      doc += static_cast<uint32_t>(w >> 16) & 0x7f;
      docs[got + 2] = doc;
      doc += static_cast<uint32_t>(w >> 24) & 0x7f;
      docs[got + 3] = doc;
      doc += static_cast<uint32_t>(w >> 32) & 0x7f;
      docs[got + 4] = doc;
      doc += static_cast<uint32_t>(w >> 40) & 0x7f;
      docs[got + 5] = doc;
      doc += static_cast<uint32_t>(w >> 48) & 0x7f;
      docs[got + 6] = doc;
      doc += static_cast<uint32_t>(w >> 56) & 0x7f;
      docs[got + 7] = doc;
      p += 8;
      got += 8;
      continue;
    }
    // Mixed word: bytes 0..k-1 are terminators (k single-byte gaps to
    // salvage); byte k opens a multi-byte gap, decoded scalar.
    const uint32_t k =
        static_cast<uint32_t>(__builtin_ctzll(~term & kTerminators)) >> 3;
    for (uint32_t j = 0; j < k; ++j) {
      doc += static_cast<uint32_t>(w >> (8 * j)) & 0x7f;
      docs[got + j] = doc;
    }
    p += k;
    got += k;
    uint32_t gap = 0;
    if (!ReadVByte(&p, end, &gap)) return false;
    doc += gap;
    docs[got++] = doc;
  }
  // LINT-HOT-LOOP-END
  while (got < run) {  // Scalar tail (< 8 gaps remain).
    uint32_t gap = 0;
    if (!ReadVByte(&p, end, &gap)) return false;
    doc += gap;
    docs[got++] = doc;
  }
  *pp = p;
  return true;
}

}  // namespace

Status DecodePostingsInto(const std::vector<uint8_t>& in, PostingBlock* out) {
  out->runs.clear();
  const uint8_t* p = in.data();
  const uint8_t* end = p + in.size();
  uint32_t count = 0;
  if (!ReadVByte(&p, end, &count)) {
    return Status::Corrupted("truncated postings header");
  }
  // Every posting costs at least one encoded byte, so a count exceeding
  // the image size is corrupt; rejecting it here also bounds the resize
  // below (the legacy path would blindly reserve()).
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
    if (!DecodeRunDocs(&p, end, docs, run)) {
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

}  // namespace irbuf::storage
