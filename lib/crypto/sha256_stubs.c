/* SHA-256 block compression (FIPS 180-4) for Bp_crypto.Sha256.

   One entry point compresses N whole 64-byte blocks into an 8-word
   state. Two kernels sit behind it:

   - an SHA-NI kernel (x86-64 SHA extensions), compiled with a
     per-function target attribute so the rest of the file and the
     library stay baseline x86-64: no -march flag is needed, and the
     binary runs on any x86-64 host;
   - a portable C kernel for every other CPU or compiler.

   Which one runs is decided by the caller: Sha256 asks
   [bp_sha256_has_sha_ni] once at module initialization (CPUID) and
   passes the answer with every call, so this file keeps no mutable
   state and every call is reentrant across domains. The OCaml
   externals are [@@noalloc]: nothing here allocates, raises or touches
   the OCaml heap beyond reading and writing the two byte buffers. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* ---------- portable kernel ---------- */

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void compress_portable(uint32_t st[8], const unsigned char *p,
                              size_t nblocks)
{
  uint32_t w[64];
  for (; nblocks > 0; nblocks--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t x = w[i - 15], y = w[i - 2];
      uint32_t s0 = ROR(x, 7) ^ ROR(x, 18) ^ (x >> 3);
      uint32_t s1 = ROR(y, 17) ^ ROR(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = h + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25))
                    + (g ^ (e & (f ^ g))) + K[i] + w[i];
      uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22))
                    + ((a & b) | (c & (a | b)));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* ---------- SHA-NI kernel ---------- */

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BP_HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>

/* The SHA-NI round instruction works on the state split as ABEF/CDGH;
   the shuffles at entry and exit convert from and to the A..H word
   order the OCaml side keeps. Message words W[4g..4g+3] form one
   vector M_g; for g >= 4,
   M_g = msg2(msg1(M_{g-4}, M_{g-3}) + W[4g-7..4g-4], M_{g-1}),
   where the middle term is M_{g-2}:M_{g-1} shifted by one word. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress_sha_ni(uint32_t st[8], const unsigned char *p,
                            size_t nblocks)
{
  const __m128i bswap =
    _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]),
                                  0xB1);                      /* CDAB */
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]),
                                 0x1B);                       /* EFGH */
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);                   /* ABEF */
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);                        /* CDGH */
  for (; nblocks > 0; nblocks--, p += 64) {
    const __m128i save0 = s0, save1 = s1;
    __m128i m[4];
    for (int g = 0; g < 16; g++) {
      __m128i w;
      if (g < 4)
        w = _mm_shuffle_epi8(
          _mm_loadu_si128((const __m128i *)(p + 16 * g)), bswap);
      else
        w = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m[g & 3], m[(g - 3) & 3]),
                        _mm_alignr_epi8(m[(g - 1) & 3], m[(g - 2) & 3], 4)),
          m[(g - 1) & 3]);
      m[g & 3] = w;
      const __m128i kw =
        _mm_add_epi32(w, _mm_loadu_si128((const __m128i *)&K[4 * g]));
      s1 = _mm_sha256rnds2_epu32(s1, s0, kw);
      s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(kw, 0x0E));
    }
    s0 = _mm_add_epi32(s0, save0);
    s1 = _mm_add_epi32(s1, save1);
  }
  tmp = _mm_shuffle_epi32(s0, 0x1B);                          /* FEBA */
  s1 = _mm_shuffle_epi32(s1, 0xB1);                           /* DCHG */
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(tmp, s1, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(s1, tmp, 8));
}

/* CPUID leaf 7 EBX bit 29 (SHA) plus leaf 1 ECX bits 19 (SSE4.1) and 9
   (SSSE3), the other two extensions the kernel's shuffles use. */
static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 19)) || !(c & (1u << 9))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b >> 29) & 1;
}
#else
static int cpu_has_sha_ni(void) { return 0; }
#endif

/* ---------- OCaml entry points ---------- */

/* [compress sha_ni state src off nblocks]: [state] holds the 8 state
   words, native-endian, at byte offset 0; [src] holds [nblocks] whole
   blocks from byte [off]. The OCaml side checks the bounds. [state]
   and [src] may be the same buffer provided the regions are disjoint. */
value bp_sha256_compress(value sha_ni, value state, value src, value off,
                         value nblocks)
{
  uint32_t h[8];
  memcpy(h, Bytes_val(state), sizeof h);
  const unsigned char *p = (const unsigned char *)Bytes_val(src) + Long_val(off);
  size_t n = (size_t)Long_val(nblocks);
#ifdef BP_HAVE_SHA_NI
  if (Bool_val(sha_ni))
    compress_sha_ni(h, p, n);
  else
#endif
    compress_portable(h, p, n);
  memcpy(Bytes_val(state), h, sizeof h);
  return Val_unit;
}

value bp_sha256_has_sha_ni(value unit)
{
  (void)unit;
  return Val_bool(cpu_has_sha_ni());
}
