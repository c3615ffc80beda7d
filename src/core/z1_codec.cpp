#include "core/z1_codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "util/common.h"

namespace gapsp::core {
namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // u64 raw_len + u64 checksum
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;
// Decoder fast path: a short literal run is copied as one fixed 16-byte
// block and matches as 8-byte chunks, when the buffers have room for the
// bytes written past the sequence (the next sequence overwrites them).
constexpr std::size_t kWildLiteral = 16;
constexpr std::size_t kWildChunk = 8;
// Encoder scratch above this size is released after the call instead of
// being kept by the thread (whole-payload checkpoint frames).
constexpr std::size_t kScratchKeepBytes = 1u << 20;

// Probe tuning: inputs below kProbeMinLen skip the probe (compressing them
// is cheaper than being wrong), larger ones are sampled at ~kProbeSamples
// points. The entropy threshold sits near 8 bits/byte so only genuinely
// structureless data is rejected — a borderline tile still gets the full
// match pass rather than forfeiting ratio.
constexpr std::size_t kProbeMinLen = 1024;
constexpr std::size_t kProbeSamples = 4096;
constexpr double kProbeEntropyBits = 7.2;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::size_t hash32(std::uint32_t v) {
  return static_cast<std::size_t>((v * 2654435761u) >> (32 - kHashBits));
}

// XXH64 primes (xxHash specification).
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint8_t* put_len_extension(std::uint8_t* op, std::size_t rem) {
  while (rem >= 255) {
    *op++ = 255;
    rem -= 255;
  }
  *op++ = static_cast<std::uint8_t>(rem);
  return op;
}

/// One sequence: literals then (unless final) a back-reference match.
/// Writes at `op` and returns the new end; the caller sized the buffer for
/// the worst case (z1_max_compressed_size).
std::uint8_t* emit_sequence(std::uint8_t* op, const std::uint8_t* lit,
                            std::size_t nlit, std::size_t match_len,
                            std::size_t offset) {
  const std::size_t lit_nib = std::min<std::size_t>(nlit, 15);
  std::size_t match_nib = 0;
  if (match_len > 0) {
    match_nib = std::min<std::size_t>(match_len - kMinMatch, 15);
  }
  *op++ = static_cast<std::uint8_t>((lit_nib << 4) | match_nib);
  if (lit_nib == 15) op = put_len_extension(op, nlit - 15);
  std::memcpy(op, lit, nlit);
  op += nlit;
  if (match_len == 0) return op;  // final literal-only sequence: stream ends
  *op++ = static_cast<std::uint8_t>(offset & 0xff);
  *op++ = static_cast<std::uint8_t>(offset >> 8);
  if (match_nib == 15) op = put_len_extension(op, match_len - kMinMatch - 15);
  return op;
}

[[noreturn]] void bad_frame(const char* what) {
  // Typed CorruptError (not plain IoError): a malformed frame is persistent
  // damage — the serving tier quarantines/repairs instead of retrying.
  throw CorruptError(std::string("z1 frame: ") + what);
}

}  // namespace

bool z1_probe_compressible(const void* src_v, std::size_t len) {
  if (len < kProbeMinLen) return true;
  const auto* src = static_cast<const std::uint8_t*>(src_v);
  // Odd stride so the samples rotate through the byte lanes of any 4-byte
  // element structure instead of pinning to one lane.
  const std::size_t stride =
      std::max<std::size_t>(1, len / kProbeSamples) | 1u;
  std::uint32_t hist[256] = {};
  std::size_t count = 0;
  std::size_t periodic = 0;
  for (std::size_t i = 0; i < len; i += stride) {
    ++hist[src[i]];
    ++count;
    if (i >= 4 && src[i] == src[i - 4]) ++periodic;
  }
  // 4-byte-periodic mass (kInf runs, constant dist_t regions) compresses
  // regardless of what the byte histogram says.
  if (periodic * 2 >= count) return true;
  double entropy = 0.0;
  for (std::uint32_t c : hist) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(count);
    entropy -= p * std::log2(p);
  }
  return entropy < kProbeEntropyBits;
}

std::size_t z1_max_compressed_size(std::size_t len) {
  // Literal-only frame: header, token, 255-continuation extension, literals.
  // It bounds the greedy parse too: a match sequence spends 3 bytes plus
  // its match extension on at least 4 matched bytes, which pays for the
  // extra token and literal extension it splits off.
  return kFrameHeaderBytes + 1 + (len / 255 + 1) + len;
}

void z1_compress(const void* src_v, std::size_t len,
                 std::vector<std::uint8_t>& out) {
  const auto* src = static_cast<const std::uint8_t*>(src_v);
  GAPSP_CHECK(len < (1ull << 32) - 2, "z1 input too large");
  // Sequences go through a pointer into scratch sized for the worst case,
  // then one copy into `out`, so `out` grows to exactly the frame size: its
  // capacity is what TransferCodec notes as pinned staging memory.
  thread_local std::vector<std::uint8_t> scratch;
  scratch.resize(std::max(scratch.size(), z1_max_compressed_size(len)));
  std::uint8_t* const base = scratch.data();
  std::uint8_t* op = base + kFrameHeaderBytes;
  put_u64(base, len);
  put_u64(base + 8, xxh64(src, len));
  const auto finish = [&] {
    out.assign(base, op);
    if (scratch.size() > kScratchKeepBytes) {
      scratch.clear();
      scratch.shrink_to_fit();
    }
  };
  if (len == 0) return finish();

  if (!z1_probe_compressible(src, len)) {
    // Incompressible early-out: one literal-only sequence, no matching.
    op = emit_sequence(op, src, len, 0, 0);
    return finish();
  }

  std::vector<std::uint32_t> table(1u << kHashBits, 0);  // position + 1
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  // Matches must not start within the last kMinMatch bytes (nothing to
  // compare a 4-byte probe against); those trail out as final literals.
  const std::size_t match_limit = len >= kMinMatch ? len - kMinMatch + 1 : 0;
  while (pos < match_limit) {
    std::size_t match_pos = 0;
    bool found = false;
    // Fast path for 4-byte-periodic runs: a tile of kInf (or any constant
    // dist_t region) matches itself at offset 4, so long runs are consumed
    // without probing the hash table at every byte.
    if (pos >= 4 && load32(src + pos) == load32(src + pos - 4)) {
      match_pos = pos - 4;
      found = true;
    } else {
      const std::uint32_t v = load32(src + pos);
      const std::size_t h = hash32(v);
      const std::uint32_t cand = table[h];
      table[h] = static_cast<std::uint32_t>(pos + 1);
      if (cand != 0) {
        const std::size_t c = cand - 1;
        if (pos - c <= kMaxOffset && load32(src + c) == v) {
          match_pos = c;
          found = true;
        }
      }
    }
    if (!found) {
      ++pos;
      continue;
    }
    // Byte compare on purpose: a word-XOR/ctz extension measured slower,
    // since the average match is ~4 bytes and it makes the next position
    // wait on the compare result.
    std::size_t match_len = kMinMatch;
    while (pos + match_len < len &&
           src[match_pos + match_len] == src[pos + match_len]) {
      ++match_len;
    }
    op = emit_sequence(op, src + lit_start, pos - lit_start, match_len,
                       pos - match_pos);
    // Seed the table at the match head so the next occurrence of this
    // content is findable; skipping the interior keeps compression O(len).
    if (pos + match_len < match_limit) {
      table[hash32(load32(src + pos))] = static_cast<std::uint32_t>(pos + 1);
    }
    pos += match_len;
    lit_start = pos;
  }
  // The stream must end with a literal-only sequence (possibly empty): the
  // decoder recognizes the end of the frame as "input exhausted right after
  // the literals".
  op = emit_sequence(op, src + lit_start, len - lit_start, 0, 0);
  finish();
}

std::vector<std::uint8_t> z1_compress(const void* src, std::size_t len) {
  std::vector<std::uint8_t> out;
  z1_compress(src, len, out);
  return out;
}

std::uint64_t z1_raw_size(const std::uint8_t* frame, std::size_t frame_len) {
  if (frame_len < kFrameHeaderBytes) bad_frame("truncated header");
  return get_u64(frame);
}

std::uint64_t xxh64(const void* data, std::size_t len) {
  // Little-endian lanes via memcpy, like every other gapsp on-disk field.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t i = 0;
  std::uint64_t h = kP5;
  if (len >= 32) {
    std::uint64_t v1 = kP1 + kP2;
    std::uint64_t v2 = kP2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kP1;
    for (; i + 32 <= len; i += 32) {
      v1 = xxh_round(v1, load64(p + i));
      v2 = xxh_round(v2, load64(p + i + 8));
      v3 = xxh_round(v3, load64(p + i + 16));
      v4 = xxh_round(v4, load64(p + i + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  }
  h += len;
  for (; i + 8 <= len; i += 8) {
    h = std::rotl(h ^ xxh_round(0, load64(p + i)), 27) * kP1 + kP4;
  }
  if (i + 4 <= len) {
    h = std::rotl(h ^ (load32(p + i) * kP1), 23) * kP2 + kP3;
    i += 4;
  }
  for (; i < len; ++i) h = std::rotl(h ^ (p[i] * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

void z1_require_frame_format(std::uint64_t format, const std::string& path) {
  if (format == kZ1FrameFormat) return;
  throw IoError(path + ": z1 frame format " + std::to_string(format) +
                " is not readable by this build (it reads format " +
                std::to_string(kZ1FrameFormat) +
                "); re-solve with `apsp_cli --keep-store`, then re-run "
                "`apsp_cli shard` if the store was sharded");
}

void z1_decompress(const std::uint8_t* frame, std::size_t frame_len,
                   void* dst_v, std::size_t dst_len) {
  if (frame_len < kFrameHeaderBytes) bad_frame("truncated header");
  const std::uint64_t raw_len = get_u64(frame);
  const std::uint64_t want_sum = get_u64(frame + 8);
  if (raw_len != dst_len) bad_frame("destination size mismatch");
  auto* dst = static_cast<std::uint8_t*>(dst_v);
  const std::uint8_t* ip = frame + kFrameHeaderBytes;
  const std::uint8_t* const end = frame + frame_len;
  std::size_t op = 0;

  // Bounds-checked 255-continuation length reader. The accumulated value is
  // capped by the output that could still legally be produced, so a
  // malicious run of 0xff bytes cannot overflow the accumulator.
  const auto read_extension = [&](std::size_t base) -> std::size_t {
    std::size_t v = base;
    while (true) {
      if (ip >= end) bad_frame("truncated length");
      const std::uint8_t b = *ip++;
      v += b;
      if (v > dst_len) bad_frame("length exceeds output");
      if (b != 255) return v;
    }
  };

  if (raw_len == 0) {
    if (ip != end) bad_frame("trailing bytes after empty frame");
    return;
  }
  while (true) {
    if (ip >= end) bad_frame("missing final sequence");
    const std::uint8_t token = *ip++;
    std::size_t nlit = token >> 4;
    if (nlit < 15 && static_cast<std::size_t>(end - ip) >= kWildLiteral &&
        dst_len - op >= kWildLiteral) {
      // Fast path: a short run, with 16 bytes readable and writable, moves
      // as one fixed-size block (nlit <= 14 fits both bounds).
      std::memcpy(dst + op, ip, kWildLiteral);
    } else {
      if (nlit == 15) nlit = read_extension(15);
      if (nlit > static_cast<std::size_t>(end - ip)) {
        bad_frame("literals overrun input");
      }
      if (nlit > dst_len - op) bad_frame("literals overrun output");
      std::memcpy(dst + op, ip, nlit);
    }
    ip += nlit;
    op += nlit;
    if (ip == end) break;  // final sequence carries no match
    if (end - ip < 2) bad_frame("truncated offset");
    const std::size_t offset =
        static_cast<std::size_t>(ip[0]) | (static_cast<std::size_t>(ip[1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) bad_frame("offset outside produced output");
    std::size_t match_len = (token & 0x0f) + kMinMatch;
    if ((token & 0x0f) == 15) match_len = read_extension(match_len);
    if (match_len > dst_len - op) bad_frame("match overruns output");
    const std::uint8_t* from = dst + op - offset;
    std::uint8_t* to = dst + op;
    // Fast path when the match rounded up to whole chunks stays inside the
    // output. Offsets >= 8 copy chunk by chunk: each chunk reads only bytes
    // already final. Offset 4 (kInf runs) repeats its 4-byte pattern.
    const std::size_t chunked = (match_len + kWildChunk - 1) & ~(kWildChunk - 1);
    if (chunked <= dst_len - op && offset >= kWildChunk) {
      for (std::size_t i = 0; i < chunked; i += kWildChunk) {
        std::memcpy(to + i, from + i, kWildChunk);
      }
    } else if (chunked <= dst_len - op && offset == 4) {
      const std::uint64_t pattern = load32(from) * 0x100000001ull;
      for (std::size_t i = 0; i < chunked; i += kWildChunk) {
        std::memcpy(to + i, &pattern, kWildChunk);
      }
    } else {
      // Byte-by-byte: offsets shorter than the match length copy the run
      // they are producing.
      for (std::size_t i = 0; i < match_len; ++i) to[i] = from[i];
    }
    op += match_len;
  }
  if (op != raw_len) bad_frame("short output");
  if (xxh64(dst, dst_len) != want_sum) bad_frame("content checksum mismatch");
}

}  // namespace gapsp::core
