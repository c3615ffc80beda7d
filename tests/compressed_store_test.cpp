// Block-compressed store (GAPSPZ1, DESIGN.md §11) coverage: the z1 codec on
// known patterns, its XXH64 content checksum, the frame-body pin, the
// decoder's fast-path edges against hand-built frames, the store against
// the raw DistStore oracle (full decompress must be bit-identical),
// compaction as the one raw→GAPSPZ1 converter and open_store's rejection of
// raw matrices and of other frame formats, directory-answered all-kInf
// tiles, corruption rejection, and the compressed checkpoint sidecar
// payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.h"
#include "core/checkpoint.h"
#include "core/compressed_store.h"
#include "core/shard_store.h"
#include "graph/generators.h"
#include "test_util.h"
#include "util/rng.h"

namespace gapsp::core {
namespace {

std::string tmp_path(const char* tag) {
  return ::testing::TempDir() + "gapsp_zstore_" + tag + ".bin";
}

std::uint64_t file_size(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<std::uint64_t>(size);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
  std::fclose(f);
  return buf;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  std::fclose(f);
}

void expect_round_trip(const std::vector<std::uint8_t>& raw) {
  const auto frame = z1_compress(raw.data(), raw.size());
  ASSERT_EQ(z1_raw_size(frame.data(), frame.size()), raw.size());
  std::vector<std::uint8_t> back(raw.size());
  z1_decompress(frame.data(), frame.size(), back.data(), back.size());
  EXPECT_EQ(back, raw);
}

/// `components` disjoint side×side grid components — road-like structure
/// where (components−1)/components of all pairs are unreachable, i.e. the
/// kInf-dominated regime the compressed store targets.
graph::CsrGraph disjoint_grids(int components, vidx_t side,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  const vidx_t per = side * side;
  for (int c = 0; c < components; ++c) {
    const vidx_t base = static_cast<vidx_t>(c) * per;
    for (vidx_t r = 0; r < side; ++r) {
      for (vidx_t col = 0; col < side; ++col) {
        const vidx_t v = base + r * side + col;
        if (col + 1 < side) {
          edges.push_back({v, v + 1, static_cast<dist_t>(rng.next_in(1, 9))});
        }
        if (r + 1 < side) {
          edges.push_back(
              {v, v + side, static_cast<dist_t>(rng.next_in(1, 9))});
        }
      }
    }
  }
  return graph::CsrGraph::from_edges(static_cast<vidx_t>(components) * per,
                                     std::move(edges), true);
}

std::unique_ptr<DistStore> solve_to_ram(const graph::CsrGraph& g) {
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.algorithm = Algorithm::kJohnson;
  auto store = make_ram_store(g.num_vertices());
  solve_apsp(g, o, *store);
  return store;
}

void expect_stores_bit_identical(const DistStore& a, const DistStore& b) {
  ASSERT_EQ(a.n(), b.n());
  const vidx_t n = a.n();
  std::vector<dist_t> ra(static_cast<std::size_t>(n));
  std::vector<dist_t> rb(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    a.read_block(r, 0, 1, n, ra.data(), ra.size());
    b.read_block(r, 0, 1, n, rb.data(), rb.size());
    ASSERT_EQ(ra, rb) << "row " << r;
  }
}

/// Builds a z1 frame sequence by sequence next to the bytes it must decode
/// to: an oracle for the decoder that does not go through the encoder.
struct FrameBuilder {
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> raw;

  void put_len(std::size_t rem) {
    for (; rem >= 255; rem -= 255) body.push_back(255);
    body.push_back(static_cast<std::uint8_t>(rem));
  }
  /// Literals, then a match of `match_len` at `offset` (0 = final sequence).
  void sequence(const std::vector<std::uint8_t>& lits, std::size_t offset,
                std::size_t match_len) {
    const std::size_t lit_nib = std::min<std::size_t>(lits.size(), 15);
    const std::size_t match_nib =
        match_len == 0 ? 0 : std::min<std::size_t>(match_len - 4, 15);
    body.push_back(static_cast<std::uint8_t>((lit_nib << 4) | match_nib));
    if (lit_nib == 15) put_len(lits.size() - 15);
    body.insert(body.end(), lits.begin(), lits.end());
    raw.insert(raw.end(), lits.begin(), lits.end());
    if (match_len == 0) return;
    body.push_back(static_cast<std::uint8_t>(offset & 0xff));
    body.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (match_nib == 15) put_len(match_len - 4 - 15);
    for (std::size_t i = 0; i < match_len; ++i) {
      raw.push_back(raw[raw.size() - offset]);
    }
  }
  std::vector<std::uint8_t> frame() const {
    std::vector<std::uint8_t> f(16);
    const std::uint64_t len = raw.size();
    const std::uint64_t sum = xxh64(raw.data(), raw.size());
    std::memcpy(f.data(), &len, 8);
    std::memcpy(f.data() + 8, &sum, 8);
    f.insert(f.end(), body.begin(), body.end());
    return f;
  }
};

std::vector<std::uint8_t> ramp(std::size_t len, std::uint8_t start) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::uint8_t>(start + 29 * i);
  }
  return v;
}

/// One literal run of `lead` bytes, a match at `offset`, then `tail` final
/// literals: the match ends `tail` bytes before the output end and 1 + tail
/// bytes before the frame end.
FrameBuilder one_match(std::size_t lead, std::size_t offset,
                       std::size_t match_len, std::size_t tail) {
  FrameBuilder b;
  b.sequence(ramp(lead, 3), offset, match_len);
  b.sequence(ramp(tail, 101), 0, 0);
  return b;
}

/// Decodes `frame` from an exact-size copy into an exact-size buffer, so a
/// sanitizer build sees any read or write past either end.
std::vector<std::uint8_t> decode_exact(const std::vector<std::uint8_t>& frame,
                                       std::size_t cut, std::size_t dst_len) {
  const std::vector<std::uint8_t> in(frame.begin(),
                                     frame.begin() + static_cast<long>(cut));
  std::vector<std::uint8_t> out(dst_len);
  z1_decompress(in.data(), in.size(), out.data(), out.size());
  return out;
}

/// The fixed corpus of the frame-body pin: solved road:24x24 distance tiles
/// (ragged 100-wide grid), an all-kInf tile, random bytes on both sides of
/// the compressibility probe, a small-alphabet random tile (short matches at
/// many offsets) and the u16-offset boundary case.
std::vector<std::vector<std::uint8_t>> pin_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  const auto add = [&](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    corpus.emplace_back(b, b + bytes);
  };
  const auto g = graph::make_road(24, 24, 1);
  const auto ram = solve_to_ram(g);
  const vidx_t n = ram->n();
  const vidx_t tile = 100;
  std::vector<dist_t> buf;
  for (vidx_t r0 = 0; r0 < n; r0 += tile) {
    for (vidx_t c0 = 0; c0 < n; c0 += tile) {
      const vidx_t rows = std::min(tile, n - r0);
      const vidx_t cols = std::min(tile, n - c0);
      buf.resize(static_cast<std::size_t>(rows) * cols);
      ram->read_block(r0, c0, rows, cols, buf.data(),
                      static_cast<std::size_t>(cols));
      add(buf.data(), buf.size() * sizeof(dist_t));
    }
  }
  const std::vector<dist_t> inf(64 * 64, kInf);
  add(inf.data(), inf.size() * sizeof(dist_t));
  Rng rng(7);
  for (const std::size_t len : {std::size_t{1000}, std::size_t{32768}}) {
    std::vector<std::uint8_t> noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
    corpus.push_back(std::move(noise));
  }
  std::vector<std::uint8_t> small(8192);
  for (auto& b : small) b = static_cast<std::uint8_t>(rng.next_below(6));
  corpus.push_back(std::move(small));
  std::vector<std::uint8_t> motif(64);
  for (std::size_t i = 0; i < motif.size(); ++i) {
    motif[i] = static_cast<std::uint8_t>(0xA1 + 37 * i);
  }
  for (const std::size_t gap : {std::size_t{65535}, std::size_t{65536}}) {
    std::vector<std::uint8_t> far(motif);
    far.resize(motif.size() + gap, 0);
    far.insert(far.end(), motif.begin(), motif.end());
    corpus.push_back(std::move(far));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// z1 codec
// ---------------------------------------------------------------------------

TEST(Z1Codec, Xxh64KnownAnswers) {
  EXPECT_EQ(xxh64(nullptr, 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);
}

TEST(Z1Codec, FrameBodiesArePinned) {
  // Digest of every frame minus its 8-byte checksum field over a fixed
  // corpus, recorded before the checksum moved from FNV-1a to XXH64: the
  // greedy parse, hence every frame size and byte on disk or on the
  // modeled wire, must not move.
  std::uint64_t digest = fnv1a(nullptr, 0);
  for (const auto& raw : pin_corpus()) {
    const auto frame = z1_compress(raw.data(), raw.size());
    ASSERT_GE(frame.size(), 16u);
    digest = fnv1a(frame.data(), 8, digest);
    digest = fnv1a(frame.data() + 16, frame.size() - 16, digest);
    std::vector<std::uint8_t> back(raw.size());
    z1_decompress(frame.data(), frame.size(), back.data(), back.size());
    ASSERT_EQ(back, raw);
  }
  EXPECT_EQ(digest, 0x39edc3cc729f0bbaull);
}

TEST(Z1Codec, RoundTripKnownPatterns) {
  expect_round_trip({});
  expect_round_trip({42});
  expect_round_trip({1, 2, 3});  // shorter than the minimum match
  std::vector<std::uint8_t> text;
  const char* s = "the quick brown fox jumps over the quick brown dog";
  text.assign(s, s + std::strlen(s));
  expect_round_trip(text);
  std::vector<std::uint8_t> periodic(4096);
  for (std::size_t i = 0; i < periodic.size(); ++i) {
    periodic[i] = static_cast<std::uint8_t>(i % 4);
  }
  expect_round_trip(periodic);
}

TEST(Z1Codec, AllInfBufferCompressesMassively) {
  std::vector<dist_t> inf(64 * 1024, kInf);
  const std::size_t raw = inf.size() * sizeof(dist_t);
  const auto frame = z1_compress(inf.data(), raw);
  // The kInf-run fast path reduces a constant 256 KiB tile to a handful of
  // sequences; anything under 1% keeps the acceptance ratios comfortable.
  EXPECT_LT(frame.size(), raw / 100);
  std::vector<dist_t> back(inf.size());
  z1_decompress(frame.data(), frame.size(), back.data(), raw);
  EXPECT_EQ(back, inf);
}

TEST(Z1Codec, IncompressibleInputStaysBounded) {
  Rng rng(7);
  std::vector<std::uint8_t> noise(32 * 1024);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto frame = z1_compress(noise.data(), noise.size());
  // Worst case is literals plus token/extension overhead: ~len/255 + header.
  EXPECT_LT(frame.size(), noise.size() + noise.size() / 128 + 64);
  expect_round_trip(noise);
}

TEST(Z1Codec, TruncatedFramesThrow) {
  std::vector<dist_t> data(2048, kInf);
  data[100] = 17;
  data[2000] = 99;
  const auto frame = z1_compress(data.data(), data.size() * sizeof(dist_t));
  std::vector<dist_t> dst(data.size());
  // Every proper prefix must be rejected, never over-read.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(z1_decompress(frame.data(), cut, dst.data(),
                               dst.size() * sizeof(dist_t)),
                 IoError)
        << "prefix length " << cut;
  }
  EXPECT_THROW(z1_raw_size(frame.data(), 15), IoError);
  // Wrong destination size is a mismatch, not a crash.
  EXPECT_THROW(z1_decompress(frame.data(), frame.size(), dst.data(),
                             dst.size() * sizeof(dist_t) - 4),
               IoError);
  // Fast-path edges: matches at offsets 1-8 ending 0-24 bytes before the
  // frame end, every prefix cut into an exact-size buffer (no slack for an
  // over-read to land in).
  for (std::size_t offset = 1; offset <= 8; ++offset) {
    for (const std::size_t match_len : {std::size_t{4}, std::size_t{17}}) {
      for (std::size_t tail = 0; tail <= 24; tail += 3) {
        const FrameBuilder b = one_match(16, offset, match_len, tail);
        const auto f = b.frame();
        EXPECT_EQ(decode_exact(f, f.size(), b.raw.size()), b.raw);
        for (std::size_t cut = 0; cut < f.size(); ++cut) {
          EXPECT_THROW(decode_exact(f, cut, b.raw.size()), IoError)
              << "offset " << offset << " tail " << tail << " cut " << cut;
        }
      }
    }
  }
  // A match or literal run claiming more than the output is rejected near
  // the output end as well as far from it.
  for (const std::size_t tail : {std::size_t{0}, std::size_t{40}}) {
    auto f = one_match(16, 8, 12, tail).frame();
    ++f[16];  // first token: the match grows by one byte
    EXPECT_THROW(decode_exact(f, f.size(), 28 + tail), IoError);
  }
}

TEST(Z1Codec, DegenerateTileSizes) {
  // Empty tile: a header-only frame that decodes to zero bytes (the store
  // never writes one today, but the codec is shared by the transfer path).
  const auto empty = z1_compress(nullptr, 0);
  EXPECT_EQ(z1_raw_size(empty.data(), empty.size()), 0u);
  z1_decompress(empty.data(), empty.size(), nullptr, 0);
  // One-byte and one-element tiles: below the minimum match, literal-only.
  expect_round_trip({0x5a});
  const dist_t one = 12345;
  const auto frame = z1_compress(&one, sizeof(one));
  dist_t back = 0;
  z1_decompress(frame.data(), frame.size(), &back, sizeof(back));
  EXPECT_EQ(back, one);
  // Every size around the decoder's 16-byte literal and 8-byte match
  // blocks: constant, kInf-periodic and short-period content.
  Rng rng(3);
  for (std::size_t len = 0; len <= 72; ++len) {
    std::vector<std::uint8_t> flat(len, 0x5a);
    std::vector<std::uint8_t> periodic(len);
    std::vector<std::uint8_t> mixed(len);
    for (std::size_t i = 0; i < len; ++i) {
      periodic[i] = static_cast<std::uint8_t>(kInf >> (8 * (i % 4)));
      mixed[i] = static_cast<std::uint8_t>(i % 3 == 0 ? rng.next_below(256)
                                                      : i % 7);
    }
    expect_round_trip(flat);
    expect_round_trip(periodic);
    expect_round_trip(mixed);
  }
  // Hand-built frames: offsets 1-8 right at the start of the output
  // (lead == offset) and far from it, each match ending 0-33 bytes before
  // the output end, so both the fast path and the bounds-checked
  // fallback see every offset near both ends.
  for (std::size_t offset = 1; offset <= 8; ++offset) {
    for (const std::size_t lead : {offset, std::size_t{40}}) {
      for (const std::size_t match_len :
           {std::size_t{4}, std::size_t{8}, std::size_t{9}, std::size_t{18},
            std::size_t{19}, std::size_t{300}}) {
        for (std::size_t tail = 0; tail <= 33; ++tail) {
          const FrameBuilder b = one_match(lead, offset, match_len, tail);
          EXPECT_EQ(decode_exact(b.frame(), b.frame().size(), b.raw.size()),
                    b.raw)
              << "offset " << offset << " lead " << lead << " match "
              << match_len << " tail " << tail;
        }
      }
    }
  }
}

TEST(Z1Codec, MatchOffsetsAtTheU16Boundary) {
  // Two copies of a distinctive 64-byte motif separated by runs of zeros
  // sized around the u16 match-offset limit. The hash probe sees the far
  // first copy; an encoder that emitted its distance unchecked would wrap
  // the u16 offset field and decode garbage (caught as a round-trip
  // mismatch or a checksum throw). Straddle the limit from both sides.
  std::vector<std::uint8_t> motif(64);
  for (std::size_t i = 0; i < motif.size(); ++i) {
    motif[i] = static_cast<std::uint8_t>(0xA1 + 37 * i);
  }
  for (const std::size_t gap :
       {std::size_t{65400}, std::size_t{65471}, std::size_t{65535},
        std::size_t{65536}, std::size_t{65600}}) {
    std::vector<std::uint8_t> buf;
    buf.insert(buf.end(), motif.begin(), motif.end());
    buf.resize(motif.size() + gap, 0);
    buf.insert(buf.end(), motif.begin(), motif.end());
    expect_round_trip(buf);
  }
  // The far copy ending 0-33 bytes before the output end: the longest
  // offset meets the chunked match copy's end-of-buffer fallback.
  for (std::size_t tail = 0; tail <= 33; ++tail) {
    std::vector<std::uint8_t> buf(motif);
    buf.resize(65535, 0);  // second copy at the largest legal offset
    buf.insert(buf.end(), motif.begin(), motif.end());
    for (std::size_t i = 0; i < tail; ++i) {
      buf.push_back(static_cast<std::uint8_t>(0x40 + 11 * i));
    }
    expect_round_trip(buf);
  }
  for (const std::size_t tail : {std::size_t{0}, std::size_t{7},
                                 std::size_t{31}, std::size_t{32}}) {
    FrameBuilder b;
    b.sequence(ramp(65535, 9), 65535, 24);
    b.sequence(ramp(tail, 77), 0, 0);
    EXPECT_EQ(decode_exact(b.frame(), b.frame().size(), b.raw.size()), b.raw);
  }
  // Total sizes at the boundary as well (length-extension edge cases).
  for (const std::size_t len :
       {std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    std::vector<std::uint8_t> buf(len);
    for (std::size_t i = 0; i < len; ++i) {
      buf[i] = static_cast<std::uint8_t>(i % 251);
    }
    expect_round_trip(buf);
  }
}

TEST(Z1Codec, ContentChecksumCatchesPayloadCorruption) {
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i / 7);
  }
  auto frame = z1_compress(data.data(), data.size());
  std::vector<std::uint8_t> dst(data.size());
  // A literal byte flip decodes structurally but must fail the checksum.
  auto bad = frame;
  bad[bad.size() / 2] ^= 0x01;
  EXPECT_THROW(z1_decompress(bad.data(), bad.size(), dst.data(), dst.size()),
               IoError);
}

// ---------------------------------------------------------------------------
// GAPSPZ1 store
// ---------------------------------------------------------------------------

TEST(CompressedStore, BitIdenticalToRawOracle) {
  const auto g = graph::make_road(12, 13, 77);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("oracle");
  const auto cs = write_compressed_store(*ram, zpath, /*tile=*/48);
  EXPECT_EQ(cs.raw_bytes, static_cast<std::uint64_t>(g.num_vertices()) *
                              g.num_vertices() * sizeof(dist_t));
  EXPECT_EQ(cs.compressed_bytes, file_size(zpath));
  const auto z = open_store(zpath);
  EXPECT_EQ(z->tile_size(), 48);
  expect_stores_bit_identical(*ram, *z);
  // Strided partial reads crossing tile boundaries match at().
  std::vector<dist_t> block(5 * 7);
  z->read_block(45, 43, 5, 7, block.data(), 7);
  for (vidx_t r = 0; r < 5; ++r) {
    for (vidx_t c = 0; c < 7; ++c) {
      EXPECT_EQ(block[static_cast<std::size_t>(r) * 7 + c],
                ram->at(45 + r, 43 + c));
    }
  }
  std::remove(zpath.c_str());
}

TEST(CompressedStore, RaggedTilesRoundTrip) {
  // n deliberately not a multiple of the tile side: edge tiles are ragged
  // both ways and must still round-trip exactly.
  const vidx_t n = 30;
  auto ram = make_ram_store(n);
  Rng rng(5);
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  for (vidx_t r = 0; r < n; ++r) {
    for (auto& v : row) {
      v = rng.next_bool(0.3) ? kInf : static_cast<dist_t>(rng.next_below(50));
    }
    ram->write_block(r, 0, 1, n, row.data(), row.size());
  }
  const std::string zpath = tmp_path("ragged");
  write_compressed_store(*ram, zpath, /*tile=*/7);
  const auto z = open_store(zpath);
  expect_stores_bit_identical(*ram, *z);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, CompactConvertsRawAndOpenStoreRejectsIt) {
  const auto g = graph::make_road(10, 10, 31);
  const vidx_t n = g.num_vertices();
  ApspOptions o;
  o.device = test::tiny_device(2u << 20);
  o.algorithm = Algorithm::kJohnson;
  const std::string raw_path = tmp_path("raw");
  {
    auto fs = make_file_store(n, raw_path, /*keep_file=*/true);
    solve_apsp(g, o, *fs);
  }
  auto ram = solve_to_ram(g);

  // A raw matrix is not a kept store: open_store rejects it typed and
  // names the converter.
  EXPECT_FALSE(is_compressed_store(raw_path));
  try {
    open_store(raw_path);
    FAIL() << "open_store served a raw matrix";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("apsp_cli compact"),
              std::string::npos)
        << e.what();
  }
  expect_stores_bit_identical(*ram, *open_file_store(raw_path));

  // Out-of-place compaction leaves the raw file usable and both agree.
  const std::string zpath = tmp_path("z");
  const auto cs = compact_store(raw_path, zpath, /*tile=*/32);
  EXPECT_GT(cs.ratio(), 1.0);
  EXPECT_TRUE(is_compressed_store(zpath));
  EXPECT_FALSE(is_compressed_store(raw_path));
  expect_stores_bit_identical(*ram, *open_store(zpath));

  const auto info = compressed_store_info(zpath);
  EXPECT_EQ(info.n, n);
  EXPECT_EQ(info.tile, 32);
  EXPECT_EQ(info.tiles_per_side, (n + 31) / 32);
  EXPECT_EQ(info.file_bytes, file_size(zpath));
  EXPECT_EQ(info.tiles, static_cast<long long>(info.tiles_per_side) *
                            info.tiles_per_side);

  // In-place compaction replaces the raw file; compacting twice is an error
  // (double compression would silently store garbage geometry).
  const auto cs2 = compact_store(raw_path, raw_path);
  EXPECT_TRUE(is_compressed_store(raw_path));
  EXPECT_EQ(cs2.raw_bytes, cs.raw_bytes);
  EXPECT_THROW(compact_store(raw_path, raw_path), IoError);
  expect_stores_bit_identical(*ram, *open_store(raw_path));

  std::remove(raw_path.c_str());
  std::remove(zpath.c_str());
}

TEST(CompressedStore, KnownInfTilesServeWithoutPayload) {
  // Two disjoint grids: every cross-component tile is all-kInf and must be
  // a zero-length directory entry answered without touching the payload.
  const auto g = disjoint_grids(2, 8, 11);
  const vidx_t half = g.num_vertices() / 2;
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("kinf");
  const auto cs = write_compressed_store(*ram, zpath, /*tile=*/64);
  EXPECT_GT(cs.inf_tiles, 0);
  const auto z = open_store(zpath);

  EXPECT_TRUE(z->block_known_inf(0, half, half, half));
  EXPECT_TRUE(z->block_known_inf(half, 0, half, half));
  EXPECT_FALSE(z->block_known_inf(0, 0, half, half));  // diagonal has data
  EXPECT_FALSE(z->block_known_inf(0, 0, g.num_vertices(), g.num_vertices()));

  std::vector<dist_t> block(static_cast<std::size_t>(half) * half);
  z->read_block(0, half, half, half, block.data(), half);
  for (const dist_t d : block) EXPECT_EQ(d, kInf);
  expect_stores_bit_identical(*ram, *z);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, KinfDominatedRoadLikeRatioFloor) {
  // Acceptance: ≥4× on a kInf-dominated road-like matrix. Eight disjoint
  // grid components leave 7/8 of all pairs at kInf.
  const auto g = disjoint_grids(8, 8, 23);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("ratio");
  const auto cs = write_compressed_store(*ram, zpath);
  EXPECT_GE(cs.ratio(), 4.0) << cs.raw_bytes << " -> " << cs.compressed_bytes;
  expect_stores_bit_identical(*ram, *open_store(zpath));
  std::remove(zpath.c_str());
}

TEST(CompressedStore, RejectsWritesAndValidatesBounds) {
  const auto g = graph::make_road(6, 6, 3);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("ro");
  write_compressed_store(*ram, zpath, /*tile=*/16);
  const auto z = open_store(zpath);
  dist_t v = 1;
  EXPECT_THROW(z->write_block(0, 0, 1, 1, &v, 1), IoError);
  std::vector<dist_t> out(4);
  EXPECT_THROW(z->read_block(-1, 0, 1, 1, out.data(), 1), Error);
  EXPECT_THROW(z->read_block(0, 0, 1, 1 + g.num_vertices(), out.data(),
                             1 + static_cast<std::size_t>(g.num_vertices())),
               Error);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, CorruptionIsRejectedNotServed) {
  const auto g = graph::make_road(8, 8, 9);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("corrupt");
  write_compressed_store(*ram, zpath, /*tile=*/16);
  const auto pristine = read_file(zpath);

  // Flipped directory byte: rejected at open by the directory checksum.
  auto bad = pristine;
  bad[64 + 3] ^= 0xff;
  write_file(zpath, bad);
  EXPECT_THROW(open_store(zpath), IoError);

  // Truncated payload: directory entries point past EOF.
  bad = pristine;
  bad.resize(bad.size() - 9);
  write_file(zpath, bad);
  EXPECT_THROW(open_store(zpath), IoError);

  // Flipped payload byte: open succeeds (directory intact) but the tile
  // read fails its frame validation instead of returning wrong distances.
  bad = pristine;
  bad[bad.size() - 5] ^= 0x10;
  write_file(zpath, bad);
  const auto z = open_store(zpath);
  const vidx_t n = g.num_vertices();
  std::vector<dist_t> row(static_cast<std::size_t>(n));
  EXPECT_THROW(
      {
        for (vidx_t r = 0; r < n; ++r) {
          z->read_block(r, 0, 1, n, row.data(), row.size());
        }
      },
      IoError);

  // Not-a-store inputs.
  write_file(zpath, {'G', 'A'});
  EXPECT_FALSE(is_compressed_store(zpath));
  EXPECT_THROW(compressed_store_info(zpath), IoError);
  std::remove(zpath.c_str());
}

TEST(CompressedStore, OtherFrameFormatsAreRejectedAtOpen) {
  const auto g = graph::make_road(8, 8, 9);
  const auto ram = solve_to_ram(g);
  const std::string zpath = tmp_path("format");
  // A version mismatch is not damage: plain IoError naming the re-solve.
  const auto expect_format_error = [](const auto& open) {
    try {
      open();
      ADD_FAILURE() << "opened a frame_format 0 file";
    } catch (const CorruptError& e) {
      ADD_FAILURE() << "format mismatch reported as damage: " << e.what();
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("--keep-store"), std::string::npos)
          << e.what();
    }
  };
  const auto set_format = [](const std::string& path, std::size_t at,
                             std::uint64_t format) {
    auto bytes = read_file(path);
    std::uint64_t was = 0;
    std::memcpy(&was, bytes.data() + at, sizeof(was));
    EXPECT_EQ(was, kZ1FrameFormat) << path;
    std::memcpy(bytes.data() + at, &format, sizeof(format));
    write_file(path, bytes);
  };

  // GAPSPZ1: frame_format is the header's u64 at byte 48.
  write_compressed_store(*ram, zpath, /*tile=*/16);
  set_format(zpath, 48, 0);
  expect_format_error([&] { open_store(zpath); });
  expect_format_error([&] { compressed_store_info(zpath); });
  expect_format_error([&] { shard_store_file(zpath, 2); });

  // GAPSPSD1: frame_format is the slice header's u64 at byte 56.
  write_compressed_store(*ram, zpath, /*tile=*/16);
  const ShardManifest m = shard_store_file(zpath, 2);
  EXPECT_NE(open_shard_slice(zpath, m, 0), nullptr);
  set_format(shard_file_path(zpath, 0), 56, 0);
  expect_format_error([&] { open_shard_slice(zpath, m, 0, /*verify=*/false); });
  // The whole-file check against the manifest sees the edit first.
  EXPECT_THROW(open_shard_slice(zpath, m, 0, /*verify=*/true), CorruptError);
  EXPECT_NE(open_shard_slice(zpath, m, 1), nullptr);

  for (int k = 0; k < m.num_shards(); ++k) {
    std::remove(shard_file_path(zpath, k).c_str());
  }
  std::remove(shard_manifest_path(zpath).c_str());
  std::remove(zpath.c_str());
}

// ---------------------------------------------------------------------------
// Compressed checkpoint sidecars
// ---------------------------------------------------------------------------

TEST(CompressedCheckpoint, SidecarPayloadShrinksAndRoundTrips) {
  Checkpoint ck;
  ck.algorithm = 3;
  ck.fingerprint = 0xfeedbeef;
  ck.progress = 7;
  ck.aux0 = 1;
  ck.aux1 = 2;
  // A boundary-style blob: distance data dominated by kInf runs.
  std::vector<dist_t> dists(64 * 1024, kInf);
  for (std::size_t i = 0; i < dists.size(); i += 97) {
    dists[i] = static_cast<dist_t>(i);
  }
  ck.payload.resize(dists.size() * sizeof(dist_t));
  std::memcpy(ck.payload.data(), dists.data(), ck.payload.size());

  const std::string path = tmp_path("ck");
  write_checkpoint(path, ck);
  // The sink compressed: the sidecar is far smaller than the raw payload.
  EXPECT_LT(file_size(path), ck.payload.size() / 4);

  Checkpoint back;
  ASSERT_TRUE(read_checkpoint(path, &back));
  EXPECT_EQ(back.algorithm, ck.algorithm);
  EXPECT_EQ(back.fingerprint, ck.fingerprint);
  EXPECT_EQ(back.progress, ck.progress);
  EXPECT_EQ(back.aux0, ck.aux0);
  EXPECT_EQ(back.aux1, ck.aux1);
  EXPECT_EQ(back.payload, ck.payload);  // callers always see raw bytes
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, OlderFrameFormatPayloadStartsFresh) {
  // A sidecar whose compressed payload carries a format-0 frame (FNV-1a
  // content checksum) under a valid outer checksum: there is no decode
  // path for it, so resume declines and the run starts over.
  Checkpoint ck;
  ck.algorithm = 2;
  ck.fingerprint = 5;
  std::vector<dist_t> dists(4096, kInf);
  ck.payload.resize(dists.size() * sizeof(dist_t));
  std::memcpy(ck.payload.data(), dists.data(), ck.payload.size());
  const std::string path = tmp_path("ck_old");
  write_checkpoint(path, ck);
  auto bytes = read_file(path);
  const auto frame = z1_compress(ck.payload.data(), ck.payload.size());
  ASSERT_GT(bytes.size(), frame.size() + 8);
  const std::size_t at = bytes.size() - 8 - frame.size();  // payload start
  ASSERT_TRUE(std::equal(frame.begin(), frame.end(), bytes.begin() + at));
  // The outer checksum is FNV-1a over header + payload.
  const auto reseal_and_read = [&] {
    const std::uint64_t outer = fnv1a(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &outer, sizeof(outer));
    write_file(path, bytes);
    Checkpoint back;
    return read_checkpoint(path, &back);
  };
  EXPECT_TRUE(reseal_and_read());
  const std::uint64_t old_sum = fnv1a(ck.payload.data(), ck.payload.size());
  std::memcpy(bytes.data() + at + 8, &old_sum, sizeof(old_sum));
  EXPECT_FALSE(reseal_and_read());
  std::remove(path.c_str());
}

TEST(CompressedCheckpoint, IncompressiblePayloadStoredRaw) {
  Checkpoint ck;
  ck.algorithm = 1;
  ck.fingerprint = 1;
  Rng rng(13);
  ck.payload.resize(8 * 1024);
  for (auto& b : ck.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::string path = tmp_path("ck_raw");
  write_checkpoint(path, ck);
  // Raw fallback: header + payload + checksum, no compression growth.
  EXPECT_LE(file_size(path), ck.payload.size() + 64 + 8);
  Checkpoint back;
  ASSERT_TRUE(read_checkpoint(path, &back));
  EXPECT_EQ(back.payload, ck.payload);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gapsp::core
