// Bit-plane primitives of the packed binary/ternary kernel tier (see
// nn/gemm_kernels.h for the Tier enum and docs/ARCHITECTURE.md for the
// tier-selection rules).
//
// Layout: an activation row of `len` int8 terms is packed into
// ceil(len / 64) little-endian 64-bit words, one bit per term — bit t of
// the plane is (x[t] == hi) for a two-valued activation tensor {lo, hi}.
// Tail bits past `len` are always ZERO; every popcount identity below
// relies on that (an XOR against a weight mask whose tail is also zero
// contributes nothing), so packers must clear the last partial word.
//
// Exactness: these are integer bit-counting kernels — no rounding anywhere.
// The composed inner product (quant/qplan.h packed_row_dot) equals the int8
// inner product sum_t (x[t] - zp) * w[t] exactly whenever its preconditions
// hold, which is the
// bit-identity contract of the bitpack tier (hard-gated by
// tests/test_bitpack.cpp and the bench.bitpack_smoke ctest entry).
#ifndef BNN_NN_BITPACK_KERNELS_H
#define BNN_NN_BITPACK_KERNELS_H

#include <cstdint>

namespace bnn::nn::kernels {

inline constexpr int kBitWordBits = 64;

// Packed words needed for a row of `len` terms.
inline int bit_words(int len) { return (len + kBitWordBits - 1) / kBitWordBits; }

// Reads bit t of a packed plane (test/reference helper).
inline bool get_bit(const std::uint64_t* bits, int t) {
  return ((bits[t / kBitWordBits] >> (t % kBitWordBits)) & 1ull) != 0;
}

// Packs bits[t] = (x[t] == hi) for t in [0, len); clears tail bits.
// Returns the popcount of the packed plane.
std::int32_t pack_eq_bits(const std::int8_t* x, int len, std::int8_t hi, std::uint64_t* out);

// Gather form: term t reads x[offsets[t]] (the hoisted conv window offsets;
// callers guarantee every offset is in bounds — interior positions only).
std::int32_t pack_eq_bits_gather(const std::int8_t* x, const std::int32_t* offsets, int len,
                                 std::int8_t hi, std::uint64_t* out);

// Total set bits of a plane.
std::int32_t popcount_words(const std::uint64_t* a, int words);

// popcount(a ^ b): the binary-tier XNOR inner product core (Hamming
// distance between the activation plane and a weight sign plane).
std::int32_t popcount_xor(const std::uint64_t* a, const std::uint64_t* b, int words);

// popcount(a & b).
std::int32_t popcount_and(const std::uint64_t* a, const std::uint64_t* b, int words);

// Fused ternary form: *pb = popcount(x & plus), *mb = popcount(x & minus)
// in one pass over the planes (the pass/negate/zero weight encoding).
void popcount_and2(const std::uint64_t* x, const std::uint64_t* plus,
                   const std::uint64_t* minus, int words, std::int32_t* pb, std::int32_t* mb);

}  // namespace bnn::nn::kernels

#endif  // BNN_NN_BITPACK_KERNELS_H
