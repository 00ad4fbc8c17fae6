#include <gtest/gtest.h>

#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/uint256.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

#include <string>

namespace ripki::crypto {
namespace {

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// --- SHA-256: FIPS 180-4 / NIST test vectors -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(digest_hex(hasher.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte input exercises the "padding spills to a second block" path.
  const std::string input(64, 'x');
  const Digest one_shot = sha256(input);
  Sha256 incremental;
  incremental.update(input.substr(0, 13));
  incremental.update(input.substr(13));
  EXPECT_EQ(one_shot, incremental.finish());
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string input =
      "The quick brown fox jumps over the lazy dog, repeatedly and at length, "
      "to exercise multi-block hashing with odd chunk boundaries.";
  for (std::size_t chunk : {1u, 3u, 7u, 64u, 100u}) {
    Sha256 hasher;
    for (std::size_t i = 0; i < input.size(); i += chunk) {
      hasher.update(std::string_view(input).substr(i, chunk));
    }
    EXPECT_EQ(hasher.finish(), sha256(input)) << "chunk=" << chunk;
  }
}

// --- U256 --------------------------------------------------------------------

TEST(U256, ByteRoundTrip) {
  util::Prng prng(5);
  for (int i = 0; i < 50; ++i) {
    const U256 x = U256::random_bits(prng, 256);
    const auto bytes = x.to_bytes_be();
    EXPECT_EQ(U256::from_bytes_be(bytes.data(), bytes.size()), x);
  }
}

TEST(U256, HexFormat) {
  EXPECT_EQ(U256(0xDEADBEEF).to_hex(),
            "00000000000000000000000000000000000000000000000000000000deadbeef");
}

TEST(U256, CompareAndBitLength) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_EQ(U256(0).bit_length(), 0);
  EXPECT_EQ(U256(1).bit_length(), 1);
  EXPECT_EQ(U256(255).bit_length(), 8);
  const U256 big(1, 0, 0, 0);  // 2^192
  EXPECT_EQ(big.bit_length(), 193);
  EXPECT_GT(big, U256(UINT64_MAX));
}

TEST(U256, AddSubInverse) {
  util::Prng prng(6);
  for (int i = 0; i < 100; ++i) {
    const U256 a = U256::random_bits(prng, 200);
    const U256 b = U256::random_bits(prng, 190);
    EXPECT_EQ(a.add(b).sub(b), a);
    EXPECT_EQ(a.add(b).sub(a), b);
  }
}

TEST(U256, ShiftInverse) {
  util::Prng prng(7);
  for (int i = 0; i < 50; ++i) {
    const U256 a = U256::random_bits(prng, 255);
    EXPECT_EQ(a.shl1().shr1(), a);
  }
}

TEST(U256, DivModIdentity) {
  util::Prng prng(8);
  for (int i = 0; i < 60; ++i) {
    const U256 a = U256::random_bits(prng, 250);
    const U256 d = U256::random_bits(prng, 2 + static_cast<int>(prng.uniform(200)));
    U256 rem;
    const U256 q = U256::divmod(a, d, &rem);
    EXPECT_LT(rem, d);
    // a == q*d + rem, verified via mulmod against a modulus > a.
    const U256 big_mod(1ULL << 62, 0, 0, 0);
    const U256 qd = U256::mulmod(q, d, big_mod);
    EXPECT_EQ(qd.add(rem), a);
  }
}

TEST(U256, ModexpSmallNumbers) {
  const U256 m(1000);
  EXPECT_EQ(U256::modexp(U256(2), U256(10), m), U256(24));   // 1024 % 1000
  EXPECT_EQ(U256::modexp(U256(3), U256(0), m), U256(1));
  EXPECT_EQ(U256::modexp(U256(7), U256(1), m), U256(7));
  // Odd modulus exercises the Montgomery path.
  const U256 m2(1009);  // prime
  EXPECT_EQ(U256::modexp(U256(5), U256(1008), m2), U256(1));  // Fermat
}

TEST(U256, MontgomeryMatchesGenericPath) {
  util::Prng prng(9);
  for (int i = 0; i < 30; ++i) {
    U256 m = U256::random_bits(prng, 128);
    if (!m.is_odd()) m = m.add(U256(1));
    const U256 base = U256::random_bits(prng, 100);
    const U256 exp = U256::random_bits(prng, 20);
    // Generic reference: repeated mulmod.
    U256 reference(1);
    reference = U256::mod(reference, m);
    U256 b = U256::mod(base, m);
    for (int bit = 0; bit < exp.bit_length(); ++bit) {
      if (exp.bit(bit)) reference = U256::mulmod(reference, b, m);
      b = U256::mulmod(b, b, m);
    }
    EXPECT_EQ(U256::modexp(base, exp, m), reference);
  }
}

TEST(U256, GcdAndModInverse) {
  EXPECT_EQ(U256::gcd(U256(48), U256(18)), U256(6));
  EXPECT_EQ(U256::gcd(U256(17), U256(5)), U256(1));

  U256 inv;
  ASSERT_TRUE(U256::modinv(U256(3), U256(11), inv));
  EXPECT_EQ(inv, U256(4));  // 3*4 = 12 ≡ 1 mod 11
  EXPECT_FALSE(U256::modinv(U256(4), U256(8), inv));  // gcd != 1

  util::Prng prng(10);
  for (int i = 0; i < 25; ++i) {
    const U256 m = U256::random_bits(prng, 120);
    const U256 a = U256::random_bits(prng, 100);
    if (U256::gcd(a, m) != U256(1)) continue;
    ASSERT_TRUE(U256::modinv(a, m, inv));
    EXPECT_EQ(U256::mulmod(a, inv, m), U256::mod(U256(1), m));
  }
}

TEST(U256, RandomBelowRespectsBound) {
  util::Prng prng(11);
  const U256 bound = U256::random_bits(prng, 130);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(U256::random_below(prng, bound), bound);
  }
}

TEST(U256, RandomBitsSetsTopBit) {
  util::Prng prng(12);
  for (int bits : {2, 8, 64, 65, 128, 200, 256}) {
    const U256 x = U256::random_bits(prng, bits);
    EXPECT_EQ(x.bit_length(), bits);
  }
}

// --- primality ----------------------------------------------------------------

TEST(Primality, KnownSmallPrimes) {
  util::Prng prng(13);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 97ULL, 101ULL, 65537ULL}) {
    EXPECT_TRUE(is_probable_prime(U256(p), prng)) << p;
  }
  for (std::uint64_t c : {0ULL, 1ULL, 4ULL, 100ULL, 65535ULL, 99ULL}) {
    EXPECT_FALSE(is_probable_prime(U256(c), prng)) << c;
  }
}

TEST(Primality, LargeKnownPrime) {
  util::Prng prng(14);
  // 2^127 - 1 is a Mersenne prime.
  const U256 m127 = U256(0, 0, 0x7FFFFFFFFFFFFFFFULL, UINT64_MAX);
  EXPECT_TRUE(is_probable_prime(m127, prng));
  EXPECT_FALSE(is_probable_prime(m127.add(U256(2)), prng));
}

TEST(Primality, GeneratedPrimesHaveRequestedSize) {
  util::Prng prng(15);
  for (int i = 0; i < 3; ++i) {
    const U256 p = generate_prime(prng, 128);
    EXPECT_EQ(p.bit_length(), 128);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, prng));
  }
}

// --- RSA -----------------------------------------------------------------------

TEST(Rsa, SignVerifyRoundTrip) {
  util::Prng prng(16);
  const KeyPair keys = generate_keypair(prng);
  const std::string message = "route origin authorization";
  const Signature sig = sign(keys.priv, as_span(message));
  EXPECT_TRUE(verify(keys.pub, as_span(message), sig));
}

TEST(Rsa, TamperedMessageFails) {
  util::Prng prng(17);
  const KeyPair keys = generate_keypair(prng);
  const std::string message = "authentic bytes";
  const Signature sig = sign(keys.priv, as_span(message));
  const std::string tampered = "authentic byteZ";
  EXPECT_FALSE(verify(keys.pub, as_span(tampered), sig));
}

TEST(Rsa, TamperedSignatureFails) {
  util::Prng prng(18);
  const KeyPair keys = generate_keypair(prng);
  const std::string message = "authentic bytes";
  Signature sig = sign(keys.priv, as_span(message));
  sig[31] ^= 0x01;
  EXPECT_FALSE(verify(keys.pub, as_span(message), sig));
}

TEST(Rsa, WrongKeyFails) {
  util::Prng prng(19);
  const KeyPair a = generate_keypair(prng);
  const KeyPair b = generate_keypair(prng);
  const std::string message = "signed by a";
  const Signature sig = sign(a.priv, as_span(message));
  EXPECT_FALSE(verify(b.pub, as_span(message), sig));
}

TEST(Rsa, KeyIdIsStable) {
  util::Prng prng(20);
  const KeyPair keys = generate_keypair(prng);
  EXPECT_EQ(keys.pub.key_id(), keys.pub.key_id());
  const KeyPair other = generate_keypair(prng);
  EXPECT_NE(keys.pub.key_id(), other.pub.key_id());
}

TEST(Rsa, PublicKeyEncodingRoundTrip) {
  util::Prng prng(21);
  const KeyPair keys = generate_keypair(prng);
  const auto bytes = encode_public_key(keys.pub);
  const PublicKey decoded = decode_public_key(bytes);
  EXPECT_EQ(decoded, keys.pub);
}

TEST(Rsa, DistinctKeypairs) {
  util::Prng prng(22);
  const KeyPair a = generate_keypair(prng);
  const KeyPair b = generate_keypair(prng);
  EXPECT_NE(a.pub.n, b.pub.n);
}

// --- Fast modexp vs schoolbook reference -----------------------------------

TEST(U256, FixedWindowMatchesSchoolbook) {
  // Exponent widths straddle the binary-ladder/fixed-window dispatch
  // threshold (64 bits) so both Montgomery ladders are exercised against
  // the division-based reference.
  util::Prng prng(23);
  for (const int exp_bits : {1, 8, 40, 63, 64, 65, 128, 200, 254}) {
    for (int i = 0; i < 10; ++i) {
      U256 m = U256::random_bits(prng, 256);
      if (!m.is_odd()) m = m.add(U256(1));
      const U256 base = U256::random_bits(prng, 256);
      const U256 exp = U256::random_bits(prng, exp_bits);
      EXPECT_EQ(U256::modexp(base, exp, m), U256::modexp_schoolbook(base, exp, m))
          << "exp_bits=" << exp_bits << " iter=" << i;
    }
  }
}

TEST(U256, ModexpEvenModulusMatchesSchoolbook) {
  // Even moduli cannot take the Montgomery path; the dispatcher must fall
  // back to the generic reduction and still agree with the reference.
  util::Prng prng(24);
  for (int i = 0; i < 20; ++i) {
    U256 m = U256::random_bits(prng, 180);
    if (m.is_odd()) m = m.add(U256(1));
    const U256 base = U256::random_bits(prng, 200);
    const U256 exp = U256::random_bits(prng, 90);
    EXPECT_EQ(U256::modexp(base, exp, m), U256::modexp_schoolbook(base, exp, m));
  }
}

TEST(U256, ModexpEdgeExponents) {
  util::Prng prng(25);
  U256 m = U256::random_bits(prng, 256);
  if (!m.is_odd()) m = m.add(U256(1));
  const U256 base = U256::random_bits(prng, 255);
  EXPECT_EQ(U256::modexp(base, U256(0), m), U256::mod(U256(1), m));
  EXPECT_EQ(U256::modexp(base, U256(1), m), U256::mod(base, m));
  // RSA's public exponent, the short-ladder hot case.
  EXPECT_EQ(U256::modexp(base, U256(65537), m),
            U256::modexp_schoolbook(base, U256(65537), m));
  EXPECT_EQ(U256::modexp(base, U256(65537), U256(1)), U256(0));  // m == 1
}

TEST(U256, ModexpThreadLocalContextSurvivesModulusSwitch) {
  // The per-modulus Montgomery memo must not leak state across moduli
  // when a caller alternates between keys (validator walking two CAs).
  util::Prng prng(26);
  U256 m1 = U256::random_bits(prng, 200);
  if (!m1.is_odd()) m1 = m1.add(U256(1));
  U256 m2 = U256::random_bits(prng, 200);
  if (!m2.is_odd()) m2 = m2.add(U256(1));
  const U256 base = U256::random_bits(prng, 190);
  const U256 exp = U256::random_bits(prng, 150);
  const U256 want1 = U256::modexp_schoolbook(base, exp, m1);
  const U256 want2 = U256::modexp_schoolbook(base, exp, m2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(U256::modexp(base, exp, m1), want1);
    EXPECT_EQ(U256::modexp(base, exp, m2), want2);
  }
}

TEST(Rsa, EveryBitFlipInSignatureRejected) {
  util::Prng prng(27);
  const KeyPair keys = generate_keypair(prng);
  const std::string message = "route origin authorization payload";
  const Signature good = sign(keys.priv, as_span(message));
  ASSERT_TRUE(verify(keys.pub, as_span(message), good));
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    Signature flipped = good;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(verify(keys.pub, as_span(message), flipped)) << "bit " << bit;
  }
}

TEST(Rsa, WrongModulusAndWrongExponentKeysRejected) {
  util::Prng prng(28);
  const KeyPair keys = generate_keypair(prng);
  const KeyPair other = generate_keypair(prng);
  const std::string message = "signed under keys.priv";
  const Signature sig = sign(keys.priv, as_span(message));

  PublicKey wrong_modulus = keys.pub;
  wrong_modulus.n = other.pub.n;
  EXPECT_FALSE(verify(wrong_modulus, as_span(message), sig));

  PublicKey wrong_exponent = keys.pub;
  wrong_exponent.e = U256(3);
  EXPECT_FALSE(verify(wrong_exponent, as_span(message), sig));
}

TEST(Sha256, OneShotMatchesIncrementalEveryShortLength) {
  // Lengths 0..70 cross the single-block fast-path boundary (55 bytes)
  // and the padding-spills-to-second-block region (56..64).
  for (std::size_t len = 0; len <= 70; ++len) {
    const std::string input(len, static_cast<char>('a' + (len % 26)));
    Sha256 incremental;
    incremental.update(input);
    EXPECT_EQ(digest_hex(sha256(input)), digest_hex(incremental.finish()))
        << "len " << len;
  }
}

}  // namespace
}  // namespace ripki::crypto
