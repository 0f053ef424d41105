#include "support/gf2m.hpp"

#include <gtest/gtest.h>

#include "gf/gf2_16.hpp"
#include "support/gf256.hpp"
#include "util/rng.hpp"

namespace nab::gf {
namespace {

/// Field-axiom property check shared by every width. If the default
/// polynomial for a width were reducible, inverses would break and this
/// fails — so this doubles as an irreducibility check for the polynomial
/// table.
template <class F>
void check_axioms(std::uint64_t seed) {
  rng rand(seed);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<typename F::value_type>(rand.below(F::order));
    const auto b = static_cast<typename F::value_type>(rand.below(F::order));
    const auto c = static_cast<typename F::value_type>(rand.below(F::order));
    ASSERT_EQ(F::mul(a, b), F::mul(b, a));
    ASSERT_EQ(F::mul(F::mul(a, b), c), F::mul(a, F::mul(b, c)));
    ASSERT_EQ(F::mul(a, F::add(b, c)), F::add(F::mul(a, b), F::mul(a, c)));
    ASSERT_EQ(F::mul(a, F::one()), a);
    if (a != 0) {
      ASSERT_EQ(F::mul(a, F::inv(a)), F::one()) << "bits=" << F::bits << " a=" << a;
    }
  }
}

TEST(Gf2m, AxiomsWidth2) { check_axioms<gf2m<2>>(2); }
TEST(Gf2m, AxiomsWidth3) { check_axioms<gf2m<3>>(3); }
TEST(Gf2m, AxiomsWidth4) { check_axioms<gf2m<4>>(4); }
TEST(Gf2m, AxiomsWidth5) { check_axioms<gf2m<5>>(5); }
TEST(Gf2m, AxiomsWidth6) { check_axioms<gf2m<6>>(6); }
TEST(Gf2m, AxiomsWidth7) { check_axioms<gf2m<7>>(7); }
TEST(Gf2m, AxiomsWidth8) { check_axioms<gf2m<8>>(8); }
TEST(Gf2m, AxiomsWidth9) { check_axioms<gf2m<9>>(9); }
TEST(Gf2m, AxiomsWidth10) { check_axioms<gf2m<10>>(10); }
TEST(Gf2m, AxiomsWidth11) { check_axioms<gf2m<11>>(11); }
TEST(Gf2m, AxiomsWidth12) { check_axioms<gf2m<12>>(12); }
TEST(Gf2m, AxiomsWidth13) { check_axioms<gf2m<13>>(13); }
TEST(Gf2m, AxiomsWidth14) { check_axioms<gf2m<14>>(14); }
TEST(Gf2m, AxiomsWidth15) { check_axioms<gf2m<15>>(15); }
TEST(Gf2m, AxiomsWidth16) { check_axioms<gf2m<16>>(16); }
TEST(Gf2m, AxiomsWidth20) { check_axioms<gf2m<20>>(20); }
TEST(Gf2m, AxiomsWidth24) { check_axioms<gf2m<24>>(24); }
TEST(Gf2m, AxiomsWidth32) { check_axioms<gf2m<32>>(32); }

TEST(Gf2m, Width8AgreesWithTableGf256) {
  rng rand(21);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rand.below(256));
    const auto b = static_cast<std::uint8_t>(rand.below(256));
    EXPECT_EQ(gf2m<8>::mul(a, b), gf256::mul(a, b));
  }
}

TEST(Gf2m, Width16AgreesWithTableGf2_16) {
  rng rand(23);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(rand.below(65536));
    const auto b = static_cast<std::uint16_t>(rand.below(65536));
    EXPECT_EQ(gf2m<16>::mul(a, b), gf2_16::mul(a, b));
  }
}

TEST(Gf2m, ExhaustiveInverseSmallWidths) {
  for (std::uint32_t a = 1; a < gf2m<4>::order; ++a)
    EXPECT_EQ(gf2m<4>::mul(a, gf2m<4>::inv(a)), 1u);
  for (std::uint32_t a = 1; a < gf2m<6>::order; ++a)
    EXPECT_EQ(gf2m<6>::mul(a, gf2m<6>::inv(a)), 1u);
}

}  // namespace
}  // namespace nab::gf
