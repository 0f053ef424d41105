#include "support/gf256.hpp"

#include <array>

#include "util/assert.hpp"

namespace nab::gf {
namespace {

struct tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled so mul can skip a modulo

  tables() {
    constexpr unsigned poly = 0x11D;
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      exp[i + 255] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= poly;
    }
    exp[510] = exp[255];
    exp[511] = exp[256];
  }
};

const tables& t() {
  static const tables instance;
  return instance;
}

}  // namespace

gf256::value_type gf256::mul(value_type a, value_type b) {
  if (a == 0 || b == 0) return 0;
  const auto& tab = t();
  return tab.exp[tab.log[a] + tab.log[b]];
}

gf256::value_type gf256::inv(value_type a) {
  NAB_ASSERT(a != 0, "gf256::inv of zero");
  const auto& tab = t();
  return tab.exp[255 - tab.log[a]];
}

gf256::value_type gf256::div(value_type a, value_type b) {
  NAB_ASSERT(b != 0, "gf256::div by zero");
  if (a == 0) return 0;
  const auto& tab = t();
  return tab.exp[tab.log[a] + 255 - tab.log[b]];
}

gf256::value_type gf256::pow(value_type a, std::uint64_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& tab = t();
  const auto le = (static_cast<std::uint64_t>(tab.log[a]) * (e % 255)) % 255;
  return tab.exp[le];
}

}  // namespace nab::gf
