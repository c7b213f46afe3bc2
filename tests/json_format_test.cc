// Differential test of the printf-free JSON formatters against the
// printf-based originals in json_oracle.h: JsonWriter::Value(double),
// Value(int64_t), string escaping and FormatDouble must be byte-identical
// to "%.*g" / "%lld" / the original JsonEscape on special values and on
// millions of random inputs.
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json_oracle.h"
#include "obs/json_writer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace stratlearn {
namespace {

using obs::JsonWriter;

/// Every %g precision the repository formats doubles with: JsonWriter's
/// 12 and kRoundTripDigits, and FormatDouble's 2, 3, 4, 6, 12 and 17.
constexpr int kPrecisions[] = {2, 3, 4, 6, 12, 17};

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Boundary values of %g: signed zeros, subnormals, the extremes, the
/// points where %.17g switches between fixed and exponent notation,
/// integers past 2^53, rounding ties and non-finite values.
std::vector<double> SpecialValues() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> v = {
      0.0, -0.0, 5e-324, -5e-324, DBL_TRUE_MIN, DBL_MIN, -DBL_MIN,
      std::nextafter(DBL_MIN, 0.0), 2.2250738585072009e-308, DBL_MAX,
      -DBL_MAX, DBL_EPSILON, 1.0, -1.0, 0.1, 0.2, 0.3, 1.0 / 3.0,
      2.0 / 3.0, 0.5, 1.5, 2.5, 0.125, 0.05, 0.15, 0.25, 0.35, 0.45,
      9.5, 99.5, 999.5, 9.995, 0.0001, 0.00001, 0.000123456789,
      1e-5, 1e-4, 9.9999e-5, 1e15, 1e16, 1e17, 1e18, 1e21, 1e22, 1e23,
      9999999999999998.0, 99999999999999984.0, 123456789012345678.0,
      9007199254740992.0, 9007199254740993.0, 9007199254740994.0,
      18014398509481984.0, 1e100, 1e300, 1e-300, 1e-320, 4.9e-324,
      3.14159265358979, 2.718281828459045, 123456.789, 1234567.0,
      999999.5, 9999995.0, 0.999999999999, 0.9999999999999999,
      inf, -inf, nan, -nan, std::numeric_limits<double>::signaling_NaN()};
  // Every power of ten and its neighbours: the fixed/exponent switch of
  // every precision, and where rounding carries into a new digit.
  for (int e = -325; e <= 308; ++e) {
    double p = std::pow(10.0, e);
    v.push_back(p);
    v.push_back(std::nextafter(p, 0.0));
    v.push_back(std::nextafter(p, inf));
    v.push_back(-p);
  }
  // Powers of two, including every subnormal exponent.
  for (int e = -1074; e <= 1023; ++e) v.push_back(std::ldexp(1.0, e));
  // Integers around 2^53 and 2^64, where doubles stop being dense.
  for (int64_t k = -4; k <= 4; ++k) {
    v.push_back(std::ldexp(1.0, 53) + static_cast<double>(k));
    v.push_back(std::ldexp(1.0, 63) + static_cast<double>(k) * 2048.0);
  }
  return v;
}

/// Formats every value through FormatDouble and, inside one JsonWriter
/// array, through Value(double), and compares both with the printf
/// oracle (formatted once per value: it dominates the run time).
void ExpectMatchesOracle(const std::vector<double>& values, int digits) {
  JsonWriter w(digits);
  w.BeginArray();
  std::string expected = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    double v = values[i];
    std::string want = oracle::FormatDouble(v, digits);
    ASSERT_EQ(FormatDouble(v, digits), want)
        << "FormatDouble at %." << digits << "g";
    w.Value(v);
    if (i > 0) expected += ',';
    expected += std::isfinite(v) ? want : "null";
  }
  w.EndArray();
  expected += ']';
  if (w.str() == expected) return;
  for (double v : values) {
    JsonWriter one(digits);
    one.Value(v);
    ASSERT_EQ(one.str(), oracle::JsonDouble(v, digits))
        << "JsonWriter::Value(double) at %." << digits << "g";
  }
  FAIL() << "array output differs but no single value does";
}

TEST(JsonFormatTest, SpecialDoublesMatchPrintf) {
  std::vector<double> values = SpecialValues();
  for (int digits : kPrecisions) ExpectMatchesOracle(values, digits);
  // Precision 0 means 1, as in printf; and one past round-trip.
  ExpectMatchesOracle(values, 0);
  ExpectMatchesOracle(values, 1);
  ExpectMatchesOracle(values, 18);
}

TEST(JsonFormatTest, NonFiniteIsNullInJsonButSpelledOutByFormatDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  JsonWriter w(JsonWriter::kRoundTripDigits);
  w.BeginArray().Value(inf).Value(-inf).Value(nan).Value(-nan).EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,null]");
  EXPECT_EQ(FormatDouble(inf, 6), "inf");
  EXPECT_EQ(FormatDouble(-inf, 6), "-inf");
  EXPECT_EQ(FormatDouble(-0.0, 6), "-0");
}

TEST(JsonFormatTest, RandomBitPatternsMatchPrintf) {
  // Uniform over all 2^64 patterns: every exponent equally likely, so
  // this mostly exercises exponent notation, subnormals and NaN
  // payloads.
  Rng rng(20240611);
  std::vector<double> values(1000000);
  for (double& v : values) v = FromBits(rng.NextUint64());
  for (int digits : kPrecisions) ExpectMatchesOracle(values, digits);
}

TEST(JsonFormatTest, RandomMagnitudesNearOneMatchPrintf) {
  // Random mantissas with decimal exponents in [-8, 20]: the fixed
  // notation range of every precision, where the bit-pattern sweep
  // rarely lands, plus integer-valued doubles beyond 2^53.
  Rng rng(7);
  std::vector<double> values;
  values.reserve(200000);
  for (int i = 0; i < 150000; ++i) {
    double mantissa = rng.NextDouble();
    int exp10 = static_cast<int>(rng.NextInt(-8, 20));
    double v = mantissa * std::pow(10.0, exp10);
    values.push_back(rng.NextBernoulli(0.5) ? v : -v);
  }
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<double>(rng.NextUint64() >> (i % 24)));
  }
  for (int digits : kPrecisions) ExpectMatchesOracle(values, digits);
}

TEST(JsonFormatTest, Int64MatchesPrintf) {
  std::vector<int64_t> values = {0,
                                 1,
                                 -1,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min() + 1,
                                 std::numeric_limits<int64_t>::max() - 1};
  for (int64_t p = 1;; p *= 10) {
    for (int64_t k : {p - 1, p, p + 1}) {
      values.push_back(k);
      values.push_back(-k);
    }
    if (p > std::numeric_limits<int64_t>::max() / 10) break;
  }
  Rng rng(11);
  for (int i = 0; i < 200000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextUint64() >> (i % 64)));
    values.push_back(-static_cast<int64_t>(rng.NextUint64() >> (1 + i % 63)));
  }
  JsonWriter w;
  w.BeginArray();
  std::string expected = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    w.Value(values[i]);
    if (i > 0) expected += ',';
    expected += oracle::JsonInt(values[i]);
  }
  w.EndArray();
  expected += ']';
  EXPECT_EQ(w.str(), expected);
  JsonWriter extremes;
  extremes.BeginArray()
      .Value(std::numeric_limits<int64_t>::min())
      .Value(std::numeric_limits<int64_t>::max())
      .EndArray();
  EXPECT_EQ(extremes.str(), "[-9223372036854775808,9223372036854775807]");
}

TEST(JsonFormatTest, EveryByteEscapesLikeTheOriginal) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    std::string one(1, static_cast<char>(b));
    all += one;
    std::string want = oracle::JsonEscape(one);
    EXPECT_EQ(obs::JsonEscape(one), want) << "byte " << b;
    JsonWriter w;
    w.BeginObject().Key(one).Value(one).EndObject();
    EXPECT_EQ(w.str(), "{\"" + want + "\":\"" + want + "\"}") << "byte " << b;
  }
  EXPECT_EQ(obs::JsonEscape(all), oracle::JsonEscape(all));
  JsonWriter w;
  w.Value(all);
  std::string want = "\"";
  want += oracle::JsonEscape(all);
  want += '"';
  EXPECT_EQ(w.str(), want);
  EXPECT_TRUE(obs::IsValidJson(w.str()));
}

TEST(JsonFormatTest, RandomStringsEscapeLikeTheOriginal) {
  // Mixes of plain runs and bytes that need escaping, at every length
  // up to 64, so run boundaries fall at every offset.
  Rng rng(3);
  const char kAlphabet[] = "ab\"\\\n\t\x01\x1f\x7f\xc3\xa9 ";
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    size_t len = static_cast<size_t>(rng.NextBounded(65));
    for (size_t j = 0; j < len; ++j) {
      s += rng.NextBernoulli(0.7)
               ? static_cast<char>(rng.NextBounded(256))
               : kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
    }
    std::string want = oracle::JsonEscape(s);
    ASSERT_EQ(obs::JsonEscape(s), want);
    JsonWriter w;
    w.Key(s);
    w.Value(s);
    ASSERT_EQ(w.str(), "\"" + want + "\":\"" + want + "\"");
  }
}

TEST(JsonFormatTest, ResetReusesTheWriterForAFreshDocument) {
  JsonWriter w(JsonWriter::kRoundTripDigits);
  w.BeginObject().Key("a").BeginArray().Value(int64_t{1});
  // Reset mid-document: nesting and pending-key state are discarded too.
  w.Reset();
  w.BeginObject().Key("x").Value(0.1).Key("n").Value(int64_t{-3}).EndObject();
  EXPECT_EQ(w.str(), "{\"x\":0.10000000000000001,\"n\":-3}");
  w.Reset();
  w.Key("k");
  w.Reset();
  w.BeginArray().Value(true).Null().EndArray();
  EXPECT_EQ(w.str(), "[true,null]");
}

}  // namespace
}  // namespace stratlearn
