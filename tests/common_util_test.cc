// Tests for string utilities, math helpers, the table printer and flags.

#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table.h"

namespace ltc {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(JoinSplitTest, RoundTrips) {
  std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
  EXPECT_EQ(Split("solo", ','), std::vector<std::string>{"solo"});
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, RemovesEdgesOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024ULL * 1024ULL), "3.0 MiB");
}

TEST(HumanDurationTest, PicksUnits) {
  EXPECT_EQ(HumanDuration(2.5), "2.50 s");
  EXPECT_EQ(HumanDuration(0.0025), "2.50 ms");
  EXPECT_EQ(HumanDuration(2.5e-6), "2.50 us");
}

TEST(ParseTest, ValidatesWholeString) {
  double d;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  std::int64_t i;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("4.2", &i));
}

// --- The number codec: AppendDouble/AppendInt against printf, ParseDouble/
// ParseInt64 against the strtod/strtoll rule they replaced. ---

std::string Printf(int precision, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

std::string Appended(double v, int precision) {
  std::string out;
  AppendDouble(&out, v, precision);
  return out;
}

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(AppendDoubleTest, MatchesPrintfOnSpecialValues) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {0.0, -0.0, kInf, -kInf, kNan, -kNan};
  values.insert(values.end(), {DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX});
  values.insert(values.end(), {DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_EPSILON});
  values.insert(values.end(), {1e300, 1e-300, -1e300, -1e-300});
  values.insert(values.end(), {0.1, 1.0 / 3.0, 2.0322308024183599e-313});
  values.insert(values.end(), {0.0001, 0.00001, 1e16, 1e17, 1e18});
  values.insert(values.end(), {123456789.0, 0.5, 720.0, -720.0, 1.0});
  values.insert(values.end(), {100000.0, 9007199254740993.0});
  for (const double v : values) {
    for (const int precision : {17, 9, 1, 6, 30}) {
      EXPECT_EQ(Appended(v, precision), Printf(precision, v))
          << "bits " << Bits(v) << " precision " << precision;
    }
  }
  for (std::int64_t i = -1000; i <= 1000; ++i) {
    EXPECT_EQ(Appended(static_cast<double>(i), 17),
              Printf(17, static_cast<double>(i)));
  }
  // Wider than AppendDouble's stack buffer: still printf's bytes.
  EXPECT_EQ(Appended(DBL_TRUE_MIN, 100), StrFormat("%.100g", DBL_TRUE_MIN));
}

TEST(AppendDoubleTest, MatchesPrintfOnRandomBitPatterns) {
  // Uniform 64-bit patterns cover every exponent, subnormals and NaN
  // payloads in proportion; a second stream draws typical stream values.
  Rng rng(20181);
  int mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double v = FromBits(rng.NextU64());
    for (const int precision : {17, 9}) {
      if (Appended(v, precision) != Printf(precision, v) && ++mismatches < 5) {
        ADD_FAILURE() << "bits " << Bits(v) << " precision " << precision
                      << ": " << Appended(v, precision) << " vs "
                      << Printf(precision, v);
      }
    }
  }
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.Uniform(-1000.0, 1000.0);
    if (Appended(v, 17) != Printf(17, v) && ++mismatches < 5) {
      ADD_FAILURE() << "value " << Printf(17, v);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(AppendIntTest, MatchesPrintf) {
  const long long kMax = std::numeric_limits<long long>::max();
  const long long kMin = std::numeric_limits<long long>::min();
  for (const long long v : {0LL, 1LL, -1LL, 1000000007LL, kMax, kMin}) {
    std::string out;
    AppendInt(&out, v);
    EXPECT_EQ(out, StrFormat("%lld", v));
  }
  std::string out;
  AppendInt(&out, std::numeric_limits<unsigned long long>::max());
  EXPECT_EQ(out,
            StrFormat("%llu", std::numeric_limits<unsigned long long>::max()));
  out.clear();
  AppendInt(&out, std::numeric_limits<int>::min());
  EXPECT_EQ(out, StrFormat("%d", std::numeric_limits<int>::min()));
}

TEST(AppendRecordTest, SpacesFieldsAndEndsTheLine) {
  std::string out = "x\n";
  AppendRecord(&out, "pt", 3, 0.5, 2.0, -7LL, 0.1);
  EXPECT_EQ(out, "x\npt 3 0.5 2 -7 0.10000000000000001\n");
  AppendRecord(&out, "endpipe");
  EXPECT_EQ(out, "x\npt 3 0.5 2 -7 0.10000000000000001\nendpipe\n");
}

// The plain strtod/strtoll rule: the reference ParseDouble/ParseInt64 are
// compared against.
bool StrtodRule(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool StrtollRule(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

// True when strtod parses all of `s` to a subnormal and flags it ERANGE —
// the one input class the codec now accepts and the old rule rejected.
bool IsSubnormalInput(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size() && errno == ERANGE &&
         std::fpclassify(v) == FP_SUBNORMAL;
}

void ExpectParsesLikeStrtod(const std::string& s) {
  double want = 0.0;
  double got = 0.0;
  const bool old_ok = StrtodRule(s, &want);
  const bool new_ok = ParseDouble(s, &got);
  if (IsSubnormalInput(s)) {
    EXPECT_FALSE(old_ok) << "'" << s << "'";
    ASSERT_TRUE(new_ok) << "subnormal '" << s << "' rejected";
    char* end = nullptr;
    EXPECT_EQ(Bits(got), Bits(std::strtod(s.c_str(), &end))) << "'" << s << "'";
    return;
  }
  ASSERT_EQ(new_ok, old_ok) << "'" << s << "'";
  if (!old_ok) return;
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << "'" << s << "'";
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << "'" << s << "'";
  } else {
    EXPECT_EQ(Bits(got), Bits(want)) << "'" << s << "'";
  }
}

void ExpectParsesLikeStrtoll(const std::string& s) {
  std::int64_t want = 0;
  std::int64_t got = 0;
  const bool old_ok = StrtollRule(s, &want);
  ASSERT_EQ(ParseInt64(s, &got), old_ok) << "'" << s << "'";
  if (old_ok) {
    EXPECT_EQ(got, want) << "'" << s << "'";
  }
}

TEST(ParseCodecTest, AcceptsExactlyWhatStrtodAndStrtollAccepted) {
  std::vector<std::string> corpus = {"+1", " 1", "1 ", "\t1", "1\n", "1 2"};
  corpus.insert(corpus.end(), {"0x1p3", "0X1P-2", "0x", ".5", "5.", "."});
  corpus.insert(corpus.end(), {"1e", "1e+", "1e5", "1E-5", "1e5.5", "1..2"});
  corpus.insert(corpus.end(), {"1e400", "-1e400", "1e-400", "-0", "0", ""});
  corpus.insert(corpus.end(), {"inf", "-inf", "+inf", "INF", "infinity"});
  corpus.insert(corpus.end(), {"nan", "-nan", "NaN", "nan(123)"});
  corpus.insert(corpus.end(), {"-", "+", "--1", "+-1", "3.5x", "x3.5"});
  corpus.insert(corpus.end(), {"00012", "-00012", "12345678901234567890123"});
  // Round-trip text at the edges of the double range, subnormals included.
  corpus.insert(corpus.end(), {"0.10000000000000001", "+2e-313", " 2e-313"});
  corpus.push_back("1.7976931348623157e+308");
  corpus.push_back("1.7976931348623159e+308");
  corpus.push_back("2.2250738585072014e-308");
  corpus.push_back("2.0322308024183599e-313");
  corpus.push_back("4.9406564584124654e-324");
  corpus.push_back("2.4703282292062327e-324");
  corpus.push_back("2.4703282292062328e-324");
  // The int64 range and one past it on each side.
  corpus.push_back("9223372036854775807");
  corpus.push_back("9223372036854775808");
  corpus.push_back("-9223372036854775808");
  corpus.push_back("-9223372036854775809");
  corpus.push_back("18446744073709551616");
  for (const std::string& s : corpus) {
    ExpectParsesLikeStrtod(s);
    ExpectParsesLikeStrtoll(s);
  }
  // An embedded NUL ends what strtod sees, so the whole string is never
  // consumed.
  std::string with_nul = "12";
  with_nul[1] = '\0';
  double d;
  std::int64_t i;
  EXPECT_FALSE(ParseDouble(with_nul, &d));
  EXPECT_FALSE(ParseInt64(with_nul, &i));
}

TEST(ParseCodecTest, RandomStringsParseLikeStrtod) {
  // Short strings over the characters numbers are made of: the accept sets
  // must agree everywhere, not only on the hand-picked corpus.
  const char kAlphabet[] = "0123456789+-.eExXpPinfaINFAN ";
  Rng rng(2018);
  for (int i = 0; i < 200000; ++i) {
    const auto len = rng.UniformInt(0, 8);
    std::string s;
    for (std::int64_t k = 0; k < len; ++k) {
      s.push_back(kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)]);
    }
    ExpectParsesLikeStrtod(s);
    ExpectParsesLikeStrtoll(s);
  }
}

TEST(ParseCodecTest, EveryPrintedDoubleRoundTrips) {
  // "%.17g" round-trips every double — subnormals included, which strtod's
  // ERANGE made unparseable before.
  Rng rng(42);
  for (int i = 0; i < 200000; ++i) {
    const double v = FromBits(rng.NextU64());
    if (std::isnan(v)) continue;
    double back = 0.0;
    ASSERT_TRUE(ParseDouble(Appended(v, 17), &back)) << Appended(v, 17);
    ASSERT_EQ(Bits(back), Bits(v)) << Appended(v, 17);
  }
  for (const double v : {DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0,
                         2.0322308024183599e-313}) {
    double back = 0.0;
    ASSERT_TRUE(ParseDouble(Appended(v, 17), &back)) << Appended(v, 17);
    EXPECT_EQ(Bits(back), Bits(v));
  }
}

TEST(StrFormatTest, OutputLongerThanTheStackBuffer) {
  const std::string long_arg(1000, 'q');
  const std::string out = StrFormat("<%s|%d>", long_arg.c_str(), 7);
  EXPECT_EQ(out, "<" + long_arg + "|7>");
  // Exactly at and around the buffer boundary.
  for (std::size_t n = 250; n <= 260; ++n) {
    const std::string arg(n, 'a');
    EXPECT_EQ(StrFormat("%s", arg.c_str()), arg);
  }
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(TrimViewTest, MatchesTrim) {
  for (const char* s : {"  a b  ", "\t\n x \r", "", "   ", "x"}) {
    EXPECT_EQ(std::string(TrimView(s)), Trim(s));
  }
}

TEST(MathTest, SigmoidProperties) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(30.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-30.0), 0.0, 1e-12);
  // Symmetry: s(x) + s(-x) == 1.
  for (double x : {0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12) << x;
  }
  // No overflow at extremes.
  EXPECT_EQ(Sigmoid(1000.0), 1.0);
  EXPECT_EQ(Sigmoid(-1000.0), 0.0);
}

TEST(MathTest, ClampAndCeilDiv) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 5), 1);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"algo", "latency"});
  tp.AddRow({"AAM", "812"});
  tp.AddRow({"MCF-LTC", "1024"});
  const std::string out = tp.Render();
  EXPECT_NE(out.find("algo"), std::string::npos);
  EXPECT_NE(out.find("MCF-LTC"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(tp.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvEscapesSpecials) {
  TablePrinter tp({"name", "note"});
  tp.AddRow({"a,b", "say \"hi\""});
  const std::string csv = tp.RenderCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, CellHelpers) {
  EXPECT_EQ(TablePrinter::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Cell(static_cast<std::int64_t>(42)), "42");
}

TEST(TablePrinterTest, WriteCsvRoundTrip) {
  TablePrinter tp({"x"});
  tp.AddRow({"1"});
  const std::string path = "/tmp/ltc_table_test/out.csv";
  ASSERT_TRUE(tp.WriteCsv(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_STREQ(buf, "x\n1\n");
}

// ---- Flags ----

Flag<std::int64_t> FLAG_test_int("test_int", 3, "an int flag");
Flag<double> FLAG_test_double("test_double", 0.5, "a double flag");
Flag<bool> FLAG_test_bool("test_bool", false, "a bool flag");
Flag<std::string> FLAG_test_str("test_str", "d", "a string flag");

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",        "--test_int=7",  "--test_double",
                        "2.5",         "--test_bool",   "--test_str=hello"};
  ASSERT_TRUE(ParseCommandLine(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(FLAG_test_int.Get(), 7);
  EXPECT_DOUBLE_EQ(FLAG_test_double.Get(), 2.5);
  EXPECT_TRUE(FLAG_test_bool.Get());
  EXPECT_EQ(FLAG_test_str.Get(), "hello");
}

TEST(FlagsTest, NegatedBool) {
  const char* argv[] = {"prog", "--no-test_bool"};
  ASSERT_TRUE(ParseCommandLine(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(FLAG_test_bool.Get());
}

TEST(FlagsTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--no_such_flag=1"};
  EXPECT_TRUE(ParseCommandLine(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, RejectsBadValue) {
  const char* argv[] = {"prog", "--test_int=abc"};
  EXPECT_TRUE(ParseCommandLine(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--test_int=1", "pos2"};
  std::vector<std::string> positional;
  ASSERT_TRUE(
      ParseCommandLine(4, const_cast<char**>(argv), &positional).ok());
  EXPECT_EQ(positional, (std::vector<std::string>{"pos1", "pos2"}));
  const char* argv2[] = {"prog", "stray"};
  EXPECT_FALSE(ParseCommandLine(2, const_cast<char**>(argv2)).ok());
}

// Two registrations of one name, as when a binary links a library main
// that registers --tasks next to its own --tasks.
Flag<std::int64_t> FLAG_shared_first("test_shared", 1, "first registration");
Flag<std::int64_t> FLAG_shared_second("test_shared", 2, "second registration");
Flag<bool> FLAG_shared_bool_first("test_shared_bool", false, "first bool");
Flag<bool> FLAG_shared_bool_second("test_shared_bool", true, "second bool");

TEST(FlagsTest, EveryRegistrationOfANameReceivesTheValue) {
  const char* argv[] = {"prog", "--test_shared=9", "--no-test_shared_bool"};
  ASSERT_TRUE(ParseCommandLine(3, const_cast<char**>(argv)).ok());
  EXPECT_EQ(FLAG_shared_first.Get(), 9);
  EXPECT_EQ(FLAG_shared_second.Get(), 9);
  EXPECT_FALSE(FLAG_shared_bool_first.Get());
  EXPECT_FALSE(FLAG_shared_bool_second.Get());

  const char* argv2[] = {"prog", "--test_shared", "4", "--test_shared_bool"};
  ASSERT_TRUE(ParseCommandLine(4, const_cast<char**>(argv2)).ok());
  EXPECT_EQ(FLAG_shared_first.Get(), 4);
  EXPECT_EQ(FLAG_shared_second.Get(), 4);
  EXPECT_TRUE(FLAG_shared_bool_first.Get());
  EXPECT_TRUE(FLAG_shared_bool_second.Get());

  // A bad value is rejected, whichever registration parses first.
  const char* argv3[] = {"prog", "--test_shared=x"};
  EXPECT_TRUE(
      ParseCommandLine(2, const_cast<char**>(argv3)).IsInvalidArgument());

  // Usage lists the shared name once.
  const std::string usage = FlagUsage();
  const auto first = usage.find("--test_shared ");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(usage.find("--test_shared ", first + 1), std::string::npos);
}

TEST(FlagsTest, UsageListsFlags) {
  const std::string usage = FlagUsage();
  EXPECT_NE(usage.find("test_int"), std::string::npos);
  EXPECT_NE(usage.find("an int flag"), std::string::npos);
}

}  // namespace
}  // namespace ltc
