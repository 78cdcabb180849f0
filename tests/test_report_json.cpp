// Unit tests: JSON report export (structure, escaping, numeric fields) and
// the JsonWriter's number and string format.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/json_writer.hpp"
#include "core/report_json.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace proof {
namespace {

ProfileReport sample_report() {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.batch = 4;
  opt.mode = MetricMode::kPredicted;
  return Profiler(opt).run_zoo("mobilenetv2_05");
}

TEST(ReportJson, ContainsTopLevelFields) {
  const std::string json = report_to_json(sample_report());
  for (const char* key :
       {"\"model\":", "\"platform\":", "\"latency_s\":", "\"layers\":[",
        "\"mapping_coverage\":", "\"peak_flops\":", "\"memory_bound\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ReportJson, BalancedBracesAndQuotes) {
  const std::string json = report_to_json(sample_report());
  int braces = 0;
  int brackets = 0;
  size_t quotes = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
    }
    if (in_string) {
      continue;
    }
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(ReportJson, LayerCountMatchesReport) {
  const ProfileReport r = sample_report();
  const std::string json = report_to_json(r);
  size_t names = 0;
  size_t pos = 0;
  while ((pos = json.find("\"name\":", pos)) != std::string::npos) {
    ++names;
    pos += 7;
  }
  EXPECT_EQ(names, r.layers.size());
}

TEST(ReportJson, EscapesSpecialCharacters) {
  ProfileReport r = sample_report();
  r.model_name = "quote\" backslash\\ newline\n tab\t";
  const std::string json = report_to_json(r);
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
  EXPECT_NE(json.find("backslash\\\\"), std::string::npos);
  EXPECT_NE(json.find("newline\\n"), std::string::npos);
  EXPECT_NE(json.find("tab\\t"), std::string::npos);
}

TEST(ReportJson, SaveToDisk) {
  const std::string path = ::testing::TempDir() + "/proof_report.json";
  save_json(report_to_json(sample_report()), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  char first = 0;
  in >> first;
  EXPECT_EQ(first, '{');
}

// --- JsonWriter format --------------------------------------------------------

/// The oracle: how the serializers formatted numbers before the writer
/// stopped using streams.
template <typename T>
std::string ostream_text(T value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

std::string writer_text(double value) {
  JsonWriter w;
  w.begin_object();
  w.field("v", value);
  w.end_object();
  const std::string doc = w.take();
  return doc.substr(5, doc.size() - 6);  // strip {"v": ... }
}

std::string writer_text(int64_t value) {
  JsonWriter w;
  w.begin_object();
  w.field("v", value);
  w.end_object();
  const std::string doc = w.take();
  return doc.substr(5, doc.size() - 6);
}

double from_bits(uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::vector<double> format_corpus() {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0,
      1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
      -1.7976931348623157e308, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 1e-5, 1e-4, 1e-3, 1e11, 1e12,
      1e13, 123456789012.0, 1234567890123.0, 999999999999.0,
      999999999999.5, 9999999999995.0, 0.99999999999949, 0.99999999999951};
  // 12-digit rounding ties: 13 significant digits ending in 5.  Integral
  // ones are exact in binary, so they are true ties (round half to even).
  for (int64_t m : {1000000000005LL, 1000000000015LL, 1234567890125LL,
                    1234567890135LL, 9999999999985LL, 2500000000005LL}) {
    for (double scale : {1.0, 1e-13, 1e-6, 1e20, -1.0}) {
      values.push_back(static_cast<double>(m) * scale);
    }
  }
  Rng rng(20240607);
  // Random bit patterns: every exponent, including subnormals.
  while (values.size() < 6000) {
    const double d = from_bits(rng.next_u64());
    if (std::isfinite(d)) {
      values.push_back(d);
    }
  }
  // Subnormals specifically (exponent field zero).
  for (int i = 0; i < 1000; ++i) {
    values.push_back(from_bits(rng.next_u64() & 0x800FFFFFFFFFFFFFull));
  }
  // Integral values, small and up to 2^53.
  for (int i = 0; i < 1000; ++i) {
    const auto bits = static_cast<int>(rng.next_below(54));
    const double v = static_cast<double>(rng.next_u64() >> (64 - std::max(bits, 1)));
    values.push_back(i % 2 == 0 ? v : -v);
  }
  // Magnitudes a report actually carries: latencies, FLOP, bytes, shares.
  for (int i = 0; i < 2000; ++i) {
    values.push_back(std::pow(10.0, rng.uniform(-12.0, 16.0)) *
                     (rng.next_below(2) == 0 ? 1.0 : -1.0));
  }
  return values;
}

TEST(JsonWriterFormat, DoublesMatchOstreamPrecision12) {
  const std::vector<double> values = format_corpus();
  ASSERT_GE(values.size(), 10000u);
  size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = ostream_text(v);
    const std::string got = writer_text(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex
                    << [&] { uint64_t b = 0; std::memcpy(&b, &v, 8); return b; }()
                    << std::dec << ": writer '" << got << "' vs ostream '"
                    << want << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriterFormat, IntegersMatchOstream) {
  Rng rng(7);
  std::vector<int64_t> values = {0, 1, -1, std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min()};
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<int64_t>(rng.next_u64()) >>
                     rng.next_below(63));
  }
  for (const int64_t v : values) {
    EXPECT_EQ(writer_text(v), ostream_text(v)) << v;
  }
}

TEST(JsonWriterFormat, NonFiniteIsNull) {
  EXPECT_EQ(writer_text(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(writer_text(-std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(writer_text(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(writer_text(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriterFormat, EveryByteRoundTripsThroughParse) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one = std::string("a") + static_cast<char>(b) + "z";
    all += static_cast<char>(b);
    JsonWriter w;
    w.begin_object();
    w.field(one, one);
    w.begin_array("list");
    w.string_element(one);
    w.end_array();
    w.end_object();
    const std::string doc = w.take();
    json::Value parsed;
    ASSERT_NO_THROW(parsed = json::parse(doc)) << "byte " << b;
    ASSERT_EQ(parsed.object.size(), 2u);
    EXPECT_EQ(parsed.object[0].first, one) << "byte " << b;
    EXPECT_EQ(parsed.object[0].second.string_value, one) << "byte " << b;
    EXPECT_EQ(parsed.find("list")->array.at(0).string_value, one)
        << "byte " << b;
  }
  JsonWriter w;
  w.begin_object();
  w.field("all", all);
  w.end_object();
  EXPECT_EQ(json::parse(w.take()).get_string("all"), all);
  EXPECT_EQ(json::parse(json::quote(all)).string_value, all);
}

TEST(JsonWriterFormat, TakeReleasesSlackAndResets) {
  JsonWriter w(4096);
  w.begin_object();
  w.field("key", "a value long enough to leave the small-string buffer");
  w.end_object();
  const std::string doc = w.take();
  EXPECT_EQ(doc,
            "{\"key\":\"a value long enough to leave the small-string buffer\"}");
  EXPECT_LT(doc.capacity(), 128u);  // the 4 KiB reservation was released
  w.begin_object();
  w.end_object();
  EXPECT_EQ(w.take(), "{}");
}

}  // namespace
}  // namespace proof
