// Wire-level guarantees of the serve protocol: the JSON parser, the
// length-prefixed framing (including partial reads, oversized prefixes and
// truncated streams over real sockets), and the request/response envelopes.
// Malformed input must always surface as a typed error — never a crash.
// Runs under TSan via scripts/check_tsan.sh (suite names match its filter).
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

namespace proof {
namespace {

// --- json parser -------------------------------------------------------------

TEST(ServeJson, ParsesScalarsAndContainers) {
  const std::string text =
      R"({"a":1,"b":-2.5e3,"c":"x\n\"y\"","d":[true,false,null],"e":{"k":7}})";
  const json::Value v = json::parse(text);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_int("a"), 1);
  EXPECT_DOUBLE_EQ(v.get_double("b"), -2500.0);
  EXPECT_EQ(v.get_string("c"), "x\n\"y\"");
  const json::Value* d = v.find("d");
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->is_array());
  ASSERT_EQ(d->array.size(), 3u);
  EXPECT_TRUE(d->array[0].as_bool());
  EXPECT_FALSE(d->array[1].as_bool(true));
  EXPECT_TRUE(d->array[2].is_null());
  const json::Value* e = v.find("e");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->get_int("k"), 7);
}

TEST(ServeJson, RawSpansSpliceSubDocumentsVerbatim) {
  // The byte-identity contract of analyze responses rests on this: a value's
  // raw span reproduces the producer's exact bytes, exotic number formats
  // included.
  const std::string text =
      R"({"report":{"x":1.2300000000e+01,"y":[1,  2 ,3]},"z":0})";
  const json::Value v = json::parse(text);
  const json::Value* report = v.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(json::raw(*report, text),
            R"({"x":1.2300000000e+01,"y":[1,  2 ,3]})");
}

TEST(ServeJson, UnicodeEscapesAndSurrogatePairs) {
  const json::Value v = json::parse(R"(["\u0041\u00e9", "\ud83d\ude00"])");
  ASSERT_EQ(v.array.size(), 2u);
  EXPECT_EQ(v.array[0].as_string(), "A\xc3\xa9");
  EXPECT_EQ(v.array[1].as_string(), "\xf0\x9f\x98\x80");
  // escape() round-trips control characters through \u00XX form.
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json::quote("he\"llo"), "\"he\\\"llo\"");
}

TEST(ServeJson, MalformedInputThrowsParseErrorWithOffset) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"unterminated",
        "{\"a\":1}trailing", "[\"\\ud800\"]", "01", "+1", "nul"}) {
    EXPECT_THROW((void)json::parse(bad), json::ParseError) << bad;
  }
  try {
    (void)json::parse("{\"a\": @}");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(ServeJson, DepthLimitHoldsAgainstDeepNesting) {
  std::string deep(4096, '[');
  deep += std::string(4096, ']');
  EXPECT_THROW((void)json::parse(deep), json::ParseError);
}

TEST(ServeJson, DuplicateKeysKeepLastOccurrence) {
  const json::Value v = json::parse(R"({"a":1,"a":2})");
  EXPECT_EQ(v.get_int("a"), 2);
}

/// Parses `text`; true on success, false on json::ParseError.  Any other
/// exception escapes and fails the calling test.  A successful parse must
/// keep every raw span inside the input.
bool parses(std::string_view text) {
  json::Value v;
  try {
    v = json::parse(text);
  } catch (const json::ParseError&) {
    return false;
  }
  std::vector<const json::Value*> stack = {&v};
  while (!stack.empty()) {
    const json::Value* cur = stack.back();
    stack.pop_back();
    EXPECT_LE(cur->raw_begin, cur->raw_end);
    EXPECT_LE(cur->raw_end, text.size());
    for (const json::Value& e : cur->array) {
      stack.push_back(&e);
    }
    for (const auto& member : cur->object) {
      stack.push_back(&member.second);
    }
  }
  return true;
}

std::string nested_arrays(size_t depth, const std::string& leaf) {
  return std::string(depth, '[') + leaf + std::string(depth, ']');
}

TEST(ServeJson, ParseFuzz) {
  const std::vector<std::string> frames = {
      R"({"id":1,"method":"ping","params":{}})",
      R"({"id":7,"method":"analyze","params":{"model":"resnet50","platform":"a100",)"
      R"("backend":"trt_sim","dtype":"fp16","batch":8,"deadline_ms":2.5e3}})",
      R"({"id":12,"method":"sweep","params":{"model":"bert_base","batches":[1,2,4,8],)"
      R"("knee_tolerance":0.05,"stream":true}})",
      R"({"id":-3,"method":"sweep-decode","params":{"config":"gpt2","positions":[64,256],)"
      R"("note":"café 😀 \"q\" \\ \/ \b\f\n\r\t","extra":null,"flag":false}})",
  };
  std::mt19937 rng(20261017);
  for (const std::string& frame : frames) {
    ASSERT_TRUE(parses(frame)) << frame;
    // Every proper prefix of an object is unterminated.
    for (size_t len = 0; len < frame.size(); ++len) {
      EXPECT_FALSE(parses(std::string_view(frame).substr(0, len)))
          << frame.substr(0, len);
    }
    // Random byte flips: parse or typed error, never anything else.
    for (int trial = 0; trial < 300; ++trial) {
      std::string mutant = frame;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        mutant[rng() % mutant.size()] = static_cast<char>(rng() % 256);
      }
      (void)parses(mutant);
    }
  }

  // Nesting: kMaxDepth containers are accepted, one more is rejected.
  EXPECT_TRUE(parses(nested_arrays(json::kMaxDepth, "1")));
  EXPECT_FALSE(parses(nested_arrays(json::kMaxDepth + 1, "1")));
  std::string objects = "1";
  for (size_t d = 0; d < json::kMaxDepth; ++d) {
    objects = R"({"k":)" + objects + "}";
  }
  EXPECT_TRUE(parses(objects));
  EXPECT_FALSE(parses("[" + objects + "]"));

  // Numbers past double range are typed errors; long in-range ones parse.
  for (const std::string& huge :
       {std::string("1e999"), std::string("-1e999"), "1" + std::string(400, '0'),
        "[" + std::string(400, '9') + "]"}) {
    EXPECT_FALSE(parses(huge)) << huge;
  }
  EXPECT_TRUE(parses("0." + std::string(400, '1')));
  EXPECT_TRUE(parses("123456789012345678901234567890"));
  (void)parses("1e-999");  // underflow: either outcome is acceptable

  // Malformed \u escapes, including lone and mismatched surrogates.
  for (const char* bad :
       {R"("\u12")", R"("\u")", R"("\uZZZZ")", R"("\u12G4")", R"("\ud800")",
        R"("\udc00")", R"("\ud800A")", R"("\ud800\n")", R"("\ud800\ud800")",
        R"("\udbff")", R"("\ud83d\u")", R"({"k":"\ud800"})"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

// --- framing -----------------------------------------------------------------

TEST(ServeFraming, EncodeDecodeRoundTrip) {
  const std::string payload = R"({"id":1,"method":"ping","params":{}})";
  const std::string frame = serve::encode_frame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);

  serve::FrameDecoder decoder;
  decoder.feed(frame);
  const std::optional<std::string> out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(ServeFraming, DecoderHandlesArbitraryChunking) {
  const std::string a = serve::encode_frame("{\"id\":1}");
  const std::string b = serve::encode_frame(std::string(1000, 'x'));
  const std::string stream = a + b;
  // Split the stream at every boundary; both frames must always come out.
  for (size_t split = 0; split <= stream.size(); ++split) {
    serve::FrameDecoder decoder;
    decoder.feed(std::string_view(stream).substr(0, split));
    std::optional<std::string> first = decoder.next();
    decoder.feed(std::string_view(stream).substr(split));
    if (!first.has_value()) {
      first = decoder.next();
    }
    ASSERT_TRUE(first.has_value()) << "split at " << split;
    EXPECT_EQ(*first, "{\"id\":1}");
    const std::optional<std::string> second = decoder.next();
    ASSERT_TRUE(second.has_value()) << "split at " << split;
    EXPECT_EQ(second->size(), 1000u);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(ServeFraming, OversizedPrefixIsAProtocolError) {
  const uint32_t huge = serve::kMaxFrameBytes + 1;
  std::string prefix(4, '\0');
  prefix[0] = static_cast<char>((huge >> 24) & 0xFF);
  prefix[1] = static_cast<char>((huge >> 16) & 0xFF);
  prefix[2] = static_cast<char>((huge >> 8) & 0xFF);
  prefix[3] = static_cast<char>(huge & 0xFF);
  serve::FrameDecoder decoder;
  decoder.feed(prefix);
  EXPECT_THROW((void)decoder.next(), serve::ProtocolError);
  EXPECT_THROW((void)serve::encode_frame(
                   std::string(serve::kMaxFrameBytes + 1, 'x')),
               serve::ProtocolError);
}

TEST(ServeFraming, SocketRoundTripAndCleanEof) {
  auto [client, server] = net::Socket::make_pair();
  serve::write_frame(client, "{\"id\":7}");
  serve::write_frame(client, "{\"id\":8}");
  client.close();  // clean close after two complete frames

  std::optional<std::string> frame = serve::read_frame(server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "{\"id\":7}");
  frame = serve::read_frame(server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "{\"id\":8}");
  EXPECT_FALSE(serve::read_frame(server).has_value());  // EOF, not an error
}

TEST(ServeFraming, TruncatedPayloadIsAProtocolError) {
  auto [client, server] = net::Socket::make_pair();
  // Prefix promises 10 bytes; deliver 3 and vanish.
  const std::string frame = serve::encode_frame("0123456789");
  client.write_all(frame.data(), 7);
  client.close();
  EXPECT_THROW((void)serve::read_frame(server), serve::ProtocolError);
}

TEST(ServeFraming, TruncatedPrefixIsAProtocolError) {
  auto [client, server] = net::Socket::make_pair();
  const char half[2] = {0, 0};
  client.write_all(half, 2);  // 2 of the 4 length bytes
  client.close();
  EXPECT_THROW((void)serve::read_frame(server), serve::ProtocolError);
}

// --- request / response envelopes -------------------------------------------

TEST(ServeEnvelope, ParseRequestExtractsMethodAndParams) {
  const serve::Request request = serve::parse_request(
      R"({"id":42,"method":"profile","params":{"model":"resnet50","batch":8}})");
  EXPECT_EQ(request.id, 42);
  EXPECT_EQ(request.method, "profile");
  EXPECT_EQ(request.p().get_string("model"), "resnet50");
  EXPECT_EQ(request.p().get_int("batch"), 8);
}

TEST(ServeEnvelope, ParseRequestDefaultsMissingParams) {
  const serve::Request request =
      serve::parse_request(R"({"id":1,"method":"ping"})");
  EXPECT_TRUE(request.p().is_object());
  EXPECT_TRUE(request.p().object.empty());
}

TEST(ServeEnvelope, MalformedRequestsThrowTypedErrorsNeverCrash) {
  for (const char* bad : {
           "not json at all",
           "[1,2,3]",                       // not an object
           "42",                            // not an object
           R"({"id":1})",                   // no method
           R"({"id":1,"method":""})",       // empty method
           R"({"id":1,"method":7})",        // method not a string
           R"({"id":1,"method":"x","params":[1]})",  // params not an object
           "",
       }) {
    EXPECT_THROW((void)serve::parse_request(bad), serve::ProtocolError) << bad;
  }
}

TEST(ServeEnvelope, ResultAndErrorRoundTrip) {
  const std::string result_payload =
      serve::make_result(9, R"({"total_latency_s":1.25e-03})");
  const serve::Response result = serve::parse_response(result_payload);
  EXPECT_TRUE(result.is_result());
  EXPECT_EQ(result.id, 9);
  EXPECT_EQ(result.payload, R"({"total_latency_s":1.25e-03})");

  const std::string progress_payload =
      serve::make_progress(9, R"({"batch":4})");
  const serve::Response progress = serve::parse_response(progress_payload);
  EXPECT_TRUE(progress.is_progress());
  EXPECT_EQ(progress.payload, R"({"batch":4})");

  const std::string error_payload = serve::make_error(
      9, serve::ErrorCode::kOverloaded, "4 requests already in flight");
  const serve::Response error = serve::parse_response(error_payload);
  EXPECT_TRUE(error.is_error());
  EXPECT_EQ(error.error_code, 429);
  EXPECT_EQ(error.error_kind, "overloaded");
  EXPECT_EQ(error.error_message, "4 requests already in flight");
}

TEST(ServeEnvelope, ErrorMessagesWithQuotesStayValidJson) {
  const std::string payload = serve::make_error(
      1, serve::ErrorCode::kBadRequest, "unknown model \"x\"\nline2");
  const serve::Response response = serve::parse_response(payload);
  EXPECT_EQ(response.error_message, "unknown model \"x\"\nline2");
}

TEST(ServeEnvelope, ErrorKindsCoverEveryCode) {
  EXPECT_EQ(serve::error_kind(serve::ErrorCode::kBadRequest), "bad_request");
  EXPECT_EQ(serve::error_kind(serve::ErrorCode::kNotFound), "not_found");
  EXPECT_EQ(serve::error_kind(serve::ErrorCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(serve::error_kind(serve::ErrorCode::kOverloaded), "overloaded");
  EXPECT_EQ(serve::error_kind(serve::ErrorCode::kInternal), "internal");
  EXPECT_EQ(serve::error_kind(serve::ErrorCode::kShuttingDown),
            "shutting_down");
}

// --- deadlines ---------------------------------------------------------------

TEST(ServeDeadline, UnarmedNeverExpires) {
  const serve::Deadline none(0.0);
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_NO_THROW(none.check("anywhere"));
}

TEST(ServeDeadline, TinyBudgetExpiresAndThrowsWithStage) {
  const serve::Deadline tiny(1e-9);
  EXPECT_TRUE(tiny.armed());
  // A nanosecond budget has elapsed by the time we get here.
  EXPECT_TRUE(tiny.expired());
  try {
    tiny.check("sweep point");
    FAIL() << "expected DeadlineExceeded";
  } catch (const serve::DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("sweep point"), std::string::npos);
  }
}

}  // namespace
}  // namespace proof
