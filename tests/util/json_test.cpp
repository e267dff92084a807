#include "util/json.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace hsw::json {
namespace {

using Flat = std::map<std::string, std::string>;

Flat flat(const std::string& text) {
  Flat out;
  EXPECT_TRUE(parse_flat(text, &out)) << text;
  return out;
}

// Nested objects and arrays flatten to dotted paths; array elements use
// numeric segments, and scalars keep their literal token text.
TEST(Json, NestedDocumentsFlattenToDottedKeys) {
  const Flat expected = {{"a.b.0", "1"},      {"a.b.1", "two"},
                         {"a.b.2.c", "true"}, {"a.d", "-2.5e3"},
                         {"e", "null"}};
  EXPECT_EQ(expected,
            flat(R"({"a": {"b": [1, "two", {"c": true}], "d": -2.5e3},)"
                 R"( "e": null})"));
}

TEST(Json, KeyOrderAndWhitespaceDoNotChangeTheMap) {
  const Flat compact = flat(R"({"x":1,"y":{"z":[3,4]},"w":"s"})");
  const Flat spread = flat(
      "\n{ \"w\" : \"s\" ,\n\t\"y\" : { \"z\" : [ 3 ,\n 4 ] } ,  \"x\" : 1 }\n");
  EXPECT_EQ(compact, spread);
  EXPECT_EQ(4u, compact.size());
}

TEST(Json, TruncatedDocumentsAreRejected) {
  const std::string doc = R"({"a": {"b": [1, 2]}, "c": "text"})";
  Flat out;
  ASSERT_TRUE(parse_flat(doc, &out));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_FALSE(parse_flat(doc.substr(0, n), &out)) << doc.substr(0, n);
  }
}

TEST(Json, EscapeRoundTripsThroughParseFlat) {
  const std::string raw = "say \"hi\"\\ then\nnew line\tand tab";
  const Flat parsed = flat("{\"s\": \"" + escape(raw) + "\"}");
  EXPECT_EQ(raw, parsed.at("s"));
}

}  // namespace
}  // namespace hsw::json
