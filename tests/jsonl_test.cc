#include "service/jsonl.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace gepc {
namespace {

TEST(JsonlParseTest, FlatObjectWithAllValueTypes) {
  auto object = ParseJsonObject(
      R"({"cmd":"apply","user":7,"ratio":-2.5,"exp":0.5E+2,"wait":false,"tag":null})");
  ASSERT_TRUE(object.ok()) << object.status();
  EXPECT_EQ(object->at("cmd").type, JsonValue::Type::kString);
  EXPECT_EQ(object->at("cmd").string_value, "apply");
  EXPECT_EQ(object->at("user").type, JsonValue::Type::kNumber);
  EXPECT_DOUBLE_EQ(object->at("user").number_value, 7.0);
  EXPECT_DOUBLE_EQ(object->at("ratio").number_value, -2.5);
  EXPECT_DOUBLE_EQ(object->at("exp").number_value, 50.0);
  EXPECT_EQ(object->at("wait").type, JsonValue::Type::kBool);
  EXPECT_FALSE(object->at("wait").bool_value);
  EXPECT_EQ(object->at("tag").type, JsonValue::Type::kNull);
}

TEST(JsonlParseTest, WhitespaceAndEmptyObject) {
  EXPECT_TRUE(ParseJsonObject("  { }  ").ok());
  auto object = ParseJsonObject(" { \"a\" : 1 , \"b\" : \"x\" } ");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object->size(), 2u);
}

TEST(JsonlParseTest, StringEscapes) {
  auto object = ParseJsonObject(R"({"s":"a\"b\\c\nd\tA"})");
  ASSERT_TRUE(object.ok()) << object.status();
  EXPECT_EQ(object->at("s").string_value, "a\"b\\c\nd\tA");
}

TEST(JsonlParseTest, MalformedInputsRejected) {
  EXPECT_FALSE(ParseJsonObject("").ok());
  EXPECT_FALSE(ParseJsonObject("not json").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\":1").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\":tru}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\":\"unterminated}").ok());
  // Numbers take JSON's syntax only, and must be finite.
  for (const char* number : {"inf", "-inf", "nan", "0x10", "+1", "01", "1.",
                             ".5", "1e", "-", "1e999"}) {
    EXPECT_FALSE(
        ParseJsonObject(std::string("{\"a\":") + number + "}").ok())
        << number;
  }
}

TEST(JsonlParseTest, NestedStructuresRejected) {
  EXPECT_FALSE(ParseJsonObject(R"({"a":{"b":1}})").ok());
  EXPECT_FALSE(ParseJsonObject(R"({"a":[1,2]})").ok());
}

TEST(JsonlWriteTest, InsertionOrderAndTypes) {
  JsonWriter writer;
  writer.Add("ok", true);
  writer.Add("seq", static_cast<uint64_t>(12));
  writer.Add("utility", 88.25);
  writer.Add("name", "week of 3/2");
  writer.AddRaw("stops", "[1,2]");
  EXPECT_EQ(writer.Finish(),
            R"({"ok":true,"seq":12,"utility":88.25,"name":"week of 3/2","stops":[1,2]})");
}

TEST(JsonlWriteTest, EscapingRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01";
  JsonWriter writer;
  writer.Add("s", nasty);
  auto parsed = ParseJsonObject(writer.Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->at("s").string_value, nasty);
}

TEST(JsonlWriteTest, NumbersRoundTrip) {
  for (const double value :
       {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 12.880807237860413, 1e-9, 1e17}) {
    const std::string rendered = JsonNumber(value);
    EXPECT_EQ(std::strtod(rendered.c_str(), nullptr), value)
        << "value " << value << " rendered as " << rendered;
  }
}

TEST(JsonlWriteTest, EmptyObject) {
  JsonWriter writer;
  EXPECT_EQ(writer.Finish(), "{}");
}

}  // namespace
}  // namespace gepc
