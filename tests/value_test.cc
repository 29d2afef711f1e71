#include <gtest/gtest.h>

#include "common/hash.h"
#include "storage/string_dict.h"
#include "types/data_type.h"
#include "types/value.h"

namespace beas {
namespace {

TEST(DataTypeTest, Names) {
  EXPECT_STREQ(TypeIdToString(TypeId::kInt64), "INT");
  EXPECT_STREQ(TypeIdToString(TypeId::kDouble), "DOUBLE");
  EXPECT_STREQ(TypeIdToString(TypeId::kString), "STRING");
  EXPECT_STREQ(TypeIdToString(TypeId::kDate), "DATE");
  EXPECT_STREQ(TypeIdToString(TypeId::kNull), "NULL");
}

TEST(DataTypeTest, FromStringAliases) {
  EXPECT_EQ(*TypeIdFromString("int"), TypeId::kInt64);
  EXPECT_EQ(*TypeIdFromString("BIGINT"), TypeId::kInt64);
  EXPECT_EQ(*TypeIdFromString("Integer"), TypeId::kInt64);
  EXPECT_EQ(*TypeIdFromString("double"), TypeId::kDouble);
  EXPECT_EQ(*TypeIdFromString("REAL"), TypeId::kDouble);
  EXPECT_EQ(*TypeIdFromString("varchar"), TypeId::kString);
  EXPECT_EQ(*TypeIdFromString("TEXT"), TypeId::kString);
  EXPECT_EQ(*TypeIdFromString(" date "), TypeId::kDate);
  EXPECT_FALSE(TypeIdFromString("blob").ok());
}

TEST(DataTypeTest, ParseDateValid) {
  EXPECT_EQ(*ParseDate("2016-03-15"), 20160315);
  EXPECT_EQ(*ParseDate("0001-01-01"), 10101);
  EXPECT_EQ(*ParseDate("9999-12-31"), 99991231);
}

TEST(DataTypeTest, ParseDateInvalid) {
  EXPECT_FALSE(ParseDate("2016-13-01").ok());
  EXPECT_FALSE(ParseDate("2016-00-01").ok());
  EXPECT_FALSE(ParseDate("2016-01-32").ok());
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("2016/01/01").ok());
  EXPECT_FALSE(ParseDate("").ok());
}

TEST(DataTypeTest, FormatDateRoundTrip) {
  EXPECT_EQ(FormatDate(20160315), "2016-03-15");
  EXPECT_EQ(FormatDate(*ParseDate("2024-11-05")), "2024-11-05");
}

TEST(DataTypeTest, DateEncodingOrderMatchesChronology) {
  EXPECT_LT(*ParseDate("2016-03-15"), *ParseDate("2016-03-16"));
  EXPECT_LT(*ParseDate("2016-03-31"), *ParseDate("2016-04-01"));
  EXPECT_LT(*ParseDate("2015-12-31"), *ParseDate("2016-01-01"));
}

TEST(DataTypeTest, IsValidDateEncoding) {
  EXPECT_TRUE(IsValidDateEncoding(20160315));
  EXPECT_FALSE(IsValidDateEncoding(20161315));  // month 13
  EXPECT_FALSE(IsValidDateEncoding(20160300));  // day 0
  EXPECT_FALSE(IsValidDateEncoding(0));
}

TEST(DataTypeTest, Coercibility) {
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kInt64, TypeId::kDouble));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kString, TypeId::kDate));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kInt64, TypeId::kDate));
  EXPECT_TRUE(IsImplicitlyCoercible(TypeId::kNull, TypeId::kString));
  EXPECT_FALSE(IsImplicitlyCoercible(TypeId::kDouble, TypeId::kInt64));
  EXPECT_FALSE(IsImplicitlyCoercible(TypeId::kString, TypeId::kInt64));
}

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(v.ToCsv(), "");
}

TEST(ValueTest, Int64Basics) {
  Value v = Value::Int64(-42);
  EXPECT_FALSE(v.is_null());
  EXPECT_EQ(v.AsInt64(), -42);
  EXPECT_EQ(v.ToString(), "-42");
}

TEST(ValueTest, DoubleBasics) {
  Value v = Value::Double(2.5);
  EXPECT_EQ(v.AsDouble(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
}

TEST(ValueTest, StringBasics) {
  Value v = Value::String("hello");
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToString(), "'hello'");
  EXPECT_EQ(v.ToCsv(), "hello");
}

TEST(ValueTest, DateBasics) {
  Value v = *Value::DateFromString("2016-03-15");
  EXPECT_EQ(v.type(), TypeId::kDate);
  EXPECT_EQ(v.AsDate(), 20160315);
  EXPECT_EQ(v.ToString(), "2016-03-15");
}

TEST(ValueTest, CompareIntInt) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_EQ(Value::Int64(2).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::Int64(3).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, CompareIntDoubleMixed) {
  EXPECT_EQ(Value::Int64(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int64(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int64(2)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(-1000000)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
  EXPECT_GT(Value::Int64(0).Compare(Value::Null()), 0);
}

TEST(ValueTest, DateComparesWithDate) {
  Value a = *Value::DateFromString("2016-03-15");
  Value b = *Value::DateFromString("2016-04-01");
  EXPECT_LT(a.Compare(b), 0);
}

TEST(ValueTest, HashEqualValuesEqualHashes) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_EQ(Value::Double(2.0).Hash(), Value::Int64(2).Hash())
      << "integral doubles hash like their integer value";
}

TEST(ValueTest, StringEqualityAndHashAreByteExact) {
  // Embedded NUL bytes and empty strings: equality/hash must treat the
  // full (length, bytes) payload, never the C-string prefix. The
  // dictionary round-trip twin of this test lives in string_dict_test.cc.
  Value nul_b = Value::String(std::string("a\0b", 3));
  Value nul_c = Value::String(std::string("a\0c", 3));
  Value prefix = Value::String("a");
  Value empty = Value::String("");
  EXPECT_FALSE(nul_b == nul_c);
  EXPECT_FALSE(nul_b == prefix);
  EXPECT_FALSE(prefix == empty);
  EXPECT_NE(nul_b.Hash(), nul_c.Hash());
  EXPECT_NE(prefix.Hash(), empty.Hash());
  EXPECT_TRUE(nul_b == Value::String(std::string("a\0b", 3)));
  EXPECT_TRUE(empty == Value::String(""));
  EXPECT_EQ(empty.Hash(), Value::String("").Hash());
  EXPECT_FALSE(empty.is_null()) << "empty string is not NULL";
  EXPECT_LT(empty.Compare(prefix), 0);
}

TEST(ValueTest, HashSpreads) {
  // Not a strict requirement, but catastrophic collisions would break
  // index performance: check a few values differ.
  EXPECT_NE(Value::Int64(1).Hash(), Value::Int64(2).Hash());
  EXPECT_NE(Value::String("a").Hash(), Value::String("b").Hash());
}

TEST(ValueTest, CoerceIntToDouble) {
  Value v = *Value::Int64(3).CoerceTo(TypeId::kDouble);
  EXPECT_EQ(v.type(), TypeId::kDouble);
  EXPECT_EQ(v.AsDouble(), 3.0);
}

TEST(ValueTest, CoerceStringToDate) {
  Value v = *Value::String("2016-03-15").CoerceTo(TypeId::kDate);
  EXPECT_EQ(v.type(), TypeId::kDate);
  EXPECT_EQ(v.AsDate(), 20160315);
  EXPECT_FALSE(Value::String("nope").CoerceTo(TypeId::kDate).ok());
}

TEST(ValueTest, CoerceIntToDateValidatesEncoding) {
  EXPECT_TRUE(Value::Int64(20160315).CoerceTo(TypeId::kDate).ok());
  EXPECT_FALSE(Value::Int64(123).CoerceTo(TypeId::kDate).ok());
}

TEST(ValueTest, CoerceNullIsNull) {
  Value v = *Value::Null().CoerceTo(TypeId::kInt64);
  EXPECT_TRUE(v.is_null());
}

TEST(ValueTest, CoerceRejectsLossy) {
  EXPECT_FALSE(Value::Double(2.5).CoerceTo(TypeId::kInt64).ok());
  EXPECT_FALSE(Value::String("7").CoerceTo(TypeId::kInt64).ok());
}

// ---------------------------------------------------------------------------
// Representation: a Value is three words; strings are inline (short, or one
// shared heap block when long) or dictionary-backed, and copies, moves and
// self-assignment behave identically for every representation.
// ---------------------------------------------------------------------------

static_assert(sizeof(Value) <= 24, "Value must stay three words");

TEST(ValueReprTest, AccessorsPerType) {
  EXPECT_EQ(Value::Int64(-7).AsInt64(), -7);
  EXPECT_DOUBLE_EQ(Value::Int64(-7).AsDouble(), -7.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Double(2.5).AsInt64(), 0) << "no int payload";
  EXPECT_EQ(Value::Date(20160315).AsDate(), 20160315);
  EXPECT_EQ(Value::Date(20160315).AsInt64(), 20160315);
  EXPECT_EQ(Value::Null().AsInt64(), 0);
  EXPECT_EQ(Value::String("abc").AsInt64(), 0);
  EXPECT_EQ(Value::String("abc").AsString(), "abc");
  EXPECT_EQ(Value::String("").AsString(), "");
  EXPECT_EQ(Value::Int64(1).AsString(), "");
  EXPECT_EQ(Value::String("abc").dict(), nullptr);
  EXPECT_EQ(Value::Int64(1).dict(), nullptr);
}

TEST(ValueReprTest, ShortAndLongInlineStringsAreByteExact) {
  std::string exact(Value::kShortStringCapacity, 'x');
  std::string over(Value::kShortStringCapacity + 1, 'y');
  std::string with_nul("a\0b", 3);
  for (const std::string& s : {std::string(), exact, over, with_nul,
                               std::string(1000, 'z')}) {
    Value v = Value::String(s);
    EXPECT_EQ(v.type(), TypeId::kString);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.Hash(), HashString(s));
    EXPECT_EQ(v.ToString(), "'" + s + "'");
  }
}

TEST(ValueReprTest, CopyMoveAndSelfAssignEveryRepresentation) {
  StringDict dict;
  uint32_t code = dict.Intern("dictionary string");
  std::vector<Value> samples = {
      Value::Null(),
      Value::Int64(42),
      Value::Double(-0.25),
      Value::Date(20160101),
      Value::String("short"),
      Value::String("a long inline string that needs a heap block"),
      Value::DictString(&dict, code)};
  for (const Value& original : samples) {
    SCOPED_TRACE(original.ToString());
    Value copy(original);
    EXPECT_EQ(copy, original);
    EXPECT_EQ(copy.type(), original.type());
    EXPECT_EQ(copy.Hash(), original.Hash());
    EXPECT_EQ(copy.dict(), original.dict());

    Value assigned = Value::Int64(0);
    assigned = original;
    EXPECT_EQ(assigned, original);
    const Value& alias = assigned;
    assigned = alias;  // self copy-assignment keeps the payload alive
    EXPECT_EQ(assigned, original);
    EXPECT_EQ(assigned.ToString(), original.ToString());

    Value moved(std::move(copy));
    EXPECT_EQ(moved, original);
    Value move_assigned = Value::String("to be replaced by a long string...");
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, original);
    Value& self = move_assigned;
    move_assigned = std::move(self);  // self move-assignment is a no-op
    EXPECT_EQ(move_assigned, original);

    // Copies of a shared long block outlive the value they came from.
    Value survivor;
    {
      Value temp(original);
      survivor = temp;
    }
    EXPECT_EQ(survivor.ToString(), original.ToString());
  }
}

TEST(ValueReprTest, InlineAndDictionaryStringsAreInterchangeable) {
  StringDict dict;
  for (const std::string& s :
       {std::string("R1"), std::string("a string longer than sixteen")}) {
    Value inline_v = Value::String(s);
    Value dict_v = Value::DictString(&dict, dict.Intern(s));
    EXPECT_EQ(inline_v, dict_v);
    EXPECT_EQ(dict_v, inline_v);
    EXPECT_EQ(inline_v.Hash(), dict_v.Hash());
    EXPECT_EQ(inline_v.Compare(dict_v), 0);
    EXPECT_EQ(dict_v.AsString(), s);
    EXPECT_EQ(dict_v.dict(), &dict);
  }
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_GT(Value::String("abcdefghijklmnopq").Compare(Value::String("abc")),
            0);
}

TEST(ValueVecTest, HashAndEqFunctors) {
  ValueVec a{Value::Int64(1), Value::String("x")};
  ValueVec b{Value::Int64(1), Value::String("x")};
  ValueVec c{Value::Int64(1), Value::String("y")};
  EXPECT_TRUE(ValueVecEq{}(a, b));
  EXPECT_FALSE(ValueVecEq{}(a, c));
  EXPECT_EQ(ValueVecHash{}(a), ValueVecHash{}(b));
}

TEST(ValueVecTest, CompareLexicographic) {
  ValueVec a{Value::Int64(1), Value::Int64(2)};
  ValueVec b{Value::Int64(1), Value::Int64(3)};
  ValueVec c{Value::Int64(1)};
  EXPECT_LT(CompareValueVec(a, b), 0);
  EXPECT_GT(CompareValueVec(b, a), 0);
  EXPECT_EQ(CompareValueVec(a, a), 0);
  EXPECT_LT(CompareValueVec(c, a), 0) << "prefix orders before extension";
}

TEST(ValueVecTest, ToStringFormat) {
  ValueVec v{Value::Int64(1), Value::String("x")};
  EXPECT_EQ(ValueVecToString(v), "(1, 'x')");
}

}  // namespace
}  // namespace beas
