#include "protocol/registry.h"

#include <gtest/gtest.h>

#include <string>

namespace nonserial {
namespace {

TEST(ProtocolRegistryTest, NamesRoundTrip) {
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kCep), "CEP");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kStrict2pl), "S2PL");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kPredicatewise2pl), "PW-2PL");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kMvto), "MVTO");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kPwMvto), "PW-MVTO");
  EXPECT_STREQ(ProtocolKindName(ProtocolKind::kNestedCep), "Nested-CEP");
  ASSERT_EQ(AllProtocolKinds().size(), 6u);
  for (ProtocolKind kind : AllProtocolKinds()) {
    StatusOr<ProtocolKind> parsed = ParseProtocolKind(ProtocolKindName(kind));
    ASSERT_TRUE(parsed.ok()) << ProtocolKindName(kind);
    EXPECT_EQ(*parsed, kind) << ProtocolKindName(kind);
  }
}

TEST(ProtocolRegistryTest, UnknownNameListsRegisteredNames) {
  StatusOr<ProtocolKind> parsed = ParseProtocolKind("2PC");
  ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = parsed.status().message();
  EXPECT_NE(message.find("'2PC'"), std::string::npos) << message;
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_NE(message.find(ProtocolKindName(kind)), std::string::npos)
        << message;
  }
}

}  // namespace
}  // namespace nonserial
